package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"progressdb"
	"progressdb/client"
)

// syntheticDB builds a small I/O-bound engine whose scans span many
// progress refreshes.
func syntheticDB(t testing.TB) *progressdb.DB {
	t.Helper()
	db := progressdb.Open(progressdb.Config{
		ProgressUpdateSeconds: 0.25,
		SpeedWindowSeconds:    1,
		SeqPageCost:           0.05,
		RandPageCost:          0.4,
		BufferPoolPages:       64,
		Metrics:               true,
	})
	db.MustCreateTable("t", progressdb.Col("k", progressdb.Int), progressdb.Col("pad", progressdb.Text))
	pad := strings.Repeat("x", 100)
	for i := 0; i < 20000; i++ {
		db.MustInsert("t", int64(i), pad)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	return db
}

// testServer wires a server over db into an httptest stack and returns
// a client for it.
func testServer(t testing.TB, db *progressdb.DB, cfg Config) (*Server, *client.Client) {
	t.Helper()
	s := New(db, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, client.New(ts.URL)
}

func waitState(t *testing.T, cl *client.Client, id string, want client.State) client.QueryInfo {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(15 * time.Second)
	for {
		info, err := cl.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == want {
			return info
		}
		if info.State.Terminal() {
			t.Fatalf("query %s reached %s, want %s (err=%q)", id, info.State, want, info.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("query %s stuck in %s, want %s", id, info.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEndToEndPaperQuery is the acceptance scenario: the paper's Q2 at
// small scale submitted over HTTP with ≥3 advancing SSE progress events
// carrying the Figure 2 fields; a second long-running query DELETEd and
// observed transitioning to canceled with the executor unwound (no
// goroutine leak under -race); /metrics reflecting admitted/canceled.
func TestEndToEndPaperQuery(t *testing.T) {
	db := progressdb.Open(progressdb.Config{
		WorkMemPages:          16,
		BufferPoolPages:       128,
		ProgressUpdateSeconds: 10,
		SeqPageCost:           0.8e-3 / 0.01,
		RandPageCost:          6.4e-3 / 0.01,
		Metrics:               true,
	})
	if err := db.LoadPaperWorkload(0.01, false); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	_, cl := testServer(t, db, Config{Workers: 1, QueueDepth: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	baseline := runtime.NumGoroutine()

	// 1. Q2 over HTTP with streamed progress.
	q2, err := progressdb.PaperQuery(2)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: q2, Name: "Q2"})
	if err != nil {
		t.Fatal(err)
	}
	var events []client.ProgressEvent
	var terminal client.ProgressEvent
	if err := cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
		if ev.Terminal() {
			terminal = ev
		} else {
			events = append(events, ev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("got %d progress events, want >= 3", len(events))
	}
	if terminal.State != client.StateDone {
		t.Fatalf("terminal = %+v, want done", terminal)
	}
	lastSeq, lastDone := 0, -1.0
	for i, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d: seq %d not increasing (prev %d)", i, ev.Seq, lastSeq)
		}
		if ev.DoneU < lastDone {
			t.Fatalf("event %d: done_u %f went backwards (prev %f)", i, ev.DoneU, lastDone)
		}
		lastSeq, lastDone = ev.Seq, ev.DoneU
		// The paper's Figure 2 fields must all be present and sane.
		if ev.Percent < 0 || ev.Percent > 100 {
			t.Fatalf("event %d: percent %f", i, ev.Percent)
		}
		if ev.EstTotalU <= 0 {
			t.Fatalf("event %d: est_total_u %f", i, ev.EstTotalU)
		}
		if ev.RemainingSeconds < -1 {
			t.Fatalf("event %d: remaining_seconds %f", i, ev.RemainingSeconds)
		}
		if ev.SpeedU < 0 {
			t.Fatalf("event %d: speed_u %f", i, ev.SpeedU)
		}
	}

	// 2. A long-running query, canceled mid-flight over HTTP.
	sub2, err := cl.Submit(ctx, client.SubmitRequest{
		SQL: "select * from lineitem", Name: "big", PaceMS: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, sub2.ID, client.StateRunning)
	if _, err := cl.Cancel(ctx, sub2.ID); err != nil {
		t.Fatal(err)
	}
	info := waitState(t, cl, sub2.ID, client.StateCanceled)
	if info.Error == "" {
		t.Fatal("canceled query should carry an error message")
	}

	// 3. Executor unwound: no goroutine leak once both queries are done.
	// Idle HTTP keep-alive connections each pin a pair of goroutines, so
	// shed them before each count.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl.CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// 4. Metrics reflect the admissions and the cancellation.
	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"server_queries_admitted_total 2",
		"server_queries_canceled_total 1",
		"server_queries_completed_total 1",
		"server_query_wall_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	// The engine registry is mounted on the same page.
	if !strings.Contains(text, "bufferpool_hits_total") {
		t.Fatal("/metrics missing engine instruments")
	}
}

// TestAdmissionControl fills the single worker and the bounded queue:
// the next submit must be rejected with 429 and a queue_depth hint,
// while the queued query reports its position.
func TestAdmissionControl(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{Workers: 1, QueueDepth: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Occupies the worker (paced so it stays running).
	running, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t", PaceMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, running.ID, client.StateRunning)

	// Fills the queue.
	queued, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t"})
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != client.StateQueued || queued.QueuePosition != 1 {
		t.Fatalf("second submit = %+v, want queued at position 1", queued)
	}

	// Overflows: 429 with the queue capacity.
	_, err = cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t"})
	if !client.IsQueueFull(err) {
		t.Fatalf("third submit err = %v, want 429 queue-full", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.QueueDepth != 1 {
		t.Fatalf("429 should carry queue_depth=1, got %+v", ae)
	}

	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "server_queries_rejected_total 1") {
		t.Fatal("/metrics missing rejected count")
	}

	// Canceling the queued query frees its slot without running it.
	if _, err := cl.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, queued.ID, client.StateCanceled)
	if _, err := cl.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, running.ID, client.StateCanceled)
}

// TestConcurrentSubscribersTerminalDelivery exercises the broadcaster
// under -race: many subscribers stream one query's refreshes while a
// second query is canceled mid-segment. Every subscriber must observe
// a gap-free, strictly ordered stream with exactly one terminal event.
func TestConcurrentSubscribersTerminalDelivery(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{Workers: 2, QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	watched, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t", Name: "watched", PaceMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t", Name: "victim", PaceMS: 20})
	if err != nil {
		t.Fatal(err)
	}

	const subscribers = 8
	type streamResult struct {
		terminals int
		lastState client.State
		err       error
	}
	results := make([]streamResult, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Stagger subscriptions so some replay history and some
			// ride live.
			time.Sleep(time.Duration(i*7) * time.Millisecond)
			lastSeq := 0
			results[i].err = cl.Stream(ctx, watched.ID, func(ev client.ProgressEvent) error {
				if ev.Seq != lastSeq+1 {
					return fmt.Errorf("subscriber %d: seq jumped %d -> %d", i, lastSeq, ev.Seq)
				}
				lastSeq = ev.Seq
				if ev.Terminal() {
					results[i].terminals++
					results[i].lastState = ev.State
				} else if results[i].terminals > 0 {
					return fmt.Errorf("subscriber %d: event after terminal", i)
				}
				return nil
			})
		}(i)
	}

	// Cancel the victim mid-segment while the streams are live.
	waitState(t, cl, victim.ID, client.StateRunning)
	if _, err := cl.Cancel(ctx, victim.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, victim.ID, client.StateCanceled)

	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("subscriber %d: %v", i, r.err)
		}
		if r.terminals != 1 {
			t.Fatalf("subscriber %d saw %d terminal events, want exactly 1", i, r.terminals)
		}
		if r.lastState != client.StateDone {
			t.Fatalf("subscriber %d terminal state = %s, want done", i, r.lastState)
		}
	}
}

// TestWorkersRunConcurrently is the multi-worker lift seen through HTTP:
// more paced queries than the four workers sharing one engine, at least
// two of them running in one listing, every stream monotone with exactly
// one terminal event delivered last, every count right, the ticking
// sampler feeding /api/timeseries throughout, and the engine leak-free
// afterwards.
func TestWorkersRunConcurrently(t *testing.T) {
	db := syntheticDB(t)
	s, cl := testServer(t, db, Config{Workers: 4, QueueDepth: 8, SampleInterval: 10 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	subs := make([]client.SubmitResponse, 5)
	for i := range subs {
		var err error
		subs[i], err = cl.Submit(ctx, client.SubmitRequest{
			SQL: "select count(*) from t", Name: fmt.Sprintf("conc-%d", i), PaceMS: 4, KeepRows: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for {
		infos, err := cl.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		running, ended := 0, 0
		for _, info := range infos {
			if info.State == client.StateRunning {
				running++
			} else if info.State.Terminal() {
				ended++
			}
		}
		if running >= 2 {
			break
		}
		if ended == len(subs) {
			t.Fatal("every query ended without two ever listed running together")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for _, sub := range subs {
		lastPct, terminals := -1.0, 0
		var last client.ProgressEvent
		if err := cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
			if ev.Percent < lastPct {
				return fmt.Errorf("progress regressed: %.2f%% after %.2f%%", ev.Percent, lastPct)
			}
			lastPct = ev.Percent
			if ev.Terminal() {
				terminals++
			}
			last = ev
			return nil
		}); err != nil {
			t.Fatalf("stream %s: %v", sub.ID, err)
		}
		if terminals != 1 || last.State != client.StateDone {
			t.Fatalf("%s: %d terminal events, last state %s; want exactly one, last, done", sub.ID, terminals, last.State)
		}
		res, err := cl.Result(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0][0]) != "20000" {
			t.Fatalf("%s: count(*) = %v, want 20000", sub.ID, res.Rows)
		}
	}
	tsr, err := cl.Timeseries(ctx, client.TimeseriesRequest{WindowSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for _, series := range tsr.Series {
		if len(series.Points) > 0 {
			sampled++
		}
	}
	if sampled < 10 {
		t.Fatalf("%d series with sampled points, want >= 10", sampled)
	}
	s.Close()
	if err := db.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestResultAndList covers the data path: keep_rows materializes the
// result for fetching, listings carry lifecycle snapshots, and a late
// progress subscriber replays the full history including the terminal
// event.
func TestResultAndList(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sub, err := cl.Submit(ctx, client.SubmitRequest{
		SQL: "select k from t where k < 7", Name: "rows", KeepRows: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitState(t, cl, sub.ID, client.StateDone)
	if info.RowCount != 7 {
		t.Fatalf("row_count = %d", info.RowCount)
	}

	res, err := cl.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 7 || len(res.Rows) != 7 {
		t.Fatalf("result = %+v", res)
	}
	if res.Columns[0] != "t.k" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Rows[3][0].(float64) != 3 { // JSON numbers decode as float64
		t.Fatalf("row 3 = %v", res.Rows[3])
	}
	if res.VirtualSeconds <= 0 {
		t.Fatalf("virtual_seconds = %f", res.VirtualSeconds)
	}

	// Late subscriber: full replay ending in exactly one terminal event.
	var seqs []int
	terminals := 0
	if err := cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
		seqs = append(seqs, ev.Seq)
		if ev.Terminal() {
			terminals++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if terminals != 1 {
		t.Fatalf("late subscriber saw %d terminals", terminals)
	}
	for i, s := range seqs {
		if s != i+1 {
			t.Fatalf("replay seqs = %v, want 1..n", seqs)
		}
	}

	list, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != sub.ID || list[0].State != client.StateDone {
		t.Fatalf("list = %+v", list)
	}

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
}

// TestSubmitValidation covers the failure surface: bad bodies, unknown
// IDs, failing SQL, and result access before completion.
func TestSubmitValidation(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := cl.Submit(ctx, client.SubmitRequest{SQL: "   "}); err == nil {
		t.Fatal("empty sql must 400")
	}
	if _, err := cl.Get(ctx, "nope"); err == nil {
		t.Fatal("unknown id must 404")
	}
	if _, err := cl.Result(ctx, "nope"); err == nil {
		t.Fatal("unknown result must 404")
	}

	// A query that fails at plan time transitions to failed and keeps
	// its error.
	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from missing"})
	if err != nil {
		t.Fatal(err)
	}
	info := waitState(t, cl, sub.ID, client.StateFailed)
	if info.Error == "" {
		t.Fatal("failed query should carry its error")
	}
	if _, err := cl.Result(ctx, sub.ID); err == nil {
		t.Fatal("failed query has no result")
	}
	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "server_queries_failed_total 1") {
		t.Fatal("/metrics missing failed count")
	}
}

// TestCancelIdempotent: canceling twice (and canceling a done query) is
// safe and does not duplicate terminal events or metrics.
func TestCancelIdempotent(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t", PaceMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, sub.ID, client.StateRunning)
	for i := 0; i < 3; i++ {
		if _, err := cl.Cancel(ctx, sub.ID); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, cl, sub.ID, client.StateCanceled)
	if _, err := cl.Cancel(ctx, sub.ID); err != nil {
		t.Fatal(err) // canceling a terminal query is a no-op, not an error
	}

	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "server_queries_canceled_total 1") {
		t.Fatalf("cancellation should count once:\n%s", text)
	}

	terminals := 0
	if err := cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
		if ev.Terminal() {
			terminals++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if terminals != 1 {
		t.Fatalf("history holds %d terminal events, want 1", terminals)
	}
}
