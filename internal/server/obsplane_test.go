package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"progressdb"
	"progressdb/client"
	"progressdb/internal/obs/tsdb"
)

// smallDB is syntheticDB at 1/10 size, for tests that run many queries.
func smallDB(t testing.TB) *progressdb.DB {
	t.Helper()
	db := progressdb.Open(progressdb.Config{
		ProgressUpdateSeconds: 0.25,
		SpeedWindowSeconds:    1,
		SeqPageCost:           0.05,
		BufferPoolPages:       64,
		Metrics:               true,
	})
	db.MustCreateTable("t", progressdb.Col("k", progressdb.Int), progressdb.Col("pad", progressdb.Text))
	pad := strings.Repeat("x", 100)
	for i := 0; i < 2000; i++ {
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

// TestHistoryProfileMatchesLiveSSE is the plane's core acceptance
// check: a completed query's retained profile must reproduce, event for
// event, the exact progress curve a live SSE subscriber saw — same
// sequence numbers, same DoneU/Percent figures, monotone, terminal
// event last.
func TestHistoryProfileMatchesLiveSSE(t *testing.T) {
	db := syntheticDB(t)
	_, cl := testServer(t, db, Config{SampleInterval: -1, KeepAlive: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t where k < 15000", Name: "acc"})
	if err != nil {
		t.Fatal(err)
	}
	var live []client.ProgressEvent
	if err := cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
		live = append(live, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(live) < 3 {
		t.Fatalf("only %d live events; need a multi-refresh query", len(live))
	}
	if got := live[len(live)-1].State; got != client.StateDone {
		t.Fatalf("terminal state = %s, want done", got)
	}

	prof, err := cl.HistoryProfile(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prof.Events, live) {
		t.Fatalf("retained event ledger diverges from the live SSE stream:\nlive:     %+v\nretained: %+v", live, prof.Events)
	}
	// The replayed curve must be monotone in DoneU and elapsed time.
	for i := 1; i < len(prof.Events); i++ {
		if prof.Events[i].DoneU < prof.Events[i-1].DoneU {
			t.Fatalf("DoneU regressed at event %d: %g -> %g", i, prof.Events[i-1].DoneU, prof.Events[i].DoneU)
		}
		if prof.Events[i].ElapsedSeconds < prof.Events[i-1].ElapsedSeconds {
			t.Fatalf("ElapsedSeconds regressed at event %d", i)
		}
	}
	if len(prof.Segments) == 0 {
		t.Fatal("done profile has no segment ledger")
	}
	for _, seg := range prof.Segments {
		if !seg.Done {
			t.Fatalf("segment %d not marked done in a completed query", seg.Index)
		}
		if seg.EndSeconds < seg.StartSeconds {
			t.Fatalf("segment %d spans backwards", seg.Index)
		}
	}
	// Non-terminal refreshes must each carry a remaining-time score.
	if got, want := len(prof.RemainingQError), len(live)-1; got != want {
		t.Fatalf("len(RemainingQError) = %d, want %d (one per non-terminal event)", got, want)
	}
	// The listing must surface the same query, newest first.
	hr, err := cl.History(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Retained != 1 || hr.Profiles[0].ID != sub.ID {
		t.Fatalf("history listing = %+v, want exactly %s", hr, sub.ID)
	}
	if hr.Profiles[0].Events != len(live) {
		t.Fatalf("summary events = %d, want %d", hr.Profiles[0].Events, len(live))
	}
}

// TestTimeseriesWindowedDownsampled drives the sampler on virtual
// timestamps (the wall-clock sampler is disabled) and asserts the
// /api/timeseries contract: ≥10 distinct engine_*/server_* series with
// windowed points, and a downsample budget that is actually enforced.
func TestTimeseriesWindowedDownsampled(t *testing.T) {
	db := smallDB(t)
	s, cl := testServer(t, db, Config{SampleInterval: -1, KeepAlive: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Stream(ctx, sub.ID, func(client.ProgressEvent) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		s.sampleOnce(float64(i))
	}

	resp, err := cl.Timeseries(ctx, client.TimeseriesRequest{WindowSeconds: 100, MaxPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Now != 59 {
		t.Fatalf("now = %g, want 59 (the last virtual sample)", resp.Now)
	}
	engine, server := 0, 0
	for _, sr := range resp.Series {
		if len(sr.Points) == 0 {
			continue
		}
		if len(sr.Points) > 10 {
			t.Fatalf("series %s has %d points, budget was 10", sr.Name, len(sr.Points))
		}
		switch {
		case tsdb.HasPrefix(sr.Name, "engine_"):
			engine++
		case tsdb.HasPrefix(sr.Name, "server_"):
			server++
		}
	}
	if engine+server < 10 {
		t.Fatalf("engine_*+server_* series with data = %d+%d, want >= 10", engine, server)
	}
	if engine == 0 || server == 0 {
		t.Fatalf("want both engine (%d) and server (%d) series", engine, server)
	}

	// Window restriction: a window covering only the tail excludes the
	// early samples.
	tail, err := cl.Timeseries(ctx, client.TimeseriesRequest{
		Metrics:       []string{"vclock_seconds"},
		WindowSeconds: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Series) != 1 {
		t.Fatalf("metrics filter returned %d series, want 1", len(tail.Series))
	}
	for _, p := range tail.Series[0].Points {
		if p.T < 50 {
			t.Fatalf("point at t=%g leaked into a [50,59] window", p.T)
		}
	}
	if n := len(tail.Series[0].Points); n != 10 {
		t.Fatalf("tail window has %d points, want 10", n)
	}

	// Bad parameters are rejected.
	for _, path := range []string{"window=-1", "points=zero"} {
		hresp, err := http.Get(cl.BaseURL() + "/api/timeseries?" + path)
		if err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET ?%s = %d, want 400", path, hresp.StatusCode)
		}
	}
}

// TestSSEKeepAlivePing stalls a paced query between refreshes and
// asserts the raw SSE stream carries `: ping` comment lines while idle —
// and that the Go client's Stream keeps working straight through them.
func TestSSEKeepAlivePing(t *testing.T) {
	db := syntheticDB(t)
	s, cl := testServer(t, db, Config{SampleInterval: -1, KeepAlive: 25 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// pace_ms=2000 stalls the stream for 2 s after the first refresh —
	// two orders of magnitude past the keep-alive interval.
	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t", PaceMS: 2000})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL()+"/queries/"+sub.ID+"/progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	pings, events := 0, 0
	for sc.Scan() && pings < 3 {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ": ping"):
			pings++
		case strings.HasPrefix(line, "data:"):
			events++
		}
	}
	if pings < 3 {
		t.Fatalf("saw %d keep-alive pings on a stalled stream, want >= 3 (events seen: %d)", pings, events)
	}

	// The typed client must be ping-transparent: cancel the stalled query
	// and stream to the terminal event without parse errors.
	done := make(chan error, 1)
	go func() {
		done <- cl.Stream(ctx, sub.ID, func(client.ProgressEvent) error { return nil })
	}()
	if _, err := cl.Cancel(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("client stream through pings: %v", err)
	}
	waitState(t, cl, sub.ID, client.StateCanceled)
	if got := s.met.pings.Value(); got < 3 {
		t.Fatalf("server_sse_keepalives_total = %d, want >= 3", got)
	}
}

// TestHistoryConcurrentTrafficRace runs many queries to terminal states
// while concurrent clients page the history API — the -race coverage for
// the capture path. Afterwards the bounded store must hold the newest
// terminal profiles in order, each replaying a monotone DoneU curve.
func TestHistoryConcurrentTrafficRace(t *testing.T) {
	db := smallDB(t)
	_, cl := testServer(t, db, Config{
		QueueDepth:     32,
		HistoryDepth:   4,
		SampleInterval: -1,
		KeepAlive:      -1,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const queries = 12
	ids := make([]string, 0, queries)
	for i := 0; i < queries; i++ {
		sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select count(*) from t", Name: fmt.Sprintf("n%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}

	// M clients page the listing and fetch profiles while the queries
	// drain; invariants checked under -race.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for m := 0; m < 4; m++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hr, err := cl.History(ctx, "", 0)
				if err != nil {
					t.Error(err)
					return
				}
				if hr.Retained > hr.Capacity {
					t.Errorf("retained %d > capacity %d", hr.Retained, hr.Capacity)
					return
				}
				for _, sum := range hr.Profiles {
					if !sum.State.Terminal() {
						t.Errorf("history listed non-terminal state %s", sum.State)
						return
					}
					// Eviction may race the fetch; a 404 is legal here.
					if p, err := cl.HistoryProfile(ctx, sum.ID); err == nil {
						for i := 1; i < len(p.Events); i++ {
							if p.Events[i].DoneU < p.Events[i-1].DoneU {
								t.Errorf("profile %s: DoneU regressed", sum.ID)
								return
							}
						}
					}
				}
			}
		}()
	}

	// The one worker runs them in submission order, so the last one done
	// means all done; the first eight are no longer addressable by then
	// (HistoryDepth 4 bounds /queries/{id} like it bounds /api/history).
	waitState(t, cl, ids[len(ids)-1], client.StateDone)
	close(stop)
	readers.Wait()

	hr, err := cl.History(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Retained != 4 {
		t.Fatalf("retained = %d, want the HistoryDepth bound of 4", hr.Retained)
	}
	// Newest-terminal-first: the retained set is the last four to finish,
	// in reverse finish order (FinishedAtMS non-increasing breaks ties by
	// capture order, which the single worker makes strict).
	for i := 1; i < len(hr.Profiles); i++ {
		if hr.Profiles[i].FinishedAtMS > hr.Profiles[i-1].FinishedAtMS {
			t.Fatalf("listing not newest-first at %d: %+v", i, hr.Profiles)
		}
	}
	want := map[string]bool{}
	for _, id := range ids[len(ids)-4:] {
		want[id] = true
	}
	for _, sum := range hr.Profiles {
		if !want[sum.ID] {
			t.Fatalf("retained %s, want only the newest four %v", sum.ID, ids[len(ids)-4:])
		}
	}
}

// TestDashboardAndDebugSurface fetches the two surfaces no client method
// reaches: the embedded dashboard page at / and the handler progressd
// mounts on -debug-addr.
func TestDashboardAndDebugSurface(t *testing.T) {
	_, cl := testServer(t, progressdb.Open(progressdb.Config{}), Config{SampleInterval: -1})
	debug := httptest.NewServer(DebugHandler())
	defer debug.Close()
	for _, c := range []struct{ url, want string }{
		{cl.BaseURL() + "/", "<title>progressd</title>"},
		{debug.URL + "/debug/pprof/cmdline", ""},
		{debug.URL + "/debug/runtime", "/gc/"},
	} {
		resp, err := http.Get(c.url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), c.want) {
			t.Errorf("GET %s = %d, body lacks %q", c.url, resp.StatusCode, c.want)
		}
	}
}
