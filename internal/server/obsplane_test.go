package server

import (
	"bufio"
	"context"
	"errors"
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
	"progressdb/internal/fleet"
	"progressdb/internal/obs/tsdb"
	"progressdb/internal/workload"
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
	if prof.Plan == nil || len(prof.Plan.Segments) == 0 {
		t.Fatal("done profile has no segment ledger")
	}
	for _, seg := range prof.Plan.Segments {
		if !seg.Done {
			t.Fatalf("segment %d not marked done in a completed query", seg.ID)
		}
		if seg.EndT < seg.StartT {
			t.Fatalf("segment %d spans backwards", seg.ID)
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

// TestProfileQErrors pins the history profile's remaining-time q-errors:
// max(est/actual, actual/est), and -1 where the remaining time is
// unknown. The segments' q-errors are the indicator's
// (TestSegmentReportQError in internal/core).
func TestProfileQErrors(t *testing.T) {
	j := &job{state: client.StateDone, res: &progressdb.Result{VirtualSeconds: 10},
		history: []client.ProgressEvent{
			{ElapsedSeconds: 0, RemainingSeconds: -1},
			{ElapsedSeconds: 2, RemainingSeconds: 2},
			{ElapsedSeconds: 5, RemainingSeconds: 5},
			{ElapsedSeconds: 10, State: client.StateDone},
		}}
	p := j.profileLocked()
	if p.Plan != nil {
		t.Errorf("a result without segments gave the profile a plan: %+v", p.Plan)
	}
	if want := []float64{-1, 4, 1}; !reflect.DeepEqual(p.RemainingQError, want) {
		t.Errorf("remaining-time q-errors %v, want %v", p.RemainingQError, want)
	}
}

// TestObsListsResolve: every series the dashboard config serves for its
// sparklines and heatmap, or a profile attributes, exists once a server
// has run a query and sampled, on one engine and on a 2-shard fleet with
// metrics on — a misspelled entry would be a forever-empty panel. A
// histogram resolves through its _count/_sum series, as the store
// records it. The merged /metrics page must list every series once.
func TestObsListsResolve(t *testing.T) {
	f, err := fleet.New(fleet.Config{Shards: 2, Shard: progressdb.Config{Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CreateTable("t", "k", progressdb.Col("k", progressdb.Int)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := f.Insert("t", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	db := smallDB(t)
	for _, tc := range []struct {
		name   string
		s      *Server
		shards int // heatmap series the config must serve
	}{
		{"engine", New(db, Config{SampleInterval: -1, KeepAlive: -1}), 0},
		{"fleet", NewFleet(f, Config{SampleInterval: -1, KeepAlive: -1}), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.s.Handler())
			t.Cleanup(func() {
				tc.s.Close()
				ts.Close()
			})
			cl := client.New(ts.URL)
			ctx := context.Background()
			sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select count(*) from t"})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, cl, sub.ID, client.StateDone)
			tc.s.sampleOnce(1)

			var dash client.DashboardConfig
			if err := getJSON(t, ts.URL+"/api/dashboard/config", &dash); err != nil {
				t.Fatal(err)
			}
			have := map[string]bool{}
			for _, id := range tc.s.ts.Names() {
				have[id] = true
			}
			if len(dash.ShardSeries) != tc.shards {
				t.Errorf("config serves %d shard series %v, want %d", len(dash.ShardSeries), dash.ShardSeries, tc.shards)
			}
			for _, id := range append(dash.SparklineSeries, dash.ShardSeries...) {
				if !have[id] {
					t.Errorf("series %s is listed but nothing registers it", id)
				}
			}

			text, err := cl.MetricsText(ctx)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
				if strings.HasPrefix(line, "#") {
					continue
				}
				series := line[:strings.LastIndexByte(line, ' ')]
				if seen[series] {
					t.Errorf("/metrics lists %s twice", series)
				}
				seen[series] = true
			}
			if len(seen) == 0 {
				t.Fatal("empty /metrics page")
			}
		})
	}
}

// TestProfilePlanMatchesInProcess: the history profile carries the plan
// report the engine made, as it is. Every benchmark statement, served by
// one engine, leaves a profile whose plan and storage counts decode to
// exactly the Result.Plan of the same statement run in process on a twin
// engine, and names every operator. A 2-shard fleet's profile has no
// plan.
func TestProfilePlanMatchesInProcess(t *testing.T) {
	open := func() *progressdb.DB {
		db := progressdb.Open(progressdb.Config{ProgressUpdateSeconds: 0.25})
		err := db.LoadPaperWorkload(0.002, false)
		for _, ix := range workload.BenchIndexes {
			err = errors.Join(err, db.CreateIndex(ix[0], ix[1]))
		}
		if err = errors.Join(err, db.Analyze()); err != nil {
			t.Fatal(err)
		}
		return db
	}
	served, local := open(), open()
	_, cl := testServer(t, served, Config{SampleInterval: -1, KeepAlive: -1})
	ctx := context.Background()
	for _, st := range workload.BenchStatements {
		want, err := local.ExecDiscard(st.SQL, nil)
		if err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: st.SQL, Name: st.Name})
		if err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		waitState(t, cl, sub.ID, client.StateDone)
		prof, err := cl.HistoryProfile(ctx, sub.ID)
		if err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		switch {
		case prof.Plan == nil || len(prof.Plan.Operators) == 0 || prof.IO == nil:
			t.Errorf("%s: profile plan %+v and counts %+v, want segments, operators and counts", st.Name, prof.Plan, prof.IO)
		default:
			got := *prof.Plan
			got.IO = *prof.IO
			if !reflect.DeepEqual(got, want.Plan) {
				t.Errorf("%s: the profile's plan and counts\n%+v\nare not the in-process Result.Plan\n%+v", st.Name, got, want.Plan)
			}
		}
	}

	f, err := fleet.New(fleet.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = f.CreateTable("t", "k", progressdb.Col("k", progressdb.Int))
	for k := range 100 {
		err = errors.Join(err, f.Insert("t", int64(k)))
	}
	if err = errors.Join(err, f.Analyze()); err != nil {
		t.Fatal(err)
	}
	s := NewFleet(f, Config{Workers: 1, SampleInterval: -1, KeepAlive: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	fcl := client.New(ts.URL)
	sub, err := fcl.Submit(ctx, client.SubmitRequest{SQL: "select * from t"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, fcl, sub.ID, client.StateDone)
	prof, err := fcl.HistoryProfile(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Plan != nil {
		t.Errorf("a fleet's profile has a plan: %+v", prof.Plan)
	}
}
