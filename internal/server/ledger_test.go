package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"progressdb"
	"progressdb/client"
	"progressdb/internal/obs"
)

// stubEngine is an Engine whose queries cost nothing and end when the
// test says so, so ledger tests control every ending without pacing or
// sleeps: "ok" finishes at once; "hold" and "fail" wait for one token on
// release (or for cancellation) and then finish done / failed.
type stubEngine struct{ release chan struct{} }

func newStubEngine() stubEngine { return stubEngine{release: make(chan struct{})} }

func (e stubEngine) ExecQuery(ctx context.Context, sql string, keepRows bool, onProgress func(Progress)) (*progressdb.Result, error) {
	if sql != "ok" {
		select {
		case <-e.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if sql == "fail" {
		return nil, errors.New("stub: query failed")
	}
	return &progressdb.Result{Columns: []string{"c"}}, nil
}

func (stubEngine) Metrics() []obs.Sample                     { return nil }
func (stubEngine) Shards() int                               { return 1 }
func (stubEngine) EstimateCostU(sql string) (float64, error) { return 1, nil }

// stubServer starts a server over a stubEngine with no sampler.
func stubServer(t *testing.T, cfg Config) (*Server, stubEngine) {
	t.Helper()
	eng := newStubEngine()
	cfg.SampleInterval = -1
	s := NewEngine(eng, cfg)
	t.Cleanup(s.Close)
	return s, eng
}

// call drives one request through the handler in-process and decodes a
// JSON body into out when out is non-nil.
func call(t *testing.T, s *Server, method, path, body string, out interface{}) int {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewBufferString(body)))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: %d %q: %v", method, path, rec.Code, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// submitStub submits sql in-process and returns the admitted job.
func submitStub(t *testing.T, s *Server, sql string) *job {
	t.Helper()
	var resp client.SubmitResponse
	if code := call(t, s, "POST", "/queries", fmt.Sprintf(`{"sql":%q}`, sql), &resp); code != http.StatusAccepted {
		t.Fatalf("submit %q: status %d", sql, code)
	}
	j, ok := s.reg.get(resp.ID)
	if !ok {
		t.Fatalf("submitted %s is not in the ledger", resp.ID)
	}
	return j
}

// settle yields until the ledger holds exactly queued waiting and
// running executing jobs — every transition in these tests is already
// under way when it is called, so this waits on the event, not a clock.
func settle(t *testing.T, s *Server, queued, running int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		l := s.reg.load()
		if l.queued == queued && l.running == running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger stuck at %+v, want %d queued / %d running", l, queued, running)
		}
		runtime.Gosched()
	}
}

// TestRetentionBound: finished queries stay addressable HistoryDepth
// deep and no deeper — the listing, /queries/{id}, its result and its
// /api/history profile all forget a job at the same moment.
func TestRetentionBound(t *testing.T) {
	const depth, extra = 3, 4
	s, _ := stubServer(t, Config{HistoryDepth: depth})
	var ids []string
	for i := 0; i < depth+extra; i++ {
		ids = append(ids, submitStub(t, s, "ok").id)
		settle(t, s, 0, 0)
	}

	var listed []client.QueryInfo
	call(t, s, "GET", "/queries", "", &listed)
	if len(listed) != depth {
		t.Fatalf("GET /queries lists %d jobs, want the %d newest", len(listed), depth)
	}
	for i, qi := range listed {
		if want := ids[extra+i]; qi.ID != want || qi.State != client.StateDone {
			t.Fatalf("listing[%d] = %s %s, want %s done (submission order)", i, qi.ID, qi.State, want)
		}
	}
	for _, id := range ids[:extra] {
		for _, path := range []string{"/queries/" + id, "/queries/" + id + "/result", "/api/history/" + id} {
			if code := call(t, s, "GET", path, "", nil); code != http.StatusNotFound {
				t.Fatalf("GET %s = %d after %d newer queries ended, want 404", path, code, depth)
			}
		}
	}
	for _, id := range ids[extra:] {
		for _, path := range []string{"/queries/" + id, "/queries/" + id + "/result", "/api/history/" + id} {
			if code := call(t, s, "GET", path, "", nil); code != http.StatusOK {
				t.Fatalf("GET %s = %d, want 200 for a retained query", path, code)
			}
		}
	}
	if got := len(s.reg.jobs); got != depth {
		t.Fatalf("ledger holds %d jobs, want %d", got, depth)
	}
}

// TestEvictionKeepsNewestTerminalFirst: /api/history lists the retained
// profiles newest terminal first — by when a query ended, not when it
// was submitted — reports the ledger's bound as its capacity, and a
// profile evicted from the ring is gone from the listing too.
func TestEvictionKeepsNewestTerminalFirst(t *testing.T) {
	const depth = 3
	s, eng := stubServer(t, Config{Workers: 2, HistoryDepth: depth})
	held := submitStub(t, s, "hold") // q1 ends last of the first three
	settle(t, s, 0, 1)
	for i := 0; i < 2; i++ {
		submitStub(t, s, "ok")
		settle(t, s, 0, 1)
	}
	eng.release <- struct{}{}
	settle(t, s, 0, 0)

	history := func() client.HistoryResponse {
		var h client.HistoryResponse
		if code := call(t, s, "GET", "/api/history", "", &h); code != http.StatusOK {
			t.Fatalf("GET /api/history = %d", code)
		}
		return h
	}
	ids := func(h client.HistoryResponse) (out []string) {
		for _, p := range h.Profiles {
			out = append(out, p.ID)
		}
		return out
	}
	h := history()
	if got := ids(h); !slices.Equal(got, []string{held.id, "q3", "q2"}) {
		t.Fatalf("history = %v, want q1 (ended last) first, then q3, q2", got)
	}
	if h.Capacity != depth || h.Retained != depth {
		t.Fatalf("capacity %d retained %d, want %d of %d", h.Capacity, h.Retained, depth, depth)
	}

	for i := 0; i < 2; i++ { // q4, q5 push q2 and q3 out
		submitStub(t, s, "ok")
		settle(t, s, 0, 0)
	}
	h = history()
	if got := ids(h); !slices.Equal(got, []string{"q5", "q4", held.id}) || h.Retained != depth {
		t.Fatalf("history = %v (%d retained), want q5, q4, q1", got, h.Retained)
	}
	for _, id := range []string{"q2", "q3"} {
		if _, ok := s.reg.profile(id); ok {
			t.Fatalf("%s should have been evicted", id)
		}
	}
	if got := s.met.retained.Value(); got != depth {
		t.Fatalf("server_history_retained = %g, want %d", got, depth)
	}
}

// TestSubmitCostIsFlat: what one submit allocates does not grow with
// how many queries the server has ever run. The measured submits queue
// behind a held query, so each window is the handler and the ledger's
// admit alone, the same sequence of queue positions at both points; IDs
// have the same width at both points so the JSON bodies do too.
func TestSubmitCostIsFlat(t *testing.T) {
	const window = 16
	s, eng := stubServer(t, Config{QueueDepth: window + 1, HistoryDepth: 8})
	finished := 0
	finishUpTo := func(n int) {
		for ; finished < n; finished++ {
			submitStub(t, s, "ok")
			settle(t, s, 0, 0)
		}
	}
	// measure returns the cheapest of three windows of submits, in
	// mallocs and bytes: the minimum drops one-off growth (a slice
	// reaching its working capacity, a map rehash) and keeps whatever
	// every submit pays. The collector is off meanwhile, or a cycle
	// emptying the encoders' sync.Pools mid-window would be counted.
	measure := func() (mallocs, alloc uint64) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		mallocs, alloc = ^uint64(0), ^uint64(0)
		for rep := 0; rep < 3; rep++ {
			submitStub(t, s, "hold")
			settle(t, s, 0, 1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < window; i++ {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/queries", bytes.NewBufferString(`{"sql":"ok"}`)))
				if rec.Code != http.StatusAccepted {
					t.Fatalf("measured submit: status %d", rec.Code)
				}
			}
			runtime.ReadMemStats(&after)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
			eng.release <- struct{}{}
			settle(t, s, 0, 0)
			finished += window + 1
		}
		return mallocs, alloc
	}

	finishUpTo(1000)
	m1, b1 := measure()
	finishUpTo(6000)
	m2, b2 := measure()
	// Equal, but for what the race detector's sync.Pool drops at random:
	// under 2 mallocs and 256 B a submit. One pointer copied per job ever
	// run would be 40 000 B a submit here.
	if m2 > m1+2*window || b2 > b1+256*window {
		t.Fatalf("%d submits cost %d mallocs / %d B after 1 000 finished queries but %d mallocs / %d B after 6 000: submit cost grows with jobs ever run",
			window, m1, b1, m2, b2)
	}
	t.Logf("%d submits: %d mallocs / %d B after 1 000 finished queries, %d mallocs / %d B after 6 000", window, m1, b1, m2, b2)
}

// TestAccountBeforePublish: whoever has seen a query's terminal event
// finds it fully accounted — profile stored, outcome counted, in-flight
// gauge lowered — for every way a query can end. The subscriber checks
// the instant the event reaches it; nothing sleeps.
func TestAccountBeforePublish(t *testing.T) {
	type ending struct {
		name string
		cfg  Config
		sql  string
		// queued puts the job behind a held one, so it ends while
		// waiting for a worker.
		queued bool
		// end makes the job end once its subscriber is attached.
		end     func(s *Server, eng stubEngine, j *job)
		state   client.State
		counter func(m *metrics) *obs.Counter
	}
	cancel := func(s *Server, _ stubEngine, j *job) { s.reg.cancel(j, "canceled by test") }
	release := func(_ *Server, eng stubEngine, _ *job) { eng.release <- struct{}{} }
	drain := func(s *Server, _ stubEngine, _ *job) { s.Drain(time.Millisecond) }
	canceled := func(m *metrics) *obs.Counter { return m.canceled }
	endings := []ending{
		{name: "done", sql: "hold", end: release, state: client.StateDone,
			counter: func(m *metrics) *obs.Counter { return m.completed }},
		{name: "failed", sql: "fail", end: release, state: client.StateFailed,
			counter: func(m *metrics) *obs.Counter { return m.failed }},
		{name: "canceled while queued", sql: "hold", queued: true, end: cancel, state: client.StateCanceled, counter: canceled},
		{name: "canceled while running", sql: "hold", end: cancel, state: client.StateCanceled, counter: canceled},
		{name: "timed out", cfg: Config{QueryTimeout: 20 * time.Millisecond}, sql: "hold",
			end: func(*Server, stubEngine, *job) {}, state: client.StateFailed,
			counter: func(m *metrics) *obs.Counter { return m.timedout }},
		{name: "drain-forced while queued", sql: "hold", queued: true, end: drain, state: client.StateCanceled, counter: canceled},
		{name: "drain-forced while running", sql: "hold", end: drain, state: client.StateCanceled, counter: canceled},
	}
	for _, e := range endings {
		t.Run(e.name, func(t *testing.T) {
			s, eng := stubServer(t, e.cfg)
			others := 0 // live jobs that outlive the one watched
			if e.queued {
				submitStub(t, s, "hold")
				settle(t, s, 0, 1)
				others = 1
			}
			j := submitStub(t, s, e.sql)
			replay, sub, sid := j.subscribe()
			defer j.unsubscribe(sid)

			type seen struct {
				ev        client.ProgressEvent
				profiled  bool
				counted   int64
				inflightQ float64
			}
			got := make(chan seen, 1)
			go func() {
				evs := replay
				for {
					for _, ev := range evs {
						if ev.Terminal() {
							_, ok := s.reg.profile(j.id)
							got <- seen{ev, ok, e.counter(s.met).Value(), s.met.inflightQ.Value()}
							return
						}
					}
					var alive bool
					if evs, alive = sub.wait(context.Background()); !alive {
						return
					}
				}
			}()
			e.end(s, eng, j)

			var o seen
			select {
			case o = <-got:
			case <-time.After(30 * time.Second):
				t.Fatal("no terminal event")
			}
			if o.ev.State != e.state {
				t.Fatalf("terminal state %s (%s), want %s", o.ev.State, o.ev.Error, e.state)
			}
			if !o.profiled {
				t.Error("terminal event seen before the profile was stored")
			}
			// A drain ends the held neighbor the same way, before or after.
			if o.counted < 1 || o.counted > int64(1+others) {
				t.Errorf("terminal event seen with the outcome counter at %d, want this query counted", o.counted)
			}
			if o.inflightQ > float64(others) {
				t.Errorf("terminal event seen with server_inflight_queries at %g: the ended query is still counted beside the %d other", o.inflightQ, others)
			}
		})
	}
}
