package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"testing"
	"time"

	"progressdb"
	"progressdb/internal/workload"
)

// servedFile is the served path's count ledger: per benchmark statement,
// what one served query allocates and what writing one SSE event does.
// Rewrite it with: go test -run TestServedCountsGolden ./internal/server -args -rewrite
const servedFile = "../../BENCH_served.json"

// servedRuns is how many served queries allocs_per_query takes the
// median of, after servedWarm warm-up queries of the same statement —
// q5, a nested loop that takes a tenth of a second, runs q5Runs — and
// replayRuns how many replays of each kind allocs_per_event does.
const (
	servedRuns = 20
	q5Runs     = 5
	servedWarm = 3
	replayRuns = 20
)

// The served ledger's tolerances, per field, in either direction: a rise
// beyond one fails, and so does a fall, which must be committed. Twenty
// repeats of the test alone on a 2-core VM (go1.24.0) set them, at
// twice the widest spread seen:
//   - allocs_per_query spread by at most 4, on q1, the first statement,
//     so 8;
//   - allocs_per_event never moved, so the half an allocation that one
//     more allocation per replay of a two-event query makes.
const (
	servedQueryTol = 8
	servedEventTol = 0.5
)

// servedCounts is one statement's line in servedFile.
type servedCounts struct {
	Name string `json:"name"`
	// KeepRows is whether the query is submitted with keep_rows, as
	// bench/ submits it.
	KeepRows bool `json:"keep_rows"`
	// Events is how many SSE events one query publishes, terminal
	// included; exact.
	Events int `json:"events"`
	// AllocsPerQuery is the process's allocations per served query:
	// the submit, the run, and one subscriber's stream of its events,
	// read raw and discarded.
	AllocsPerQuery float64 `json:"allocs_per_query"`
	// AllocsPerEvent is what writing one event to a subscriber
	// allocates: the SSE handler's full replay of a finished query, in
	// process, less a replay whose Last-Event-ID has seen every event,
	// over the events.
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// TestServedCountsGolden pins what the served path allocates: each of
// workload.BenchStatements (serve_short's three among them) through a
// 2-worker server on httptest, at the counts engine's scale, with
// bench/'s indexes and refresh period and no sampler or keep-alive. It
// reads no wall time, and is skipped under -race, where allocation
// counts do not repeat.
func TestServedCountsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under -race")
	}
	db := progressdb.Open(progressdb.Config{WorkMemPages: 2048, ProgressUpdateSeconds: 1, Metrics: true})
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	for _, ix := range workload.BenchIndexes {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{Workers: 2, SampleInterval: -1, KeepAlive: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	hc := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(hc.CloseIdleConnections)
	buf := make([]byte, 32<<10)
	// do sends one request and discards its body.
	do := func(req *http.Request) {
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				break
			}
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: %d", req.Method, req.URL.Path, resp.StatusCode)
		}
	}
	// A collection empties the sync.Pools that net/http draws its
	// buffers from, and the refills would land at random in the counts:
	// nothing is collected while the test counts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	n := 0
	// serve submits one query, waits for it to end and streams its
	// events, returning its id. The stream is read after the end, so
	// what it allocates does not hang on how live events batch into
	// the subscriber's wakes.
	serve := func(body []byte) string {
		req, _ := http.NewRequest("POST", ts.URL+"/queries", bytes.NewReader(body))
		do(req)
		n++
		id := "q" + strconv.Itoa(n)
		for j, _ := s.reg.get(id); !j.currentState().Terminal(); {
			time.Sleep(100 * time.Microsecond)
		}
		req, _ = http.NewRequest("GET", ts.URL+"/queries/"+id+"/progress", nil)
		do(req)
		return id
	}
	// replay counts what the handler allocates to stream id's finished
	// progress, in process, with Last-Event-ID set when seen > 0.
	replay := func(id string, seen int) float64 {
		req := httptest.NewRequest("GET", "/queries/"+id+"/progress", nil)
		if seen > 0 {
			req.Header.Set("Last-Event-ID", strconv.Itoa(seen))
		}
		w := discardWriter{}
		before := mallocs()
		s.Handler().ServeHTTP(w, req)
		return float64(mallocs() - before)
	}

	var got []servedCounts
	for i, st := range workload.BenchStatements {
		// serve_short's two lookups keep their rows; everything else
		// streams progress only, as bench/ runs it.
		c := servedCounts{Name: st.Name, KeepRows: i >= workload.Mix9 && st.Name != "subset"}
		body, err := json.Marshal(map[string]any{"sql": st.SQL, "name": st.Name, "keep_rows": c.KeepRows})
		if err != nil {
			t.Fatal(err)
		}
		var id string
		for range servedWarm {
			id = serve(body)
		}
		runs := servedRuns
		if st.Name == "q5" {
			runs = q5Runs
		}
		var perQuery []float64
		for range runs {
			before := mallocs()
			id = serve(body)
			perQuery = append(perQuery, float64(mallocs()-before))
		}
		c.AllocsPerQuery = median(perQuery)
		j, ok := s.reg.get(id)
		if !ok {
			t.Fatalf("%s: %s not retained", st.Name, id)
		}
		j.mu.Lock()
		c.Events = len(j.history)
		j.mu.Unlock()
		var perEvent []float64
		for range replayRuns {
			perEvent = append(perEvent, (replay(id, 0)-replay(id, c.Events))/float64(c.Events))
		}
		c.AllocsPerEvent = median(perEvent)
		t.Logf("%s: %d events, %.1f allocs/query, %.1f allocs/event", c.Name, c.Events, c.AllocsPerQuery, c.AllocsPerEvent)
		got = append(got, c)
	}

	var want []servedCounts
	raw, err := os.ReadFile(servedFile)
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err = dec.Decode(&want); err != nil {
			err = fmt.Errorf("%s: %w", servedFile, err)
		}
	}
	if *rewriteGolden {
		// A figure still within its tolerance of the committed one keeps
		// the committed one, so a rewrite's diff shows only what moved.
		for i := range got {
			if i < len(want) && want[i].Name == got[i].Name {
				for _, f := range servedFields(&got[i], want[i]) {
					if math.Abs(*f.got-f.was) <= f.tol {
						*f.got = f.was
					}
				}
			}
		}
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(servedFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v; rewrite with: go test -run TestServedCountsGolden ./internal/server -args -rewrite", err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d entries, the test makes %d", servedFile, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name || g.KeepRows != w.KeepRows {
			t.Fatalf("entry %d is %s (keep_rows %v), committed %s (keep_rows %v)", i, g.Name, g.KeepRows, w.Name, w.KeepRows)
		}
		if g.Events != w.Events {
			t.Errorf("%s: events %d, committed %d", g.Name, g.Events, w.Events)
		}
		for _, f := range servedFields(&got[i], w) {
			switch {
			case *f.got > f.was+f.tol:
				t.Errorf("%s: %s %.1f, committed %.1f: rose by more than %g", g.Name, f.name, *f.got, f.was, f.tol)
			case *f.got < f.was-f.tol:
				t.Errorf("%s: %s %.1f, committed %.1f: fell by more than %g; commit the fall with: go test -run TestServedCountsGolden ./internal/server -args -rewrite",
					g.Name, f.name, *f.got, f.was, f.tol)
			}
		}
	}
}

// servedField is one allocation figure of a measured entry, beside the
// committed figure and the tolerance between the two.
type servedField struct {
	name     string
	got      *float64
	was, tol float64
}

// servedFields lists g's allocation figures beside w's.
func servedFields(g *servedCounts, w servedCounts) []servedField {
	return []servedField{
		{"allocs_per_query", &g.AllocsPerQuery, w.AllocsPerQuery, servedQueryTol},
		{"allocs_per_event", &g.AllocsPerEvent, w.AllocsPerEvent, servedEventTol},
	}
}

// discardWriter is an http.ResponseWriter that streams into nothing.
type discardWriter struct{}

func (discardWriter) Header() http.Header         { return http.Header{} }
func (discardWriter) WriteHeader(int)             {}
func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) Flush()                      {}

// median returns the middle of xs (the mean of the middle two for an
// even count), rounded to one decimal: a count that a stray refill of a
// runtime cache lands in now and then does not move it.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
	return math.Round(m*10) / 10
}
