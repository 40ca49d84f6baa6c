package tsdb

import (
	"math"
	"sync"
	"testing"

	"progressdb/internal/obs"
)

func sampleSet(reg *obs.Registry) []obs.Sample { return reg.Snapshot() }

func TestRecordAndQueryWindow(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("engine_queries_total", "queries")
	g := reg.Gauge("server_queue_depth", "depth")

	st := New(16)
	for i := 0; i < 10; i++ {
		c.Inc()
		g.Set(float64(i * 2))
		st.Record(float64(i), sampleSet(reg))
	}

	// A non-finite reading is a gap, not a point.
	g.Set(math.Inf(1))
	st.Record(5.5, sampleSet(reg))

	got := st.Query([]string{"server_queue_depth"}, 3, 7, 0)
	if len(got) != 1 {
		t.Fatalf("series = %d, want 1", len(got))
	}
	pts := got[0].Points
	if len(pts) != 5 {
		t.Fatalf("windowed points = %d, want 5 (t=3..7)", len(pts))
	}
	for i, p := range pts {
		wantT := float64(3 + i)
		if p.T != wantT || p.V != wantT*2 {
			t.Fatalf("point %d = (%g,%g), want (%g,%g)", i, p.T, p.V, wantT, wantT*2)
		}
	}
}

func TestRingEvictsOldest(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("server_queue_depth", "depth")
	st := New(4)
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		st.Record(float64(i), sampleSet(reg))
	}
	got := st.Query(nil, math.Inf(-1), math.Inf(1), 0)
	if len(got) != 1 {
		t.Fatalf("series = %d, want 1", len(got))
	}
	pts := got[0].Points
	if len(pts) != 4 {
		t.Fatalf("ring kept %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if want := float64(6 + i); p.T != want {
			t.Fatalf("point %d at t=%g, want %g (oldest must be evicted)", i, p.T, want)
		}
	}
}

func TestDownsampleBudget(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("server_queue_depth", "depth")
	st := New(256)
	for i := 0; i < 100; i++ {
		g.Set(float64(i))
		st.Record(float64(i), sampleSet(reg))
	}
	got := st.Query(nil, 0, 99, 10)
	pts := got[0].Points
	if len(pts) == 0 || len(pts) > 10 {
		t.Fatalf("downsampled to %d points, want 1..10", len(pts))
	}
	// Bucket means of a strictly increasing gauge stay strictly increasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].V <= pts[i-1].V || pts[i].T <= pts[i-1].T {
			t.Fatalf("downsampled points not increasing: %+v", pts)
		}
	}
}

func TestHistogramDerivedSeries(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("server_query_wall_seconds", "wall", []float64{1, 10})
	st := New(8)
	h.Observe(0.5)
	h.Observe(5)
	st.Record(1, sampleSet(reg))
	names := st.Names()
	want := []string{"server_query_wall_seconds_count", "server_query_wall_seconds_sum"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("names = %v, want %v", names, want)
	}
	got := st.Query([]string{"server_query_wall_seconds_count"}, 0, 2, 0)
	if got[0].Points[0].V != 2 {
		t.Fatalf("histogram count sample = %g, want 2", got[0].Points[0].V)
	}
}

func TestLabeledSeriesKeepIdentity(t *testing.T) {
	reg := obs.NewRegistry()
	reg.LabeledGauge("vclock_units", "kind", "cpu", "units").Set(3)
	reg.LabeledGauge("vclock_units", "kind", "seq-io", "units").Set(7)
	st := New(8)
	st.Record(0, sampleSet(reg))
	if got := len(st.Names()); got != 2 {
		t.Fatalf("labeled series = %d, want 2 (%v)", got, st.Names())
	}
	if !HasPrefix(`vclock_units{kind="cpu"}`, "vclock_") {
		t.Fatal("HasPrefix must strip the label part")
	}
}

func TestUnknownSeriesOmitted(t *testing.T) {
	st := New(8)
	if got := st.Query([]string{"server_nonexistent_total"}, 0, 1, 0); len(got) != 0 {
		t.Fatalf("unknown series returned %v, want none", got)
	}
}

// TestConcurrentRecordQuery exercises the sampler-vs-readers locking
// under the race detector.
func TestConcurrentRecordQuery(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("engine_queries_total", "queries")
	st := New(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st.Query(nil, math.Inf(-1), math.Inf(1), 16)
					st.Names()
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		c.Inc()
		st.Record(float64(i), sampleSet(reg))
	}
	close(stop)
	wg.Wait()
}

func TestRefIsIdentity(t *testing.T) {
	if Ref("server_queue_depth") != "server_queue_depth" {
		t.Fatal("Ref must be the identity function")
	}
}
