package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	// The same name from the same call site returns the same instrument.
	var cs [2]*Counter
	for i := range cs {
		cs[i] = r.Counter("exec_widgets_total", "number of widgets")
	}
	if cs[0] != cs[1] {
		t.Fatalf("re-registration returned a different counter")
	}
	c := cs[0]
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("server_depth", "current depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestLabeledCounters(t *testing.T) {
	r := NewRegistry()
	a := r.LabeledCounter("exec_rows_total", "op", "scan", "rows by operator")
	b := r.LabeledCounter("exec_rows_total", "op", "join", "rows by operator")
	if a == b {
		t.Fatalf("distinct labels share an instrument")
	}
	a.Add(10)
	b.Add(20)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d samples, want 2", len(snap))
	}
	if snap[0].ID() != `exec_rows_total{op="join"}` || snap[0].Value != 20 {
		t.Fatalf("sample 0 = %s %g", snap[0].ID(), snap[0].Value)
	}
	if snap[1].ID() != `exec_rows_total{op="scan"}` || snap[1].Value != 10 {
		t.Fatalf("sample 1 = %s %g", snap[1].ID(), snap[1].Value)
	}
}

// TestSnapshotSortedWhateverTheRegistrationOrder: the registry keeps its
// series in ID order as they register, so a snapshot, which does not
// sort, comes out sorted for any order of registration — names that
// prefix one another and labelled series included.
func TestSnapshotSortedWhateverTheRegistrationOrder(t *testing.T) {
	type series struct{ name, op string }
	var all []series
	for _, name := range []string{"exec_a", "exec_a_total", "exec_ab", "exec_rows", "exec_rows_total", "exec_rows_totalx", "server_z"} {
		all = append(all, series{name: name})
	}
	for _, op := range []string{"join", "scan", "sort"} {
		all = append(all, series{"exec_rows", op}, series{"exec_rows_total", op})
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		r := NewRegistry()
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		var want []string
		for i, s := range all {
			switch {
			case s.op != "":
				r.LabeledCounter(s.name, "op", s.op, "")
				want = append(want, seriesID(s.name, "op", s.op))
				continue
			case i%3 == 0:
				r.Gauge(s.name, "")
			case i%3 == 1:
				r.Histogram(s.name, "", []float64{1})
			default:
				r.Counter(s.name, "")
			}
			want = append(want, s.name)
		}
		slices.Sort(want)
		var got []string
		for _, sm := range r.Snapshot() {
			got = append(got, sm.ID())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: snapshot order\n%v\nwant\n%v", round, got, want)
		}
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("server_latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %g, want 56.05", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d samples", len(snap))
	}
	want := []Bucket{{0.1, 1}, {1, 3}, {10, 4}, {math.Inf(1), 5}}
	got := snap[0].Buckets
	if len(got) != len(want) {
		t.Fatalf("buckets = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestNilSafety is the "statistics collection flag off" contract: every
// instrument and registry method must no-op on nil receivers.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("exec_x_total", "")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("exec_y", "")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := r.Histogram("exec_z", "", []float64{1})
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram observed something")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	if got := r.PrometheusText(); got != "" {
		t.Fatalf("nil registry renders %q", got)
	}
}

// TestPrometheusRoundTrip renders a mixed registry to the text format and
// parses it back, requiring every series to survive unchanged — the
// acceptance criterion's round-trip.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("bufferpool_hits_total", "buffer pool hits").Add(1234)
	r.Counter("bufferpool_misses_total", "buffer pool misses").Add(56)
	r.LabeledCounter("exec_rows_out_total", "op", "seqscan", "rows emitted per operator").Add(9)
	r.LabeledCounter("exec_rows_out_total", "op", "hashjoin", "rows emitted per operator").Add(7)
	r.Gauge("indicator_segment_p", "dominant-input fraction").Set(0.625)
	h := r.Histogram("progress_refresh_u", "estimated U at refresh", []float64{10, 100, 1000})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	text := r.PrometheusText()
	parsed, err := ParsePrometheusText(text)
	if err != nil {
		t.Fatalf("parse: %v\ntext:\n%s", err, text)
	}
	orig := r.Snapshot()
	if len(parsed) != len(orig) {
		t.Fatalf("parsed %d series, want %d\ntext:\n%s", len(parsed), len(orig), text)
	}
	for i := range orig {
		o, p := orig[i], parsed[i]
		if o.ID() != p.ID() || o.Kind != p.Kind {
			t.Fatalf("series %d: got %s (%s), want %s (%s)", i, p.ID(), p.Kind, o.ID(), o.Kind)
		}
		if o.Value != p.Value || o.Count != p.Count || o.Sum != p.Sum {
			t.Fatalf("series %s: got value=%g count=%d sum=%g, want value=%g count=%d sum=%g",
				o.ID(), p.Value, p.Count, p.Sum, o.Value, o.Count, o.Sum)
		}
		if len(o.Buckets) != len(p.Buckets) {
			t.Fatalf("series %s: %d buckets, want %d", o.ID(), len(p.Buckets), len(o.Buckets))
		}
		for j := range o.Buckets {
			ob, pb := o.Buckets[j], p.Buckets[j]
			if ob.Count != pb.Count || (ob.LE != pb.LE && !(math.IsInf(ob.LE, 1) && math.IsInf(pb.LE, 1))) {
				t.Fatalf("series %s bucket %d: got %+v, want %+v", o.ID(), j, pb, ob)
			}
		}
	}
	// Text must re-render identically from the parsed samples (except
	// HELP lines, which the renderer re-groups identically anyway).
	if re := FormatPrometheusText(parsed); re != text {
		t.Fatalf("re-render differs:\n--- original\n%s\n--- re-rendered\n%s", text, re)
	}
}

func TestPrometheusTextShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_q_total", "queries run").Inc()
	text := r.PrometheusText()
	for _, want := range []string{"# HELP engine_q_total queries run", "# TYPE engine_q_total counter", "engine_q_total 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_a_total", "").Add(3)
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back []Sample
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back) != 1 || back[0].Name != "engine_a_total" || back[0].Value != 3 {
		t.Fatalf("round-trip = %+v", back)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("engine_n_total", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

// TestRegistryNameRules: the registry enforces the namespace at
// registration. A malformed name, an unknown subsystem and a second
// call site for an unlabeled name panic; one call site registering
// again, and a labeled family registered from several sites, do not.
func TestRegistryNameRules(t *testing.T) {
	cases := []struct {
		name      string
		wantPanic string
		register  func(r *Registry)
	}{
		{"camelCase", "not snake_case", func(r *Registry) {
			r.Counter("exec_rowsOut_total", "")
		}},
		{"unknown prefix", "known subsystem prefix", func(r *Registry) {
			r.Counter("queries_total", "")
		}},
		{"second call site", "already registered at", func(r *Registry) {
			r.Counter("exec_dup_total", "first site")
			r.Counter("exec_dup_total", "second site")
		}},
		{"second call site, histogram", "already registered at", func(r *Registry) {
			r.Histogram("exec_dup_seconds", "", []float64{1})
			r.Histogram("exec_dup_seconds", "", []float64{1})
		}},
		{"same call site twice", "", func(r *Registry) {
			for _, reg := range []*Registry{r, r, NewRegistry()} {
				reg.Counter("exec_once_total", "").Inc()
			}
		}},
		{"labeled family from two sites", "", func(r *Registry) {
			r.LabeledCounter("exec_rows_out_total", "op", "scan", "")
			r.LabeledCounter("exec_rows_out_total", "op", "join", "")
			r.LabeledCounter("exec_rows_out_total", "op", "scan", "")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got string
			func() {
				defer func() {
					if p := recover(); p != nil {
						got = p.(string)
					}
				}()
				tc.register(NewRegistry())
			}()
			switch {
			case tc.wantPanic == "" && got != "":
				t.Fatalf("panicked: %s", got)
			case tc.wantPanic != "" && !strings.Contains(got, tc.wantPanic):
				t.Fatalf("panic %q, want one containing %q", got, tc.wantPanic)
			}
		})
	}
}

// TestLookupOfExistingSeriesAllocatesNothing: the call-site check runs
// on every unlabeled lookup, so it must stay off the allocator.
func TestLookupOfExistingSeriesAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	if n := testing.AllocsPerRun(100, func() { r.Gauge("vclock_seconds", "").Set(1) }); n != 0 {
		t.Fatalf("lookup of an existing gauge allocates %v times", n)
	}
}
