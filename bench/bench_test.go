package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// No test here asserts a wall-clock value: the suite checks what the
// benchmark computes, not how fast the host is.

func TestOpListIsFixedBySeed(t *testing.T) {
	sz := sizingFor(nominalSeconds)
	for _, w := range workloads {
		a, qa := w.ops(sz, 1)
		b, qb := w.ops(sz, 1)
		if !reflect.DeepEqual(a, b) || qa != qb {
			t.Errorf("%s: two lists from seed 1 differ", w.Name)
		}
		c, _ := w.ops(sz, 2)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same list", w.Name)
		}
		// Exact per-class counts, whatever the seed.
		want := sz.Mix
		if w.Name == "serve_short" {
			want = sz.Short
		}
		for _, ops := range [][]op{a, c} {
			got := classCounts(w.Classes, ops)
			for ci, cl := range w.Classes {
				if got[cl.Name] != want[ci] {
					t.Errorf("%s: %d %s ops, want exactly %d", w.Name, got[cl.Name], cl.Name, want[ci])
				}
			}
		}
		// The traced quarter has the same class mix for every seed.
		_, qc := w.ops(sz, 2)
		if !reflect.DeepEqual(classCounts(w.Classes, a[:qa]), classCounts(w.Classes, c[:qc])) {
			t.Errorf("%s: traced quarter's class mix depends on the seed", w.Name)
		}
		if len(a) < 200 {
			t.Errorf("%s: %d ops; a p95 needs 200 for ten samples beyond it", w.Name, len(a))
		}
	}
}

func TestOpListPlacement(t *testing.T) {
	sz := sizingFor(nominalSeconds)
	for seed := int64(1); seed <= 50; seed++ {
		ops, quarter := buildOps(mix9, sz.Mix, sz.Customers, seed)
		for _, o := range ops[len(ops)-len(ops)/10:] {
			if mix9[o.Class].Name == "q5" {
				t.Fatalf("seed %d: a q5 in the last tenth of the list", seed)
			}
		}
		for _, cl := range mix9 {
			if classCounts(mix9, ops[:quarter])[cl.Name] == 0 {
				t.Fatalf("seed %d: traced quarter has no %s", seed, cl.Name)
			}
		}
	}
	// Lookup keys stay clear of the leaf-straddling customers (see
	// straddlesLeaf), which do exist at this scale.
	straddlers := 0
	for k := 0; k < sz.Customers; k++ {
		if straddlesLeaf(k) {
			straddlers++
		}
	}
	if straddlers == 0 {
		t.Error("no customer straddles a leaf: the exclusion rule tests nothing")
	}
	ops, _ := buildOps(short3, sz.Short, sz.Customers, 1)
	keys := make(map[string]bool)
	for _, o := range ops {
		keys[o.SQL] = true
	}
	for k := 0; k < sz.Customers; k++ {
		if straddlesLeaf(k) && keys[fmt.Sprintf("select * from orders where custkey = %d", k)] {
			t.Errorf("op list looks up customer %d, whose orders straddle a leaf", k)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 0, 200)
	for i := 1; i <= 199; i++ {
		xs = append(xs, float64(i))
	}
	if _, ok := percentile(xs, 0.95); ok {
		t.Error("p95 of 199 samples accepted: only 9 lie beyond rank 190")
	}
	xs = append(xs, 200)
	v, ok := percentile(xs, 0.95)
	if !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of {4,1,3,2} = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of {1,2,4} = %v, %v; want 1, 4", q1, q3)
	}
	s := summarize([]float64{90, 100, 110})
	if s.Median != 100 || s.Min != 90 || s.Max != 110 || s.RangeShare != 0.2 {
		t.Errorf("summarize({90,100,110}) = %+v", s)
	}
}

func TestOneClientsTimesAreEachClassesFastest(t *testing.T) {
	// Class 0 three times (one of them failed, and the fastest), class 1 once.
	p := &pass{Wall: 10 * time.Second, Outcomes: []outcome{
		{Class: 0, WallUS: 3000, FirstUS: 900},
		{Class: 1, WallUS: 50000, FirstUS: 50000},
		{Class: 0, WallUS: 2000, FirstUS: 1000},
		{Class: 0, WallUS: 1000, FirstUS: 100, Fail: "oracle"},
	}}
	quiet := quietWalls(p.Outcomes)
	want := []outcome{
		{Class: 0, WallUS: 2000, FirstUS: 900}, // each time from its own fastest repetition
		{Class: 1, WallUS: 50000, FirstUS: 50000},
		{Class: 0, WallUS: 2000, FirstUS: 900},
		{Class: 0, WallUS: 1000, FirstUS: 100, Fail: "oracle"}, // a failed op neither gives nor takes
	}
	if !reflect.DeepEqual(quiet, want) {
		t.Errorf("quietWalls = %+v, want %+v", quiet, want)
	}
	if p.Outcomes[0].WallUS != 3000 {
		t.Error("quietWalls changed the pass it was given")
	}
	one, _ := endToEndMetrics(p, 1)
	// 3 good ops over 2 + 50 + 2 + 1 ms of wall; median of {2, 2, 50} and {0.9, 0.9, 50}.
	if math.Abs(one["goodput_qps"]-3/0.055) > 1e-9 || one["query_wall_p50_ms"] != 2 || one["first_report_p50_ms"] != 0.9 {
		t.Errorf("one client: %v", one)
	}
	// Two clients' times are reported as measured, over the pass's own wall.
	two, _ := endToEndMetrics(p, 2)
	if two["goodput_qps"] != 0.3 || two["query_wall_p50_ms"] != 3 || two["first_report_p50_ms"] != 1 {
		t.Errorf("two clients: %v", two)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	// root 0–100 with children 10–30 and 20–50 (overlapping: cover 10–50)
	// and 60–120 (runs past the parent: covers 60–100); grandchild 12–18.
	spans := []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 1, Name: "c", StartNS: 60, EndNS: 120},
		{ID: 5, Parent: 2, Name: "aa", StartNS: 12, EndNS: 18},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 40, 2: 20 - 6, 3: 30, 4: 60, 5: 6}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	var rec *recorder // a nil recorder records nothing and must not panic
	rec.end(rec.start("x", 1, 0))
	if rec.snapshot() != nil {
		t.Error("nil recorder returned spans")
	}
}

func TestRemainingErrAndReportCheck(t *testing.T) {
	// d = 10: at 2 s the estimate 6 misses the true 8 by 2; at 5 s the
	// estimate 5 is exact; the -1 ("unknown" on the wire) is skipped.
	got := remainingErr([]estimate{{2, 6}, {5, 5}, {7, -1}}, 10)
	if got != 0.1 {
		t.Errorf("remainingErr = %v, want 0.1", got)
	}
	ref := &reference{DoneU: 3}
	var ok reportCheck
	ok.see(1, 40, false)
	ok.see(3, 100, true)
	if v := ok.verdict(ref); v != "" {
		t.Errorf("good stream rejected: %s", v)
	}
	var back reportCheck
	back.see(2, 50, false)
	back.see(1, 60, false)
	back.see(3, 100, true)
	if back.verdict(ref) == "" {
		t.Error("DoneU going backwards accepted")
	}
	var twice reportCheck
	twice.see(3, 100, true)
	twice.see(3, 100, true)
	if twice.verdict(ref) == "" {
		t.Error("two terminal reports accepted")
	}
	var wrong reportCheck
	wrong.see(2.5, 100, true)
	if wrong.verdict(ref) == "" {
		t.Error("terminal DoneU off the reference accepted")
	}
	a := [][]interface{}{{int64(1), "x", 2.5}, {int64(2), "y", 0.1}}
	b := [][]interface{}{{float64(2), "y", 0.1}, {float64(1), "x", 2.5}} // as JSON decodes them, reordered
	if rowSum(a) != rowSum(b) {
		t.Error("rowSum depends on row order or on int64 against float64")
	}
	if rowSum(a) == rowSum(a[:1]) {
		t.Error("rowSum ignores a missing row")
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	var got, want interface{}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	mine, err := json.Marshal(describe())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mine, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with `go run -C bench . -describe > BENCHMARK.json`")
	}
}

// TestSmoke runs all four workloads, end to end and traced, through the
// real code path and the oracle on a tiny data set.
func TestSmoke(t *testing.T) {
	sz := smokeSizing()
	for i := range workloads {
		w := &workloads[i]
		e2e, err := runEndToEnd(w, sz, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		tr, err := runTraced(w, sz, 1, "")
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for _, r := range []*result{e2e, tr} {
			if !r.correct() {
				t.Errorf("%s: %d of %d ops failed, leaks %q: %v", w.Name, r.Failed, r.Attempted, r.Leaks, r.Failures)
			}
		}
		for _, d := range endToEnd {
			if e2e.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, d.Name, e2e.EndToEnd[d.Name].Value)
			}
		}
		if len(tr.PerLayer) != len(perLayer) {
			t.Errorf("%s: traced pass reported %d per-layer metrics, want all %d", w.Name, len(tr.PerLayer), len(perLayer))
		}
		misses := tr.PerLayer["storage.pool_misses"].Value
		switch w.Name {
		case "engine_hot":
			if misses != 0 || tr.PerLayer["storage.temp_pages_written"].Value != 0 {
				t.Errorf("engine_hot: %v misses, %v temp pages written; want none", misses, tr.PerLayer["storage.temp_pages_written"].Value)
			}
			if tr.PerLayer["core.indicator_wall_ratio"].Value <= 0 {
				t.Error("engine_hot: no indicator wall ratio")
			}
		case "engine_spill":
			if misses <= 0 || tr.PerLayer["storage.evictions"].Value <= 0 || tr.PerLayer["storage.temp_pages_written"].Value <= 0 {
				t.Errorf("engine_spill: misses %v, evictions %v, temp pages %v; want all > 0",
					misses, tr.PerLayer["storage.evictions"].Value, tr.PerLayer["storage.temp_pages_written"].Value)
			}
		default:
			for _, name := range []string{"client.submit_rtt_us", "client.stream_us", "exec.inproc_p50_us", "server.submit_handler_us", "server.events_per_query"} {
				if tr.PerLayer[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.Name, name, tr.PerLayer[name].Value)
				}
			}
		}
	}
}
