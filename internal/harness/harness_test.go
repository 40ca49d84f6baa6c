package harness

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"progressdb/internal/core"
	"progressdb/internal/exec"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
)

// One shared session for all shape tests: seven scenarios behind the 16
// figures, run once.
var (
	sessOnce sync.Once
	sess     *Session
	sessErr  error
)

func session(t *testing.T) *Session {
	t.Helper()
	sessOnce.Do(func() {
		sess = NewSession(Runner{Scale: 0.02, Seed: 1})
		// Pre-run every distinct scenario; errors surface here once.
		for _, e := range Experiments {
			if _, err := sess.Result(e); err != nil {
				sessErr = err
				return
			}
		}
	})
	if sessErr != nil {
		t.Fatal(sessErr)
	}
	return sess
}

func result(t *testing.T, id string) (*RunResult, Experiment) {
	t.Helper()
	e, ok := ExperimentByID(id)
	if !ok {
		t.Fatalf("no experiment %s", id)
	}
	res, err := session(t).Result(e)
	if err != nil {
		t.Fatal(err)
	}
	return res, e
}

// Figure 4: with accurate statistics Q1's cost estimate is a flat line at
// the exact cost.
func TestFig04Q1CostFlat(t *testing.T) {
	res, _ := result(t, "fig04")
	if math.Abs(res.InitialEstU-res.ExactCostU)/res.ExactCostU > 0.02 {
		t.Fatalf("Q1 initial estimate %g vs exact %g", res.InitialEstU, res.ExactCostU)
	}
	for _, s := range res.Snapshots {
		if math.Abs(s.EstTotalU-res.ExactCostU)/res.ExactCostU > 0.02 {
			t.Fatalf("Q1 estimate wandered: %g at t=%.0f (exact %g)", s.EstTotalU, s.Elapsed, res.ExactCostU)
		}
	}
}

// Figure 5: Q1's speed is stable (coefficient of variation small after
// warm-up).
func TestFig05Q1SpeedStable(t *testing.T) {
	res, _ := result(t, "fig05")
	var speeds []float64
	for _, s := range res.Snapshots {
		if s.Elapsed >= 20 && !s.Finished {
			speeds = append(speeds, s.SpeedU)
		}
	}
	if len(speeds) < 3 {
		t.Fatalf("too few speed points: %d", len(speeds))
	}
	m := meanOf(speeds)
	var varsum float64
	for _, v := range speeds {
		varsum += (v - m) * (v - m)
	}
	cv := math.Sqrt(varsum/float64(len(speeds))) / m
	if cv > 0.15 {
		t.Fatalf("Q1 speed CV = %.2f, want stable (< 0.15)", cv)
	}
}

// jumpAround returns the remaining-time estimate just before x and the
// first estimate at least 15 s after x.
func jumpAround(res *RunResult, x float64) (before, after float64) {
	for _, s := range res.Snapshots {
		if s.Elapsed <= x {
			before = s.RemainingSeconds
		} else if s.Elapsed >= x+15 && after == 0 {
			after = s.RemainingSeconds
		}
	}
	return before, after
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Figure 6: the indicator's remaining-time estimate tracks the actual
// remaining time more closely than the optimizer baseline.
func TestFig06Q1IndicatorBeatsOptimizer(t *testing.T) {
	res, _ := result(t, "fig06")
	assertIndicatorBeatsOptimizer(t, res, 20)
}

func assertIndicatorBeatsOptimizer(t *testing.T, res *RunResult, warmup float64) {
	t.Helper()
	var indMAE, optMAE float64
	n := 0
	for _, s := range res.Snapshots {
		if s.Elapsed < warmup || s.Finished {
			continue
		}
		actual := res.ActualSeconds - s.Elapsed
		indMAE += math.Abs(s.RemainingSeconds - actual)
		optMAE += math.Abs(s.OptimizerRemainingSeconds - actual)
		n++
	}
	if n == 0 {
		t.Fatal("no snapshots after warm-up")
	}
	if indMAE >= optMAE {
		t.Fatalf("indicator MAE %.1f not better than optimizer MAE %.1f", indMAE/float64(n), optMAE/float64(n))
	}
}

// Figure 7: Q1's completed percentage is near-linear.
func TestFig07Q1PercentLinear(t *testing.T) {
	res, _ := result(t, "fig07")
	for _, s := range res.Snapshots {
		want := 100 * s.Elapsed / res.ActualSeconds
		if math.Abs(s.Percent-want) > 10 {
			t.Fatalf("Q1 percent at t=%.0f: %.1f, want ~%.1f (linear)", s.Elapsed, s.Percent, want)
		}
	}
}

// Figure 9: Q2's cost estimate starts low (the 1/3 selectivity default),
// stays flat during the first join, rises while the lineitem partitioning
// runs, then holds at the exact cost.
func TestFig09Q2CostConvergence(t *testing.T) {
	res, _ := result(t, "fig09")
	if res.InitialEstU >= res.ExactCostU*0.97 {
		t.Fatalf("Q2 initial %g should underestimate exact %g", res.InitialEstU, res.ExactCostU)
	}
	snaps := res.Snapshots
	final := snaps[len(snaps)-1]
	if math.Abs(final.EstTotalU-res.ExactCostU)/res.ExactCostU > 0.01 {
		t.Fatalf("Q2 final estimate %g vs exact %g", final.EstTotalU, res.ExactCostU)
	}
	// Convergence happens before the final segment: find the first
	// snapshot within 2% of exact; it must not be the last one.
	firstConverged := -1
	for i, s := range snaps {
		if math.Abs(s.EstTotalU-res.ExactCostU)/res.ExactCostU < 0.02 {
			firstConverged = i
			break
		}
	}
	if firstConverged < 0 || firstConverged >= len(snaps)-1 {
		t.Fatalf("Q2 estimate converged too late (index %d of %d)", firstConverged, len(snaps))
	}
	// Monotone non-decreasing (the underestimate is only ever corrected
	// upward in this workload).
	for i := 1; i < len(snaps); i++ {
		if snaps[i].EstTotalU < snaps[i-1].EstTotalU*0.999 {
			t.Fatalf("Q2 estimate decreased at t=%.0f: %g -> %g",
				snaps[i].Elapsed, snaps[i-1].EstTotalU, snaps[i].EstTotalU)
		}
	}
}

// Figure 11: late in execution the Q2 remaining estimate is accurate,
// and the indicator beats the optimizer baseline overall.
func TestFig11Q2RemainingConverges(t *testing.T) {
	res, _ := result(t, "fig11")
	assertIndicatorBeatsOptimizer(t, res, 20)
	for _, s := range res.Snapshots {
		if s.Finished || s.Elapsed < res.ActualSeconds*0.7 {
			continue
		}
		actual := res.ActualSeconds - s.Elapsed
		if actual < 5 {
			continue
		}
		if math.Abs(s.RemainingSeconds-actual)/actual > 0.30 {
			t.Fatalf("late Q2 estimate at t=%.0f: %.1f vs actual %.1f",
				s.Elapsed, s.RemainingSeconds, actual)
		}
	}
}

// Figure 12: percent keeps increasing.
func TestFig12Q2PercentIncreases(t *testing.T) {
	res, _ := result(t, "fig12")
	last := -1.0
	for _, s := range res.Snapshots {
		if s.Percent < last-2 { // small dips allowed when the cost estimate grows
			t.Fatalf("Q2 percent fell sharply: %.1f -> %.1f", last, s.Percent)
		}
		last = s.Percent
	}
	if last != 100 {
		t.Fatalf("Q2 final percent %g", last)
	}
}

// Figures 13–16: under I/O interference the query slows, speed drops
// during the interval and recovers after, and the remaining-time estimate
// jumps at interference start.
func TestFig13to16IOInterference(t *testing.T) {
	loaded, _ := result(t, "fig13")
	unloaded, _ := result(t, "fig09")
	if loaded.ActualSeconds < unloaded.ActualSeconds*1.3 {
		t.Fatalf("I/O interference should stretch Q2: %.0f vs %.0f",
			loaded.ActualSeconds, unloaded.ActualSeconds)
	}
	if loaded.InterfStart <= 0 || loaded.InterfEnd <= loaded.InterfStart {
		t.Fatalf("interference bounds: %+v", loaded)
	}
	// Speed before vs during (Figure 14).
	var pre, mid, post []float64
	for _, s := range loaded.Snapshots {
		switch {
		case s.Elapsed > 15 && s.Elapsed < loaded.InterfStart:
			pre = append(pre, s.SpeedU)
		case s.Elapsed > loaded.InterfStart+15 && s.Elapsed < loaded.InterfEnd:
			mid = append(mid, s.SpeedU)
		case s.Elapsed > loaded.InterfEnd+15 && !s.Finished:
			post = append(post, s.SpeedU)
		}
	}
	if len(pre) == 0 || len(mid) == 0 {
		t.Fatalf("not enough snapshots around interference: pre=%d mid=%d", len(pre), len(mid))
	}
	if meanOf(mid) > meanOf(pre)*0.6 {
		t.Fatalf("speed did not drop: pre %.1f mid %.1f", meanOf(pre), meanOf(mid))
	}
	if len(post) > 0 && meanOf(post) < meanOf(mid)*1.2 {
		t.Fatalf("speed did not recover: mid %.1f post %.1f", meanOf(mid), meanOf(post))
	}
	// Remaining time jumps up at interference start (Figure 15).
	before, after := jumpAround(loaded, loaded.InterfStart)
	if after <= before {
		t.Fatalf("remaining estimate should rise at interference start: %.0f -> %.0f", before, after)
	}
	// Cost estimate still converges exactly (Figure 13).
	final := loaded.Snapshots[len(loaded.Snapshots)-1]
	if math.Abs(final.EstTotalU-loaded.ExactCostU)/loaded.ExactCostU > 0.01 {
		t.Fatalf("Q2 loaded final estimate %g vs exact %g", final.EstTotalU, loaded.ExactCostU)
	}
	// The exact cost is load-independent (U does not depend on speed).
	if math.Abs(loaded.ExactCostU-unloaded.ExactCostU)/unloaded.ExactCostU > 0.001 {
		t.Fatalf("interference changed U: %g vs %g", loaded.ExactCostU, unloaded.ExactCostU)
	}
}

// Figure 17: the Q3 correlation makes the optimizer underestimate; the
// indicator corrects during the first join.
func TestFig17Q3Correlation(t *testing.T) {
	res, _ := result(t, "fig17")
	if res.InitialEstU >= res.ExactCostU*0.98 {
		t.Fatalf("Q3 initial %g should underestimate exact %g", res.InitialEstU, res.ExactCostU)
	}
	final := res.Snapshots[len(res.Snapshots)-1]
	if math.Abs(final.EstTotalU-res.ExactCostU)/res.ExactCostU > 0.01 {
		t.Fatalf("Q3 final estimate %g vs exact %g", final.EstTotalU, res.ExactCostU)
	}
}

// Figure 18: Q4 has misestimates on both joins; the error exceeds Q2's
// (it grows with the number of joins) and the estimate adjusts more than
// once.
func TestFig18Q4TwoAdjustments(t *testing.T) {
	q4, _ := result(t, "fig18")
	q2, _ := result(t, "fig09")
	q4Err := q4.ExactCostU / q4.InitialEstU
	q2Err := q2.ExactCostU / q2.InitialEstU
	if q4Err <= q2Err {
		t.Fatalf("Q4 relative error %.3f should exceed Q2's %.3f", q4Err, q2Err)
	}
	// The paper: "the progress indicator adjusts to both optimizer
	// estimation errors twice as the query is being processed: first,
	// while the first join is running; second, during the second join."
	// Measure the estimate increase during the first-join phase and
	// during the lineitem/second-join phase separately.
	snaps := q4.Snapshots
	var riseEarly, riseLate float64
	for i := 1; i < len(snaps); i++ {
		d := snaps[i].EstTotalU - snaps[i-1].EstTotalU
		if d <= 0 {
			continue
		}
		if snaps[i].CurrentSegment <= 1 {
			riseEarly += d
		} else {
			riseLate += d
		}
	}
	if riseEarly <= 0 || riseLate <= 0 {
		t.Fatalf("Q4 must adjust in both phases: early rise %.1f, late rise %.1f", riseEarly, riseLate)
	}
}

// Figure 19: the CPU-bound Q5's remaining estimate tracks actual.
func TestFig19Q5Remaining(t *testing.T) {
	res, _ := result(t, "fig19")
	assertIndicatorBeatsOptimizer(t, res, 20)
	for _, s := range res.Snapshots {
		if s.Finished || s.Elapsed < 20 {
			continue
		}
		actual := res.ActualSeconds - s.Elapsed
		if actual < 10 {
			continue
		}
		if math.Abs(s.RemainingSeconds-actual)/actual > 0.25 {
			t.Fatalf("Q5 estimate at t=%.0f: %.1f vs actual %.1f", s.Elapsed, s.RemainingSeconds, actual)
		}
	}
}

// Figure 20: CPU interference raises the remaining estimate sharply at
// its start, after which the estimate re-converges.
func TestFig20Q5CPUInterference(t *testing.T) {
	res, _ := result(t, "fig20")
	unloaded, _ := result(t, "fig19")
	if res.ActualSeconds < unloaded.ActualSeconds*1.5 {
		t.Fatalf("CPU interference should stretch Q5: %.0f vs %.0f",
			res.ActualSeconds, unloaded.ActualSeconds)
	}
	// Jump at interference start.
	before, after := jumpAround(res, res.InterfStart)
	if after <= before*1.2 {
		t.Fatalf("Q5 remaining should jump at CPU interference: %.0f -> %.0f", before, after)
	}
	// Re-convergence (paper: within ~20 s of the start).
	for _, s := range res.Snapshots {
		if s.Finished || s.Elapsed < res.InterfStart+30 {
			continue
		}
		actual := res.ActualSeconds - s.Elapsed
		if actual < 10 {
			continue
		}
		if math.Abs(s.RemainingSeconds-actual)/actual > 0.3 {
			t.Fatalf("Q5 loaded estimate at t=%.0f: %.1f vs actual %.1f",
				s.Elapsed, s.RemainingSeconds, actual)
		}
	}
}

func TestFigureExtractionAndRendering(t *testing.T) {
	s := session(t)
	for _, e := range Experiments {
		a, err := s.Render(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		fig := a.Fig
		if len(fig.Series) == 0 || len(fig.Series[0].X) == 0 {
			t.Fatalf("%s: empty figure", e.ID)
		}
		csv := fig.CSV()
		if !strings.HasPrefix(csv, "series,x,y\n") || strings.Count(csv, "\n") < 3 {
			t.Fatalf("%s: bad CSV:\n%s", e.ID, csv)
		}
		art := fig.ASCII(60, 12)
		if !strings.Contains(art, e.ID) {
			t.Fatalf("%s: ASCII missing header:\n%s", e.ID, art)
		}
	}
	if e, ok := ExperimentByID("fig09"); !ok || e.Query != 2 {
		t.Fatal("ExperimentByID broken")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Fatal("unknown id must not resolve")
	}
	if ids := IDs(); len(ids) != len(Experiments)+2 || ids[0] != Table1ID || ids[1] != PlansID {
		t.Fatalf("IDs() = %v, want table1, plans, then every figure", ids)
	}
	if _, err := s.Render("nope"); err == nil || !strings.Contains(err.Error(), "fig20") {
		t.Fatalf("Render of an unknown id: %v, want an error listing the valid ids", err)
	}
}

// TestResultsGolden: results/ is the virtual ledger, so it reproduces
// byte for byte. Table 1, the plan golden (Q1–Q5's plans and segment
// costs under every join hint) and all sixteen figures, rendered from the
// session the shape tests share (the scale and seed results/ was
// written at) through the function cmd/experiments writes them with,
// must equal the committed files — and results/ must hold nothing else.
func TestResultsGolden(t *testing.T) {
	const dir, rewrite = "../../results", "go run ./cmd/experiments -outdir results"
	s := session(t)
	files := map[string]bool{}
	for _, id := range IDs() {
		a, err := s.Render(id)
		if err != nil {
			t.Fatal(err)
		}
		file, got := a.File, a.Text
		files[file] = true
		want, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Errorf("%v; rewrite with: %s", err, rewrite)
			continue
		}
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		n := 0
		for n < len(gl) && n < len(wl) && gl[n] == wl[n] {
			n++
		}
		line := func(ls []string) string {
			if n < len(ls) {
				return ls[n]
			}
			return "<end of file>"
		}
		t.Errorf("results/%s differs at line %d:\n  generated: %s\n  committed: %s\nif the change is intended, rewrite with: %s",
			file, n+1, line(gl), line(wl), rewrite)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !files[e.Name()] {
			t.Errorf("results/%s is not an artefact %q writes: results/ holds the virtual ledger only", e.Name(), rewrite)
		}
	}
}

func TestTable1AndPlan(t *testing.T) {
	r := Runner{Scale: 0.002, Seed: 1}
	tbl, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"customer", "orders", "lineitem"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("Table1 missing %s:\n%s", want, tbl)
		}
	}
	_, p, d, err := r.withDefaults().compileQuery(2)
	if err != nil {
		t.Fatal(err)
	}
	pl := plan.Format(p) + "\n" + d.String()
	if !strings.Contains(pl, "SeqScan lineitem") || !strings.Contains(pl, "[dominant]") {
		t.Fatalf("Plan(2) output:\n%s", pl)
	}
}

// countingReporter counts the calls the executor makes on the indicator.
type countingReporter struct {
	segment.WorkReporter
	n int64
}

func (c *countingReporter) InputTuple(seg, input, bytes int) {
	c.n++
	c.WorkReporter.InputTuple(seg, input, bytes)
}
func (c *countingReporter) InputBulk(seg, input int, tuples int64, bytes float64) {
	c.n++
	c.WorkReporter.InputBulk(seg, input, tuples, bytes)
}
func (c *countingReporter) InputRepeat(seg, input int, tuples int64, bytes float64) {
	c.n++
	c.WorkReporter.InputRepeat(seg, input, tuples, bytes)
}
func (c *countingReporter) InputDone(seg, input int) {
	c.n++
	c.WorkReporter.InputDone(seg, input)
}
func (c *countingReporter) OutputTuple(seg, bytes int) {
	c.n++
	c.WorkReporter.OutputTuple(seg, bytes)
}
func (c *countingReporter) Extra(seg int, bytes float64) {
	c.n++
	c.WorkReporter.Extra(seg, bytes)
}
func (c *countingReporter) SegmentDone(seg int) {
	c.n++
	c.WorkReporter.SegmentDone(seg)
}

// The indicator's overhead is small by construction, and that is what is
// gated, as counts (a wall-clock ratio of two runs is a coin flip on a
// loaded host): the executor calls the reporter once per tuple at each
// segment boundary the tuple crosses — read from a base table, written to
// a partition or hash table, read back — and never per probe or per
// output row, so Q2 under the harness's Grace-sized work_mem stays under
// four calls per base tuple; the count is the same on every run; and
// without a reporter nothing is called at all. The per-call cost that
// turns the count into the paper's "< 1 %" is the benchmark's
// core.reporter_call_ns / core.indicator_modelled_pct.
func TestOverheadSmall(t *testing.T) {
	r := Runner{Scale: 0.01, Seed: 1}.withDefaults()
	eng, p, d, err := r.compileQuery(2)
	if err != nil {
		t.Fatal(err)
	}
	var baseRows int64
	for _, name := range []string{"customer", "orders", "lineitem"} {
		tb, err := eng.cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		baseRows += tb.Stats.RowCount
	}
	ind := core.New(eng.clock, d, core.Options{UpdatePeriod: r.UpdatePeriod})
	ind.Start()
	defer ind.Stop()
	cr := &countingReporter{WorkReporter: ind}
	run := func(rep segment.WorkReporter) {
		t.Helper()
		env := &exec.Env{Pool: eng.cat.Pool(), Clock: eng.clock,
			WorkMemPages: r.WorkMemPages, Reporter: rep, Decomp: d}
		if _, err := exec.Run(env, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	run(cr)
	calls := cr.n
	if calls < baseRows || calls > 4*baseRows {
		t.Fatalf("reporter calls = %d for %d base tuples, want between 1 and 4 per tuple", calls, baseRows)
	}
	t.Logf("Q2: %d reporter calls for %d base tuples (%.2f per tuple)", calls, baseRows, float64(calls)/float64(baseRows))
	done := ind.Current().DoneU
	run(nil)
	if cr.n != calls || ind.Current().DoneU != done {
		t.Fatalf("a run without a reporter reached the indicator: calls %d -> %d, DoneU %g -> %g",
			calls, cr.n, done, ind.Current().DoneU)
	}
	ind2 := core.New(eng.clock, d, core.Options{UpdatePeriod: r.UpdatePeriod})
	ind2.Start()
	defer ind2.Stop()
	cr2 := &countingReporter{WorkReporter: ind2}
	run(cr2)
	if cr2.n != calls {
		t.Fatalf("reporter calls differ between runs: %d then %d", calls, cr2.n)
	}
}

// The SMJ extra experiment: two dominant inputs, converging estimate.
func TestRunSMJ(t *testing.T) {
	res, err := (Runner{Scale: 0.01, Seed: 1}).RunSMJ()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) == 0 {
		t.Fatal("no snapshots")
	}
	final := res.Snapshots[len(res.Snapshots)-1]
	if !final.Finished || final.Percent != 100 {
		t.Fatalf("final: %+v", final)
	}
	if math.Abs(final.EstTotalU-res.ExactCostU) > 1e-6*res.ExactCostU {
		t.Fatalf("estimate %g vs exact %g", final.EstTotalU, res.ExactCostU)
	}
}

func TestOverheadProbe(t *testing.T) {
	probe, err := (Runner{Scale: 0.005, Seed: 1}).OverheadProbe(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe(true); err != nil {
		t.Fatal(err)
	}
	if err := probe(false); err != nil {
		t.Fatal(err)
	}
}
