package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/exec"
	"progressdb/internal/optimizer"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// testEnv bundles a loaded catalog with its clock.
type testEnv struct {
	cat   *catalog.Catalog
	clock *vclock.Clock
}

// buildEnv loads customer (300 × ~60B), orders (3000), lineitem (9000
// with padding so scans take pages), analyzed.
func buildEnv(t *testing.T, profile *vclock.LoadProfile) *testEnv {
	t.Helper()
	clock := vclock.New(vclock.Costs{SeqPage: 0.05, RandPage: 0.4, CPUTuple: 2e-5}, profile)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 2048))
	mk := func(name string, sch *tuple.Schema, n int, row func(i int) tuple.Tuple) {
		tb, err := cat.CreateTable(name, sch)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := cat.Insert(tb, row(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.Heap.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	pad := strings.Repeat("x", 80)
	mk("customer", tuple.NewSchema(
		tuple.Column{Name: "custkey", Type: tuple.Int},
		tuple.Column{Name: "nationkey", Type: tuple.Int},
		tuple.Column{Name: "filler", Type: tuple.String},
	), 300, func(i int) tuple.Tuple {
		return tuple.Tuple{tuple.NewInt(int64(i)), tuple.NewInt(int64(i % 25)), tuple.NewString(pad)}
	})
	mk("orders", tuple.NewSchema(
		tuple.Column{Name: "orderkey", Type: tuple.Int},
		tuple.Column{Name: "custkey", Type: tuple.Int},
		tuple.Column{Name: "filler", Type: tuple.String},
	), 3000, func(i int) tuple.Tuple {
		return tuple.Tuple{tuple.NewInt(int64(i)), tuple.NewInt(int64(i % 300)), tuple.NewString(pad)}
	})
	mk("lineitem", tuple.NewSchema(
		tuple.Column{Name: "orderkey", Type: tuple.Int},
		tuple.Column{Name: "partkey", Type: tuple.Int},
		tuple.Column{Name: "filler", Type: tuple.String},
	), 9000, func(i int) tuple.Tuple {
		return tuple.Tuple{tuple.NewInt(int64(i % 3000)), tuple.NewInt(int64(i + 1)), tuple.NewString(pad)}
	})
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return &testEnv{cat: cat, clock: clock}
}

// runWithIndicator plans sql, executes it with an Indicator, and returns
// the indicator plus the actual virtual duration.
func runWithIndicator(t *testing.T, te *testEnv, sql string, opts Options,
	planOpts optimizer.Options) (*Indicator, float64) {
	return runWithIndicatorMem(t, te, sql, opts, planOpts, 1024)
}

// runWithIndicatorMem is runWithIndicator with an explicit work_mem (in
// pages) used for both planning and execution.
func runWithIndicatorMem(t *testing.T, te *testEnv, sql string, opts Options,
	planOpts optimizer.Options, workMem int) (*Indicator, float64) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if planOpts.WorkMemPages == 0 {
		planOpts.WorkMemPages = workMem
	}
	p, err := optimizer.Plan(te.cat, stmt, planOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Cold buffer pool, as in the paper's restart-per-test methodology.
	if err := te.cat.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	te.cat.Pool().Clear()
	d := segment.Decompose(p, workMem)
	ind := New(te.clock, d, opts)
	ind.Start()
	start := te.clock.Now()
	env := &exec.Env{
		Pool: te.cat.Pool(), Clock: te.clock, WorkMemPages: workMem,
		Reporter: ind, Decomp: d,
	}
	if _, err := exec.Run(env, p, nil); err != nil {
		t.Fatal(err)
	}
	return ind, te.clock.Now() - start
}

var fastOpts = Options{UpdatePeriod: 0.5, SpeedWindow: 1, SamplePeriod: 0.1}

func TestQ1AccurateEstimatesStayFlat(t *testing.T) {
	te := buildEnv(t, nil)
	ind, _ := runWithIndicator(t, te, "select * from lineitem", fastOpts, optimizer.Options{})
	snaps := ind.Snapshots()
	if len(snaps) < 5 {
		t.Fatalf("only %d snapshots", len(snaps))
	}
	// With exact statistics the cost estimate never moves (Figure 4).
	first := snaps[0].EstTotalU
	for _, s := range snaps {
		if math.Abs(s.EstTotalU-first)/first > 0.02 {
			t.Fatalf("cost estimate moved: %g -> %g", first, s.EstTotalU)
		}
	}
	// Percent increases monotonically to 100 (Figure 7).
	last := -1.0
	for _, s := range snaps {
		if s.Percent < last-1e-9 {
			t.Fatalf("percent regressed: %g -> %g", last, s.Percent)
		}
		last = s.Percent
	}
	final := snaps[len(snaps)-1]
	if !final.Finished || final.Percent != 100 || final.RemainingSeconds != 0 {
		t.Fatalf("final snapshot: %+v", final)
	}
	// At completion the estimate equals the work done.
	if math.Abs(final.EstTotalU-final.DoneU) > 1e-6*final.DoneU+1e-9 {
		t.Fatalf("final estimate %g != done %g", final.EstTotalU, final.DoneU)
	}
}

func TestQ1RemainingTimeTracksActual(t *testing.T) {
	te := buildEnv(t, nil)
	ind, actual := runWithIndicator(t, te, "select * from lineitem", fastOpts, optimizer.Options{})
	snaps := ind.Snapshots()
	// Skip the first snapshot (speed warm-up); afterwards the estimated
	// remaining time should track actual remaining within 25% (Figure 6:
	// the dashed line almost coincides).
	for _, s := range snaps[1 : len(snaps)-1] {
		if s.Elapsed < 2 {
			continue // speed warm-up: the window still includes the
			// expensive initial random I/O
		}
		wantRemaining := actual - s.Elapsed
		if wantRemaining <= 1 {
			continue
		}
		rel := math.Abs(s.RemainingSeconds-wantRemaining) / wantRemaining
		if rel > 0.25 {
			t.Fatalf("at t=%.1f: est remaining %.1f vs actual %.1f (%.0f%% off)",
				s.Elapsed, s.RemainingSeconds, wantRemaining, rel*100)
		}
	}
}

// The Figure 9 behaviour: a function predicate (selectivity guessed 1/3,
// truly 1) makes the initial cost too low; the estimate rises while the
// mispredicted scan runs and converges to the exact cost.
func TestQ2StyleCostConvergence(t *testing.T) {
	te := buildEnv(t, nil)
	sql := `
		select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey and absolute(l.partkey) > 0`
	// Work_mem of 2 pages: the joins go Grace, so the σ(lineitem)
	// partitioning is its own counted segment — the paper's Figure 8/9
	// situation on 2004-era PostgreSQL with sub-megabyte sort_mem.
	ind, _ := runWithIndicatorMem(t, te, sql, fastOpts, optimizer.Options{}, 2)
	snaps := ind.Snapshots()
	if len(snaps) < 6 {
		t.Fatalf("only %d snapshots", len(snaps))
	}
	first, final := snaps[0], snaps[len(snaps)-1]
	if final.EstTotalU <= first.EstTotalU*1.1 {
		t.Fatalf("estimate should grow markedly: %g -> %g", first.EstTotalU, final.EstTotalU)
	}
	if math.Abs(final.EstTotalU-final.DoneU) > 1e-6*final.DoneU {
		t.Fatalf("final estimate %g != done %g", final.EstTotalU, final.DoneU)
	}
	// The indicator's initial estimate equals the optimizer's.
	if math.Abs(first.EstTotalU-ind.InitialTotalU())/ind.InitialTotalU() > 0.25 {
		t.Fatalf("first snapshot %g far from initial optimizer estimate %g",
			first.EstTotalU, ind.InitialTotalU())
	}
}

// Section 4.3 case (b): when the real base-input cardinality exceeds the
// optimizer's Ne, the estimate switches to the running count.
func TestBaseInputUnderestimateCorrected(t *testing.T) {
	te := buildEnv(t, nil)
	// Make the stats stale: double lineitem after ANALYZE.
	li, _ := te.cat.Table("lineitem")
	pad := strings.Repeat("x", 80)
	for i := 0; i < 9000; i++ {
		te.cat.Insert(li, tuple.Tuple{
			tuple.NewInt(int64(i % 3000)), tuple.NewInt(int64(i + 1)), tuple.NewString(pad)})
	}
	li.Heap.Sync()
	ind, _ := runWithIndicator(t, te, "select * from lineitem", fastOpts, optimizer.Options{})
	snaps := ind.Snapshots()
	first, final := snaps[0], snaps[len(snaps)-1]
	// Early: estimate sticks to Ne. Late: roughly double.
	if final.EstTotalU < first.EstTotalU*1.7 {
		t.Fatalf("stale-stats estimate did not grow: %g -> %g", first.EstTotalU, final.EstTotalU)
	}
	if final.Percent != 100 {
		t.Fatalf("final percent %g", final.Percent)
	}
}

// I/O interference (Figure 14/15 shape): speed drops during the loaded
// interval and the remaining-time estimate rises sharply at its start.
func TestIOInterferenceShapes(t *testing.T) {
	// First measure the unloaded duration to size the interference window.
	base := buildEnv(t, nil)
	_, unloaded := runWithIndicator(t, base, "select * from lineitem", fastOpts, optimizer.Options{})

	te := buildEnv(t, nil)
	// Interference begins 30% into the (unloaded) duration, measured
	// from the query's start on this clock, and lasts past its end.
	start := te.clock.Now()
	prof, err := vclock.NewLoadProfile(vclock.Interval{
		Start: start + unloaded*0.3, End: start + unloaded*10, IOFactor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	te.clock.SetProfile(prof)
	ind, loaded := runWithIndicator(t, te, "select * from lineitem", fastOpts, optimizer.Options{})
	if loaded < unloaded*1.5 {
		t.Fatalf("interference should slow the query: %.1f vs %.1f", loaded, unloaded)
	}
	snaps := ind.Snapshots()
	// Find average speed before and during interference.
	var preSpeed, midSpeed []float64
	for _, s := range snaps {
		switch {
		case s.Elapsed < unloaded*0.3 && s.Elapsed > unloaded*0.1:
			preSpeed = append(preSpeed, s.SpeedU)
		case s.Elapsed > unloaded*0.5 && !s.Finished:
			midSpeed = append(midSpeed, s.SpeedU)
		}
	}
	if len(preSpeed) == 0 || len(midSpeed) == 0 {
		t.Fatalf("not enough snapshots: %d", len(snaps))
	}
	if mean(midSpeed) > mean(preSpeed)*0.5 {
		t.Fatalf("speed should drop under 4x I/O interference: pre %.1f mid %.1f",
			mean(preSpeed), mean(midSpeed))
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestDecayingAverageSmoothing(t *testing.T) {
	te := buildEnv(t, nil)
	opts := fastOpts
	opts.DecayAlpha = 0.3
	ind, _ := runWithIndicator(t, te, "select * from lineitem", opts, optimizer.Options{})
	snaps := ind.Snapshots()
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots", len(snaps))
	}
	for _, s := range snaps[1:] {
		if s.SpeedU <= 0 && !s.Finished {
			t.Fatalf("decayed speed should be positive: %+v", s)
		}
	}
}

func TestStepBaselineCoarseness(t *testing.T) {
	te := buildEnv(t, nil)
	sql := `select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey`
	ind, _ := runWithIndicator(t, te, sql, fastOpts, optimizer.Options{})
	snaps := ind.Snapshots()
	// The step baseline only takes a few discrete values (the paper's
	// point: step counting is too coarse).
	values := map[float64]bool{}
	for _, s := range snaps {
		values[s.StepPercent] = true
	}
	if len(values) > 4 {
		t.Fatalf("step baseline took %d distinct values for a 3-segment plan", len(values))
	}
}

func TestCurrentSnapshotOnDemand(t *testing.T) {
	te := buildEnv(t, nil)
	stmt, _ := sqlparser.Parse("select * from customer")
	p, _ := optimizer.Plan(te.cat, stmt, optimizer.Options{})
	d := segment.Decompose(p, 1024)
	te.cat.Pool().Flush()
	te.cat.Pool().Clear()
	ind := New(te.clock, d, fastOpts)
	ind.Start()
	pre := ind.Current()
	if pre.Percent != 0 || pre.Finished {
		t.Fatalf("pre-execution snapshot: %+v", pre)
	}
	env := &exec.Env{Pool: te.cat.Pool(), Clock: te.clock, WorkMemPages: 1024, Reporter: ind, Decomp: d}
	exec.Run(env, p, nil)
	post := ind.Current()
	if !post.Finished || post.Percent != 100 {
		t.Fatalf("post-execution snapshot: %+v", post)
	}
}

func TestSubscribersReceiveSnapshots(t *testing.T) {
	te := buildEnv(t, nil)
	stmt, _ := sqlparser.Parse("select * from lineitem")
	p, _ := optimizer.Plan(te.cat, stmt, optimizer.Options{})
	d := segment.Decompose(p, 1024)
	te.cat.Pool().Flush()
	te.cat.Pool().Clear()
	ind := New(te.clock, d, fastOpts)
	var got []Snapshot
	ind.Subscribe(func(s Snapshot) { got = append(got, s) })
	ind.Start()
	env := &exec.Env{Pool: te.cat.Pool(), Clock: te.clock, WorkMemPages: 1024, Reporter: ind, Decomp: d}
	exec.Run(env, p, nil)
	if len(got) != len(ind.Snapshots()) {
		t.Fatalf("subscriber saw %d of %d snapshots", len(got), len(ind.Snapshots()))
	}
}

// Every query shape must end with estimate == done and percent 100.
func TestInvariantFinalConvergence(t *testing.T) {
	queries := []struct {
		sql string
		opt optimizer.Options
	}{
		{"select * from customer", optimizer.Options{}},
		{"select custkey from customer where nationkey < 10", optimizer.Options{}},
		{"select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey", optimizer.Options{}},
		{"select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey", optimizer.Options{ForceJoinAlgo: "merge"}},
		{"select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey", optimizer.Options{ForceJoinAlgo: "nl"}},
		{`select c.custkey, o.orderkey, l.partkey from customer c, orders o, lineitem l
		  where c.custkey = o.custkey and o.orderkey = l.orderkey and absolute(l.partkey) > 0`, optimizer.Options{}},
	}
	for _, q := range queries {
		te := buildEnv(t, nil)
		ind, _ := runWithIndicator(t, te, q.sql, fastOpts, q.opt)
		snaps := ind.Snapshots()
		if len(snaps) == 0 {
			t.Fatalf("%q: no snapshots", q.sql)
		}
		final := snaps[len(snaps)-1]
		if !final.Finished {
			t.Fatalf("%q: final snapshot not finished", q.sql)
		}
		if math.Abs(final.EstTotalU-final.DoneU) > 1e-6*final.DoneU+1e-9 {
			t.Fatalf("%q: final estimate %g != done %g", q.sql, final.EstTotalU, final.DoneU)
		}
		for _, s := range snaps {
			if s.Percent < 0 || s.Percent > 100.0001 {
				t.Fatalf("%q: percent out of range: %g", q.sql, s.Percent)
			}
			if s.DoneU > s.EstTotalU*1.0001 {
				t.Fatalf("%q: done %g exceeds estimate %g", q.sql, s.DoneU, s.EstTotalU)
			}
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := FormatDuration(5*3600 + 3*60 + 7); got != "5 hour 3 min 7 sec" {
		t.Fatalf("FormatDuration = %q", got)
	}
	if got := FormatDuration(42); got != "42 sec" {
		t.Fatalf("FormatDuration = %q", got)
	}
	if got := FormatDuration(math.Inf(1)); got != "unknown" {
		t.Fatalf("FormatDuration(inf) = %q", got)
	}
	s := Format("Query 1", Snapshot{Elapsed: 65, RemainingSeconds: 10, Percent: 86.6, EstTotalU: 1502831, SpeedU: 22})
	for _, want := range []string{"Query 1", "1 min 5 sec", "1502831 U", "22 U/Sec", "87% done"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Format missing %q:\n%s", want, s)
		}
	}
}

func TestFormatIncludesDurationStyle(t *testing.T) {
	// Sanity check the Figure 2 style end to end.
	snap := Snapshot{Elapsed: 18187, RemainingSeconds: 51916, Percent: 24, EstTotalU: 1502831, SpeedU: 22}
	s := Format("Query 1", snap)
	if !strings.Contains(s, "5 hour 3 min 7 sec") || !strings.Contains(s, "14 hour 25 min 16 sec") {
		t.Fatalf("Figure 2 durations wrong:\n%s", s)
	}
	_ = fmt.Sprintf
}

// Aggregation and ORDER BY introduce new blocking segment kinds; the
// indicator must handle them like any other segment and converge.
func TestProgressOverAggregationAndSort(t *testing.T) {
	queries := []string{
		"select nationkey, count(*) from customer group by nationkey",
		"select c.nationkey, count(*) from customer c, orders o where c.custkey = o.custkey group by c.nationkey",
		"select custkey from customer order by custkey desc",
		"select custkey from customer order by custkey limit 5",
	}
	for _, sql := range queries {
		te := buildEnv(t, nil)
		ind, _ := runWithIndicator(t, te, sql, fastOpts, optimizer.Options{})
		snaps := ind.Snapshots()
		if len(snaps) == 0 {
			t.Fatalf("%q: no snapshots", sql)
		}
		final := snaps[len(snaps)-1]
		if !final.Finished || final.Percent != 100 {
			t.Fatalf("%q: final snapshot %+v", sql, final)
		}
		for _, s := range snaps {
			if s.Percent < 0 || s.Percent > 100.0001 {
				t.Fatalf("%q: percent %g", sql, s.Percent)
			}
		}
	}
}

// Correlated subqueries (the paper's Section 6 future-work item) become
// semi-join segments; progress must converge over them too.
func TestProgressOverCorrelatedSubquery(t *testing.T) {
	queries := []string{
		`select c.custkey from customer c
		 where exists (select * from orders o where o.custkey = c.custkey)`,
		`select c.custkey from customer c
		 where not exists (select * from orders o where o.custkey = c.custkey and o.orderkey < 100)`,
		`select custkey from customer where custkey in (select custkey from orders)`,
	}
	for _, sql := range queries {
		te := buildEnv(t, nil)
		ind, _ := runWithIndicator(t, te, sql, fastOpts, optimizer.Options{})
		snaps := ind.Snapshots()
		if len(snaps) == 0 {
			t.Fatalf("%q: no snapshots", sql)
		}
		final := snaps[len(snaps)-1]
		if !final.Finished || final.Percent != 100 {
			t.Fatalf("%q: final %+v", sql, final)
		}
		if math.Abs(final.EstTotalU-final.DoneU) > 1e-6*final.DoneU {
			t.Fatalf("%q: estimate %g != done %g", sql, final.EstTotalU, final.DoneU)
		}
	}
}
