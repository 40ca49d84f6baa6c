package core

import (
	"math"
	"strings"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/optimizer"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// costMAE is the mean absolute error of the running cost estimate
// against the exact (final) cost, over non-final snapshots.
func costMAE(ind *Indicator) float64 {
	snaps := ind.Snapshots()
	exact := snaps[len(snaps)-1].EstTotalU
	mae, n := 0.0, 0
	for _, s := range snaps {
		if s.Finished {
			continue
		}
		mae += math.Abs(s.EstTotalU - exact)
		n++
	}
	if n == 0 {
		return 0
	}
	return mae / float64(n)
}

// Ablation of the Section 4.5 blend on the Q2-style misestimated
// workload: refining (blend or linear) must beat never refining
// (static), and all modes converge once segments complete.
func TestEstimatorModeAblation(t *testing.T) {
	sql := `
		select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey and absolute(l.partkey) > 0`
	run := func(mode EstimatorMode) *Indicator {
		te := buildEnv(t, nil)
		opts := fastOpts
		opts.estimator = mode
		ind, _ := runWithIndicatorMem(t, te, sql, opts, optimizer.Options{}, 2)
		return ind
	}

	blend := run(EstimatorBlend)
	static := run(EstimatorStatic)
	linear := run(EstimatorLinear)

	blendMAE, staticMAE, linearMAE := costMAE(blend), costMAE(static), costMAE(linear)
	t.Logf("cost-estimate MAE: blend %.1fU static %.1fU linear %.1fU", blendMAE, staticMAE, linearMAE)

	if blendMAE >= staticMAE {
		t.Fatalf("the blend must beat the never-refine baseline: %.1f vs %.1f", blendMAE, staticMAE)
	}
	if linearMAE >= staticMAE {
		t.Fatalf("pure extrapolation must also beat never-refine: %.1f vs %.1f", linearMAE, staticMAE)
	}
	// All converge at completion (done segments are exact regardless).
	for _, ind := range []*Indicator{blend, static, linear} {
		snaps := ind.Snapshots()
		final := snaps[len(snaps)-1]
		if math.Abs(final.EstTotalU-final.DoneU) > 1e-6*final.DoneU {
			t.Fatalf("mode did not converge: %+v", final)
		}
	}
}

// On clustered data, pure extrapolation is misled mid-segment: here the
// first half of the build relation passes the filter and the second half
// does not, so at p = 0.5 E2 predicts double the true output. The blend
// hedges toward E1 and must track the exact cost better — the paper's
// stated reason for blending ("this assumption may not be valid and we
// also want to consider the initial estimate E1").
func TestBlendBeatsLinearOnClusteredData(t *testing.T) {
	build := func() *testEnv {
		clock := vclock.New(vclock.Costs{SeqPage: 0.05, RandPage: 0.4, CPUTuple: 2e-5}, nil)
		cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 2048))
		pad := strings.Repeat("p", 60)
		tt, err := cat.CreateTable("t", tuple.NewSchema(
			tuple.Column{Name: "k", Type: tuple.Int},
			tuple.Column{Name: "v", Type: tuple.Int},
			tuple.Column{Name: "pad", Type: tuple.String},
		))
		if err != nil {
			t.Fatal(err)
		}
		const n = 6000
		for i := 0; i < n; i++ {
			// v = i: the first half satisfies v < n/2, clustered at the
			// front of the scan.
			cat.Insert(tt, tuple.Tuple{tuple.NewInt(int64(i % 100)), tuple.NewInt(int64(i)), tuple.NewString(pad)})
		}
		tt.Heap.Sync()
		uu, err := cat.CreateTable("u", tuple.NewSchema(
			tuple.Column{Name: "k", Type: tuple.Int},
			tuple.Column{Name: "pad", Type: tuple.String},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4*n; i++ {
			cat.Insert(uu, tuple.Tuple{tuple.NewInt(int64(i % 100)), tuple.NewString(pad)})
		}
		uu.Heap.Sync()
		if err := cat.AnalyzeAll(); err != nil {
			t.Fatal(err)
		}
		return &testEnv{cat: cat, clock: clock}
	}
	// The function predicate hides the true selectivity (estimate 1/3,
	// truth 1/2) and the filtered t becomes the hash-join build side,
	// whose output IS counted.
	sql := "select t.k, u.k from t, u where t.k = u.k and absolute(t.v) < 3000"
	run := func(mode EstimatorMode) float64 {
		te := build()
		opts := fastOpts
		opts.estimator = mode
		ind, _ := runWithIndicatorMem(t, te, sql, opts, optimizer.Options{}, 1024)
		return costMAE(ind)
	}
	blendMAE := run(EstimatorBlend)
	linearMAE := run(EstimatorLinear)
	t.Logf("clustered data cost MAE: blend %.2fU linear %.2fU", blendMAE, linearMAE)
	if blendMAE >= linearMAE {
		t.Fatalf("blend should beat pure extrapolation on clustered data: %.2f vs %.2f",
			blendMAE, linearMAE)
	}
}

// In static mode the estimate must stay at the optimizer's value for the
// whole duration of the mispredicted segment, only jumping at segment
// completion — the coarse staircase the paper's refinement avoids.
func TestStaticModeIsStaircase(t *testing.T) {
	sql := `
		select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey and absolute(l.partkey) > 0`
	te := buildEnv(t, nil)
	opts := fastOpts
	opts.estimator = EstimatorStatic
	ind, _ := runWithIndicatorMem(t, te, sql, opts, optimizer.Options{}, 2)
	snaps := ind.Snapshots()
	// Count distinct estimate values: a staircase has very few.
	distinct := map[float64]bool{}
	for _, s := range snaps {
		distinct[math.Round(s.EstTotalU)] = true
	}
	if len(distinct) > len(ind.segs)+2 {
		t.Fatalf("static mode produced %d distinct estimates for %d segments (not a staircase)",
			len(distinct), len(ind.segs))
	}
}

// SegmentReports compares estimates with actuals after execution — the
// performance-tuning post-mortem of Section 6.
func TestSegmentReports(t *testing.T) {
	te := buildEnv(t, nil)
	sql := `
		select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey and absolute(l.partkey) > 0`
	ind, _ := runWithIndicatorMem(t, te, sql, fastOpts, optimizer.Options{}, 2)
	reports := ind.SegmentReports()
	if len(reports) < 3 {
		t.Fatalf("reports: %d", len(reports))
	}
	misestimated := false
	for _, r := range reports {
		if !r.Done {
			t.Fatalf("segment %d not done: %+v", r.ID, r)
		}
		if r.EndT < r.StartT {
			t.Fatalf("segment %d negative time", r.ID)
		}
		if r.ActualCostU <= 0 {
			t.Fatalf("segment %d no work recorded", r.ID)
		}
		// The lineitem partition segment's actual must exceed its
		// estimate (the 1/3 selectivity default).
		if r.ActualCostU > r.EstCostU*1.5 {
			misestimated = true
		}
	}
	if !misestimated {
		t.Fatal("expected at least one badly underestimated segment")
	}
}

func TestQError(t *testing.T) {
	for _, c := range []struct{ est, actual, want float64 }{
		{100, 100, 1}, {25, 100, 4}, {100, 25, 4}, {0.5, 2, 4},
		{0, 0, -1}, {0, 5, -1}, {5, 0, -1}, {50, -1, -1}, {-1, 8, -1},
	} {
		if got := QError(c.est, c.actual); got != c.want {
			t.Errorf("QError(%v, %v) = %v, want %v", c.est, c.actual, got, c.want)
		}
	}
}
