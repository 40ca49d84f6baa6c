// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Each bench runs the full scenario (generate data,
// plan, execute with the progress indicator) once per iteration and
// reports the reproduction metrics alongside wall time:
//
//	est0_U    the optimizer's initial cost estimate (U)
//	exact_U   the true query cost (U)
//	vdur_s    the query's virtual duration (seconds)
//	mae_s     mean |estimated − actual| remaining time after warm-up
//
// Run with: go test -bench=. -benchmem
package progressdb

import (
	"math"
	"testing"

	"progressdb/internal/core"
	"progressdb/internal/harness"
)

const benchScale = 0.01

func benchFigure(b *testing.B, id string) {
	e, ok := harness.ExperimentByID(id)
	if !ok {
		b.Fatalf("no experiment %s", id)
	}
	runner := harness.Runner{Scale: benchScale, Seed: 1}
	var res *harness.RunResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = runner.Run(e.Query, e.Interf)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRun(b, res)
}

func reportRun(b *testing.B, res *harness.RunResult) {
	b.Helper()
	b.ReportMetric(res.InitialEstU, "est0_U")
	b.ReportMetric(res.ExactCostU, "exact_U")
	b.ReportMetric(res.ActualSeconds, "vdur_s")
	var mae float64
	n := 0
	for _, s := range res.Snapshots {
		if s.Elapsed < 20 || s.Finished {
			continue
		}
		mae += math.Abs(s.RemainingSeconds - (res.ActualSeconds - s.Elapsed))
		n++
	}
	if n > 0 {
		b.ReportMetric(mae/float64(n), "mae_s")
	}
}

// BenchmarkTable1DataSet regenerates the paper's Table 1 data set.
func BenchmarkTable1DataSet(b *testing.B) {
	runner := harness.Runner{Scale: benchScale, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := runner.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 4–7: Q1 on an unloaded system.
func BenchmarkFig04Q1Cost(b *testing.B)      { benchFigure(b, "fig04") }
func BenchmarkFig05Q1Speed(b *testing.B)     { benchFigure(b, "fig05") }
func BenchmarkFig06Q1Remaining(b *testing.B) { benchFigure(b, "fig06") }
func BenchmarkFig07Q1Percent(b *testing.B)   { benchFigure(b, "fig07") }

// Figures 9–12: Q2 on an unloaded system.
func BenchmarkFig09Q2Cost(b *testing.B)      { benchFigure(b, "fig09") }
func BenchmarkFig10Q2Speed(b *testing.B)     { benchFigure(b, "fig10") }
func BenchmarkFig11Q2Remaining(b *testing.B) { benchFigure(b, "fig11") }
func BenchmarkFig12Q2Percent(b *testing.B)   { benchFigure(b, "fig12") }

// Figures 13–16: Q2 under I/O interference (the file copy).
func BenchmarkFig13Q2CostIO(b *testing.B)      { benchFigure(b, "fig13") }
func BenchmarkFig14Q2SpeedIO(b *testing.B)     { benchFigure(b, "fig14") }
func BenchmarkFig15Q2RemainingIO(b *testing.B) { benchFigure(b, "fig15") }
func BenchmarkFig16Q2PercentIO(b *testing.B)   { benchFigure(b, "fig16") }

// Figure 17: Q3 with correlated orders data.
func BenchmarkFig17Q3Cost(b *testing.B) { benchFigure(b, "fig17") }

// Figure 18: Q4 with misestimates on both joins.
func BenchmarkFig18Q4Cost(b *testing.B) { benchFigure(b, "fig18") }

// Figures 19–20: the CPU-bound Q5, unloaded and under CPU interference.
func BenchmarkFig19Q5Remaining(b *testing.B)    { benchFigure(b, "fig19") }
func BenchmarkFig20Q5RemainingCPU(b *testing.B) { benchFigure(b, "fig20") }

// BenchmarkOverheadOn/Off back the paper's "< 1% penalty on the running
// time of queries" claim: identical Q2 executions with the indicator
// attached and detached. Compare ns/op between the two.
func BenchmarkOverheadOn(b *testing.B) { benchOverhead(b, true) }

func BenchmarkOverheadOff(b *testing.B) { benchOverhead(b, false) }

func benchOverhead(b *testing.B, withIndicator bool) {
	runner := harness.Runner{Scale: benchScale, Seed: 1}
	probe, err := runner.OverheadProbe(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := probe(withIndicator); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtraSMJProgress exercises the sort-merge-join rule (two
// dominant inputs, p = max(qA, qB)) that the paper describes in Section
// 4.5 but left out of its prototype.
func BenchmarkExtraSMJProgress(b *testing.B) {
	runner := harness.Runner{Scale: benchScale, Seed: 1}
	var res *harness.RunResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = runner.RunSMJ()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRun(b, res)
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// reportAblation adds cost- and remaining-time error metrics.
func reportAblation(b *testing.B, res *harness.RunResult) {
	b.Helper()
	var costMAE float64
	n := 0
	for _, s := range res.Snapshots {
		if s.Finished {
			continue
		}
		costMAE += math.Abs(s.EstTotalU - res.ExactCostU)
		n++
	}
	if n > 0 {
		b.ReportMetric(costMAE/float64(n), "costmae_U")
	}
	reportRun(b, res)
}

func benchAblation(b *testing.B, r harness.Runner) {
	r.Scale = benchScale
	r.Seed = 1
	var res *harness.RunResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = r.Run(2, harness.Interference{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAblation(b, res)
}

// Section 4.5 blend vs never-refining vs raw extrapolation.
func BenchmarkAblationEstimatorBlend(b *testing.B) {
	benchAblation(b, harness.Runner{Estimator: core.EstimatorBlend})
}

func BenchmarkAblationEstimatorStatic(b *testing.B) {
	benchAblation(b, harness.Runner{Estimator: core.EstimatorStatic})
}

func BenchmarkAblationEstimatorLinear(b *testing.B) {
	benchAblation(b, harness.Runner{Estimator: core.EstimatorLinear})
}

// Section 4.6 speed-window size T (paper: 10 s; too small is jumpy, too
// large lags load changes).
func BenchmarkAblationSpeedWindowT2(b *testing.B) {
	benchAblation(b, harness.Runner{SpeedWindow: 2})
}

func BenchmarkAblationSpeedWindowT10(b *testing.B) {
	benchAblation(b, harness.Runner{SpeedWindow: 10})
}

func BenchmarkAblationSpeedWindowT50(b *testing.B) {
	benchAblation(b, harness.Runner{SpeedWindow: 50})
}

// The paper's two suggested Section 4.6 refinements.
func BenchmarkAblationDecayingAverage(b *testing.B) {
	benchAblation(b, harness.Runner{DecayAlpha: 0.3})
}

func BenchmarkAblationPerSegmentSpeed(b *testing.B) {
	benchAblation(b, harness.Runner{PerSegmentSpeed: true})
}

// BenchmarkExtraConcurrentContention runs two paper queries concurrently
// via the group scheduler — the Section 6 "pool of running queries"
// setting with genuine contention instead of synthetic interference —
// and reports how much the concurrency stretches Q1.
func BenchmarkExtraConcurrentContention(b *testing.B) {
	var stretch float64
	for i := 0; i < b.N; i++ {
		mk := func() *DB {
			db := Open(Config{
				WorkMemPages:    16,
				SeqPageCost:     0.8e-3 / benchScale,
				RandPageCost:    6.4e-3 / benchScale,
				BufferPoolPages: 128,
			})
			if err := db.LoadPaperWorkload(benchScale, false); err != nil {
				b.Fatal(err)
			}
			if err := db.ColdRestart(); err != nil {
				b.Fatal(err)
			}
			return db
		}
		q1, err := PaperQuery(1)
		if err != nil {
			b.Fatal(err)
		}
		q2, err := PaperQuery(2)
		if err != nil {
			b.Fatal(err)
		}
		solo, err := mk().ExecGroup([]GroupQuery{{Name: "q1", SQL: q1}})
		if err != nil {
			b.Fatal(err)
		}
		both, err := mk().ExecGroup([]GroupQuery{
			{Name: "q1", SQL: q1},
			{Name: "q2", SQL: q2},
		})
		if err != nil {
			b.Fatal(err)
		}
		stretch = both[0].VirtualSeconds / solo[0].VirtualSeconds
	}
	b.ReportMetric(stretch, "stretch_x")
}
