// Benchmarks for what the paper describes but did not measure: the
// sort-merge-join rule, the choice of the speed window T, and genuine
// two-query contention. Each runs the full scenario (generate data,
// plan, execute with the progress indicator) once per iteration and
// reports the run's virtual figures:
//
//	est0_U    the optimizer's initial cost estimate (U)
//	exact_U   the true query cost (U)
//	vdur_s    the query's virtual duration (seconds)
//	mae_s     mean |estimated − actual| remaining time after warm-up
//
// The paper's own table and figures are pinned byte for byte by
// internal/harness's TestResultsGolden; wall-clock cost is bench/'s.
//
// Run with: go test -bench=. -benchmem
package progressdb_test

import (
	"math"
	"testing"

	"progressdb"
	"progressdb/internal/harness"
	"progressdb/internal/optimizer"
)

const benchScale = 0.01

func reportRun(b *testing.B, res *harness.RunResult) {
	b.Helper()
	b.ReportMetric(res.InitialEstU, "est0_U")
	b.ReportMetric(res.ExactCostU, "exact_U")
	b.ReportMetric(res.ActualSeconds, "vdur_s")
	var mae float64
	n := 0
	for _, s := range res.History {
		if s.ElapsedSeconds < 20 || s.Finished {
			continue
		}
		mae += math.Abs(s.RemainingSeconds - (res.ActualSeconds - s.ElapsedSeconds))
		n++
	}
	if n > 0 {
		b.ReportMetric(mae/float64(n), "mae_s")
	}
}

// BenchmarkExtraSMJProgress exercises the sort-merge-join rule (two
// dominant inputs, p = max(qA, qB)) that the paper describes in Section
// 4.5 but left out of its prototype: customer⋈orders with the merge join
// forced, on a DB opened as the harness opens one.
func BenchmarkExtraSMJProgress(b *testing.B) {
	const sql = "select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey"
	runner := harness.Runner{Scale: benchScale}
	var res *progressdb.Result
	for i := 0; i < b.N; i++ {
		db, err := runner.OpenDB(false)
		if err != nil {
			b.Fatal(err)
		}
		res, _, err = db.ExecPlan(sql, optimizer.Options{ForceJoinAlgo: "merge"}, func(string) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
	}
	// Prepare prices the optimizer's own plan; the forced plan's
	// initial estimate is the sum of its segments'.
	run := &harness.RunResult{History: res.History, ActualSeconds: res.VirtualSeconds}
	for _, s := range res.Plan.Segments {
		run.InitialEstU += s.EstCostU
	}
	run.ExactCostU = res.History[len(res.History)-1].DoneU
	reportRun(b, run)
}

// --- Ablation of the speed window T (DESIGN.md §4, A-T) ---

// reportAblation adds cost- and remaining-time error metrics.
func reportAblation(b *testing.B, res *harness.RunResult) {
	b.Helper()
	var costMAE float64
	n := 0
	for _, s := range res.History {
		if s.Finished {
			continue
		}
		costMAE += math.Abs(s.EstimatedCostU - res.ExactCostU)
		n++
	}
	if n > 0 {
		b.ReportMetric(costMAE/float64(n), "costmae_U")
	}
	reportRun(b, res)
}

func benchAblation(b *testing.B, r harness.Runner) {
	r.Scale = benchScale
	var res *harness.RunResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = r.Run(2, harness.Interference{}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAblation(b, res)
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

// BenchmarkExtraConcurrentContention runs two paper queries concurrently
// via the group scheduler — the Section 6 "pool of running queries"
// setting with genuine contention instead of synthetic interference —
// and reports how much the concurrency stretches Q1.
func BenchmarkExtraConcurrentContention(b *testing.B) {
	var stretch float64
	for i := 0; i < b.N; i++ {
		mk := func() *progressdb.DB {
			db := progressdb.Open(progressdb.Config{
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
		q1, err := progressdb.PaperQuery(1)
		if err != nil {
			b.Fatal(err)
		}
		q2, err := progressdb.PaperQuery(2)
		if err != nil {
			b.Fatal(err)
		}
		solo, err := mk().ExecGroup([]progressdb.GroupQuery{{Name: "q1", SQL: q1}})
		if err != nil {
			b.Fatal(err)
		}
		both, err := mk().ExecGroup([]progressdb.GroupQuery{
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
