package progressdb_test

import (
	"cmp"
	"fmt"
	"sync"
	"testing"

	"progressdb"
	"progressdb/internal/core"
	"progressdb/internal/harness"
	"progressdb/internal/vclock"
)

// TestFiguresPathMatchesDB: the paper's figures come from
// internal/harness, which assembles its own engine; users run queries
// through DB. For each scenario both paths must agree exactly — the
// optimizer's initial estimate, the virtual duration, the row count and
// every refresh, field for field — so a figure in results/ is a
// statement about the engine progressd serves.
func TestFiguresPathMatchesDB(t *testing.T) {
	const scale = 0.005
	runner := harness.Runner{Scale: scale}
	base := vclock.DefaultCosts()
	scenarios := []struct {
		q      int
		interf harness.Interference
		pool   int // buffer-pool pages; 0 is the harness's 64 at this scale
	}{
		{1, harness.Interference{}, 0}, {2, harness.Interference{}, 0}, {3, harness.Interference{}, 0},
		{4, harness.Interference{}, 0}, {5, harness.Interference{}, 0},
		{2, harness.IOInterf, 0}, {5, harness.CPUInterf, 0},
		// A pool that holds the data set: only here does a run that
		// starts warm differ from a cold one.
		{1, harness.Interference{}, 1024},
	}
	// A query's unloaded run is its own scenario and places its
	// interference: run it once.
	var unloaded [6]func() (*harness.RunResult, error)
	for q := 1; q <= 5; q++ {
		unloaded[q] = sync.OnceValues(func() (*harness.RunResult, error) {
			return runner.Run(q, harness.Interference{})
		})
	}
	for _, sc := range scenarios {
		pool := cmp.Or(sc.pool, 64)
		name := fmt.Sprintf("Q%d/%s/pool%d", sc.q, cmp.Or(sc.interf.Kind, "unloaded"), pool)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			u, err := unloaded[sc.q]()
			if err != nil {
				t.Fatal(err)
			}
			want := u
			if sc.interf.Kind != "" || sc.pool != 0 {
				r := harness.Runner{Scale: scale, BufferPoolPages: pool}
				if want, err = r.Run(sc.q, sc.interf); err != nil {
					t.Fatal(err)
				}
			}
			db := progressdb.Open(progressdb.Config{
				SeqPageCost:     base.SeqPage / scale,
				RandPageCost:    base.RandPage / scale,
				BufferPoolPages: pool,
				WorkMemPages:    16,
			})
			if err := db.LoadPaperWorkload(scale, sc.q == 3); err != nil {
				t.Fatal(err)
			}
			if err := db.ColdRestart(); err != nil {
				t.Fatal(err)
			}
			sql, err := progressdb.PaperQuery(sc.q)
			if err != nil {
				t.Fatal(err)
			}
			if est, err := db.EstimateCostU(sql); err != nil || est != want.InitialEstU {
				t.Fatalf("EstimateCostU = %v, %v; the harness starts from %v", est, err, want.InitialEstU)
			}
			if in := sc.interf; in.Kind != "" {
				// As the harness places it: at fractions of the query's
				// unloaded duration, "until far past the end" when the
				// interval is open.
				d, now := u.ActualSeconds, db.Now()
				end := now + d*in.EndFrac
				if in.EndFrac <= in.StartFrac {
					end = now + d*1000
				}
				if err := db.SetInterference(in.Kind, now+d*in.StartFrac, end, in.Factor); err != nil {
					t.Fatal(err)
				}
			}
			got, err := db.ExecDiscard(sql, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.VirtualSeconds != want.ActualSeconds || int64(got.RowCount()) != want.Rows {
				t.Errorf("DB ran %v s for %d rows; the harness %v s for %d rows",
					got.VirtualSeconds, got.RowCount(), want.ActualSeconds, want.Rows)
			}
			if len(got.History) != len(want.Snapshots) {
				t.Fatalf("DB took %d refreshes, the harness %d", len(got.History), len(want.Snapshots))
			}
			for i, s := range want.Snapshots {
				if r := reportOf(s); got.History[i] != r {
					t.Fatalf("refresh %d:\n DB      %+v\n harness %+v", i, got.History[i], r)
				}
			}
			t.Logf("%d refreshes match", len(got.History))
		})
	}
}

// reportOf is the Report DB publishes for snapshot s.
func reportOf(s core.Snapshot) progressdb.Report {
	return progressdb.Report{
		ElapsedSeconds:   s.Elapsed,
		EstimatedCostU:   s.EstTotalU,
		DoneU:            s.DoneU,
		Percent:          s.Percent,
		SpeedU:           s.SpeedU,
		RemainingSeconds: s.RemainingSeconds,
		CurrentSegment:   s.CurrentSegment,
		SegmentsDone:     s.SegmentsDone,
		StepPercent:      s.StepPercent,
		CurrentP:         s.CurrentP,
		CurrentE1:        s.CurrentE1,
		CurrentE:         s.CurrentE,
		Finished:         s.Finished,
	}
}
