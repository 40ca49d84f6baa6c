package progressdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"progressdb/internal/exec"
	"progressdb/internal/storage"
)

// This file is the multi-core engine's proof suite, meant to run under
// -race: many goroutines executing mixed queries on one shared DB must
// produce exactly the serial results (multiset equality), every query's
// progress stream must stay monotone, the engine must pass its leak
// checks after the storm, and seeded multi-worker runs must replay
// identical per-query progress trajectories.

// concQueries are the storm's workload shapes over chaosDB's shared r/s
// tables: filter scan, external sort, spilled hash join, hash aggregate,
// and a semijoin — every operator family contending on one engine.
var concQueries = []string{
	"select * from r where v < 50",
	"select * from r order by pad desc, k",
	"select r.k, r.v, s.v from r, s where r.k = s.k",
	"select v, count(*), sum(k) from r group by v order by v",
	"select * from r where exists (select * from s where s.k = r.k)",
}

// TestConcurrentQueryStorm hammers one shared DB from many goroutines
// with every query shape at once and asserts the concurrency contract:
// each result is multiset-equal to its fault-free serial baseline, each
// query's DoneU is monotone with Percent in [0,100], and the engine
// holds no temp files, orphaned pages, or leaked pins afterwards.
func TestConcurrentQueryStorm(t *testing.T) {
	db := chaosDB(t)

	// Serial baselines first: the storm must reproduce exactly these.
	want := make([]uint64, len(concQueries))
	for i, sql := range concQueries {
		res, err := db.Exec(sql, nil)
		if err != nil {
			t.Fatalf("baseline %q: %v", sql, err)
		}
		if res.RowCount() == 0 {
			t.Fatalf("baseline %q returned no rows", sql)
		}
		want[i] = fingerprint(res)
	}

	const (
		goroutines       = 8
		queriesPerWorker = 4
	)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*queriesPerWorker)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < queriesPerWorker; j++ {
				qi := (g + j) % len(concQueries)
				var reps []Report
				res, err := db.Exec(concQueries[qi], func(r Report) { reps = append(reps, r) })
				if err != nil {
					errc <- fmt.Errorf("worker %d query %d: %v", g, qi, err)
					continue
				}
				if got := fingerprint(res); got != want[qi] {
					errc <- fmt.Errorf("worker %d query %d: WRONG RESULT %x, want %x", g, qi, got, want[qi])
				}
				if cerr := checkReports(reps, true, res.Plan.Segments); cerr != nil {
					errc <- fmt.Errorf("worker %d query %d: %v", g, qi, cerr)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("after storm: %v", err)
	}

	// The engine must still be correct serially after the storm.
	for qi, sql := range concQueries {
		res, err := db.Exec(sql, nil)
		if err != nil {
			t.Fatalf("post-storm rerun %q: %v", sql, err)
		}
		if got := fingerprint(res); got != want[qi] {
			t.Fatalf("post-storm rerun %q: fingerprint %x, want %x", sql, got, want[qi])
		}
	}
}

// TestConcurrentProgressMonotoneUnderContention runs the same long scan
// from several goroutines and checks each stream's full report shape —
// monotone DoneU, Elapsed, and SegmentsDone — while the shared clock
// group is being merged into from every side.
func TestConcurrentProgressMonotoneUnderContention(t *testing.T) {
	db := chaosDB(t)
	const workers = 6
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var reps []Report
			res, err := db.Exec("select v, count(*), sum(k) from r group by v order by v", func(r Report) { reps = append(reps, r) })
			if err != nil {
				errc <- fmt.Errorf("worker %d: %v", w, err)
				return
			}
			if cerr := checkReports(reps, true, res.Plan.Segments); cerr != nil {
				errc <- fmt.Errorf("worker %d: %v", w, cerr)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := db.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentGlobalTimeMonotone: DB.Now reads the shared clock group
// while queries run; observed global time must never move backwards.
func TestConcurrentGlobalTimeMonotone(t *testing.T) {
	db := chaosDB(t)
	stop := make(chan struct{})
	var obsErr error
	var owg sync.WaitGroup
	owg.Add(1)
	go func() {
		defer owg.Done()
		last := -1.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := db.Now()
			if now < last {
				obsErr = fmt.Errorf("global time regressed %g -> %g", last, now)
				return
			}
			last = now
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sql := concQueries[w%len(concQueries)]
			if _, err := db.ExecDiscard(sql, nil); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	owg.Wait()
	if obsErr != nil {
		t.Fatal(obsErr)
	}
	if now := db.Now(); now <= 0 {
		t.Fatalf("global time did not advance after concurrent queries: %g", now)
	}
}

// deterministicRun builds a fresh engine with per-worker disjoint
// tables, runs `workers` goroutines each executing its own seeded query
// sequence against its own tables, and returns every query's full
// progress history plus its terminal result stats. The buffer pool is
// sized to hold the whole working set so no cross-worker eviction can
// perturb any query's I/O pattern.
func deterministicRun(t *testing.T, workers, rounds int) [][]Result {
	t.Helper()
	db := Open(Config{
		WorkMemPages:          4,
		BufferPoolPages:       4096,
		ProgressUpdateSeconds: 0.1,
		SeqPageCost:           0.02, // stretch virtual time → several refreshes per query
		RandPageCost:          0.16,
		cpuTupleCost:          5e-5, // keep warm-cache rounds long enough to refresh too
	})
	pad := strings.Repeat("z", 60)
	for w := 0; w < workers; w++ {
		tbl := fmt.Sprintf("t%d", w)
		db.MustCreateTable(tbl, Col("k", Int), Col("v", Int), Col("pad", Text))
		rng := rand.New(rand.NewSource(int64(100 + w)))
		for i := 0; i < 2000; i++ {
			db.MustInsert(tbl, int64(i), int64(rng.Intn(50)), pad)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		t.Fatal(err)
	}

	out := make([][]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tbl := fmt.Sprintf("t%d", w)
			queries := []string{
				fmt.Sprintf("select * from %s where v < 25", tbl),
				fmt.Sprintf("select v, count(*), sum(k) from %s group by v order by v", tbl),
				fmt.Sprintf("select * from %s order by pad desc, k", tbl),
			}
			for j := 0; j < rounds; j++ {
				res, err := db.Exec(queries[j%len(queries)], nil)
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, j, err)
					return
				}
				out[w] = append(out[w], *res)
			}
		}(w)
	}
	wg.Wait()
	if err := db.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	return out
}

// nearlyEqual allows the last-ulp float drift in time-derived fields:
// worker clocks start at the merged group time, whose absolute value
// varies with scheduling, and float64 addition is not translation-
// invariant — relative durations computed from different absolute bases
// can differ in the final bits.
func nearlyEqual(x, y float64) bool {
	if x == y {
		return true
	}
	diff := x - y
	if diff < 0 {
		diff = -diff
	}
	scale := 1.0
	if ax := x; ax > scale {
		scale = ax
	}
	return diff <= 1e-9*scale
}

// sameReport compares two reports from replayed runs: the work
// accounting — DoneU, Percent, estimates, segment counters, refinement
// internals — must match bit for bit; elapsed/speed/remaining may drift
// by an ulp (see nearlyEqual).
func sameReport(x, y Report) bool {
	return x.DoneU == y.DoneU &&
		x.Percent == y.Percent &&
		x.EstimatedCostU == y.EstimatedCostU &&
		x.CurrentSegment == y.CurrentSegment &&
		x.SegmentsDone == y.SegmentsDone &&
		x.StepPercent == y.StepPercent &&
		x.CurrentP == y.CurrentP &&
		x.CurrentE1 == y.CurrentE1 &&
		x.CurrentE == y.CurrentE &&
		x.Finished == y.Finished &&
		nearlyEqual(x.ElapsedSeconds, y.ElapsedSeconds) &&
		nearlyEqual(x.SpeedU, y.SpeedU) &&
		nearlyEqual(x.RemainingSeconds, y.RemainingSeconds)
}

// TestConcurrentDeterminism is the seeded-replay regression: two
// identical multi-worker runs must produce, query for query, identical
// per-query DoneU/Percent trajectories and terminal reports. Each
// query's reports are relative to its own worker-clock start, so the
// trajectories replay exactly even though the goroutine interleaving
// does not.
func TestConcurrentDeterminism(t *testing.T) {
	const workers, rounds = 4, 3
	a := deterministicRun(t, workers, rounds)
	b := deterministicRun(t, workers, rounds)
	for w := 0; w < workers; w++ {
		if len(a[w]) != len(b[w]) {
			t.Fatalf("worker %d: %d results vs %d", w, len(a[w]), len(b[w]))
		}
		for j := range a[w] {
			ra, rb := a[w][j], b[w][j]
			if !nearlyEqual(ra.VirtualSeconds, rb.VirtualSeconds) {
				t.Errorf("worker %d round %d: VirtualSeconds %g vs %g", w, j, ra.VirtualSeconds, rb.VirtualSeconds)
			}
			if len(ra.History) != len(rb.History) {
				t.Fatalf("worker %d round %d: %d reports vs %d", w, j, len(ra.History), len(rb.History))
			}
			if len(ra.History) < 2 {
				t.Fatalf("worker %d round %d: only %d progress reports; queries too short to regress anything", w, j, len(ra.History))
			}
			for k := range ra.History {
				if !sameReport(ra.History[k], rb.History[k]) {
					t.Errorf("worker %d round %d report %d:\n  run A: %+v\n  run B: %+v", w, j, k, ra.History[k], rb.History[k])
				}
			}
			term := ra.History[len(ra.History)-1]
			if !term.Finished {
				t.Errorf("worker %d round %d: last report not terminal: %+v", w, j, term)
			}
		}
	}
}

// TestConcurrentCancellation: canceled queries unwinding mid-storm must
// release their scans, pins, and temp files while neighbors finish
// untouched.
func TestConcurrentCancellation(t *testing.T) {
	db := chaosDB(t)
	base, err := db.Exec("select r.k, r.v, s.v from r, s where r.k = s.k", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(base)

	const workers = 6
	var wg sync.WaitGroup
	canceled := make([]bool, workers)
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				// Survivor: full join, result must be exact.
				res, err := db.Exec("select r.k, r.v, s.v from r, s where r.k = s.k", nil)
				if err != nil {
					errc <- fmt.Errorf("survivor %d: %v", w, err)
					return
				}
				if fingerprint(res) != want {
					errc <- fmt.Errorf("survivor %d: wrong result", w)
				}
				return
			}
			// Victim: cancel itself after the second progress report.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reports := 0
			_, err := db.ExecContext(ctx, "select * from r order by pad desc, k", func(Report) {
				if reports++; reports == 2 {
					cancel()
				}
			})
			if err == nil {
				errc <- fmt.Errorf("victim %d: cancellation did not surface", w)
				return
			}
			var ioFault *storage.IOFault
			var internal *exec.InternalError
			if errors.As(err, &ioFault) || errors.As(err, &internal) {
				errc <- fmt.Errorf("victim %d: unexpected failure type %T: %v", w, err, err)
				return
			}
			canceled[w] = true
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	sawCancel := false
	for _, c := range canceled {
		sawCancel = sawCancel || c
	}
	if !sawCancel {
		t.Fatal("no victim actually canceled")
	}
	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("after concurrent cancels: %v", err)
	}
}
