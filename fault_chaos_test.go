package progressdb

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"progressdb/internal/exec"
	"progressdb/internal/faultinject"
	"progressdb/internal/storage"
)

// This file is the engine's randomized fault-schedule property suite:
// run representative spilling workloads under hundreds of deterministic
// random fault schedules and assert, for every schedule, the engine's
// failure-model invariants:
//
//  1. Either the query errors, or its result is exactly correct —
//     never a silently wrong result.
//  2. No temp/spill files or buffer-pool pages leak, even when the
//     query dies mid-spill or via an injected panic (CheckLeaks).
//  3. The engine stays usable for subsequent queries.
//  4. Progress reporting stays sane up to the failure point: DoneU is
//     monotone and Percent stays in [0, 100]. (Percent itself may dip
//     when a segment's estimate is refined upward — that is the
//     paper's design, not a defect — so monotonicity is asserted on
//     work done, not on the ratio.)
//
// Schedules are generated from one seeded RNG, so a failure reproduces
// exactly; the failing spec string is printed for replay via
// Config.FaultSpec or progressd -fault.

// chaosDB builds two small tables with a tiny work_mem so every join,
// sort, and aggregate in the query list spills to temp files.
func chaosDB(t testing.TB) *DB {
	t.Helper()
	db := Open(Config{
		WorkMemPages:          2,
		BufferPoolPages:       32,
		ProgressUpdateSeconds: 0.5,
		SeqPageCost:           0.005,
		RandPageCost:          0.04,
		Metrics:               true,
	})
	rng := rand.New(rand.NewSource(1))
	db.MustCreateTable("r", Col("k", Int), Col("v", Int), Col("pad", Text))
	db.MustCreateTable("s", Col("k", Int), Col("v", Int))
	pad := strings.Repeat("y", 60)
	for i := 0; i < 4000; i++ {
		db.MustInsert("r", int64(i), int64(rng.Intn(100)), pad)
	}
	for i := 0; i < 3000; i++ {
		db.MustInsert("s", int64(rng.Intn(4000)), int64(i))
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	return db
}

// chaosQueries are the workload shapes exercised under fault schedules:
// filter scan, external sort, spilled hash join, hash aggregate with
// sort, and a semijoin — the paper's Q1–Q5 operator mix in miniature.
var chaosQueries = []string{
	"select * from r where v < 50",
	"select * from r order by pad desc, k",
	"select r.k, r.v, s.v from r, s where r.k = s.k",
	"select v, count(*), sum(k) from r group by v order by v",
	"select * from r where exists (select * from s where s.k = r.k)",
}

// fingerprint reduces a result to an order-insensitive hash so "wrong
// result" is detectable without storing full baselines.
func fingerprint(res *Result) uint64 {
	rows := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		rows = append(rows, fmt.Sprint(row...))
	}
	sort.Strings(rows)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|", len(rows))
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// baselines runs every chaos query fault-free and records its
// fingerprint.
func baselines(t *testing.T, db *DB) []uint64 {
	t.Helper()
	out := make([]uint64, len(chaosQueries))
	for i, sql := range chaosQueries {
		res, err := db.Exec(sql, nil)
		if err != nil {
			t.Fatalf("baseline %q: %v", sql, err)
		}
		if res.RowCount() == 0 {
			t.Fatalf("baseline %q returned no rows; workload too small to test anything", sql)
		}
		out[i] = fingerprint(res)
	}
	return out
}

// randomSchedule draws one fault schedule. Roughly a third of the
// probability mass goes to each of read-side, write-side, and mixed
// schedules; latency, transient mix, targets, ordinal faults, and
// panics are sprinkled independently.
func randomSchedule(r *rand.Rand) faultinject.Config {
	cfg := faultinject.Config{Seed: r.Int63n(1<<30) + 1}
	prob := func() float64 { return []float64{0.001, 0.005, 0.02, 0.08}[r.Intn(4)] }
	switch r.Intn(4) {
	case 0:
		cfg.ReadErrProb = prob()
	case 1:
		cfg.WriteErrProb = prob()
	case 2:
		cfg.ReadErrProb, cfg.WriteErrProb = prob(), prob()
	case 3: // ordinal schedule
		if r.Intn(2) == 0 {
			cfg.FailNthRead = r.Int63n(200) + 1
		} else {
			cfg.FailNthWrite = r.Int63n(50) + 1
		}
	}
	cfg.TransientProb = []float64{0, 0.5, 1}[r.Intn(3)]
	if r.Intn(3) == 0 {
		cfg.LatencyProb = 0.1
		cfg.LatencySeconds = 0.002
	}
	cfg.Target = []faultinject.Target{
		faultinject.TargetAll, faultinject.TargetBase, faultinject.TargetTemp,
	}[r.Intn(3)]
	if r.Intn(8) == 0 {
		cfg.PanicNth = r.Int63n(300) + 1
	}
	if r.Intn(4) == 0 {
		cfg.MaxFaults = r.Int63n(4) + 1
	}
	return cfg
}

// TestChaosRandomFaultSchedules is the tentpole property test. The
// schedule count scales with PROGRESSDB_CHAOS_SCHEDULES (see the
// Makefile's chaos target); the default keeps `go test ./...` fast.
func TestChaosRandomFaultSchedules(t *testing.T) {
	schedules := 60
	if s := os.Getenv("PROGRESSDB_CHAOS_SCHEDULES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("PROGRESSDB_CHAOS_SCHEDULES=%q: %v", s, err)
		}
		schedules = n
	}
	db := chaosDB(t)
	want := baselines(t, db)
	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("baseline leak check: %v", err)
	}

	rng := rand.New(rand.NewSource(20260806))
	faulted := 0
	for i := 0; i < schedules; i++ {
		cfg := randomSchedule(rng)
		spec := cfg.String()
		qi := rng.Intn(len(chaosQueries))
		tag := fmt.Sprintf("schedule %d %q on query %d %q", i, spec, qi, chaosQueries[qi])

		if err := db.SetFaultSpec(spec); err != nil {
			t.Fatalf("%s: SetFaultSpec: %v", tag, err)
		}
		lastDone := -1.0
		res, err := db.ExecContext(context.Background(), chaosQueries[qi], func(r Report) {
			if r.DoneU < lastDone-1e-9 {
				t.Errorf("%s: DoneU regressed %g -> %g", tag, lastDone, r.DoneU)
			}
			lastDone = r.DoneU
			if r.Percent < 0 || r.Percent > 100+1e-9 {
				t.Errorf("%s: Percent %g outside [0,100]", tag, r.Percent)
			}
		})
		stats := db.FaultStats()
		if serr := db.SetFaultSpec(""); serr != nil {
			t.Fatalf("%s: clearing fault spec: %v", tag, serr)
		}

		if err != nil {
			faulted++
			// Property 1 (error half): the failure must be a typed,
			// explainable error — an injected I/O fault somewhere in the
			// chain, or a contained panic.
			var ioFault *storage.IOFault
			var internal *exec.InternalError
			if !errors.As(err, &ioFault) && !errors.As(err, &internal) {
				t.Fatalf("%s: untyped failure: %T %v", tag, err, err)
			}
			if internal != nil && stats.Panics == 0 {
				t.Fatalf("%s: internal error without an injected panic: %v", tag, err)
			}
		} else if got := fingerprint(res); got != want[qi] {
			// Property 1 (success half): never a wrong result.
			t.Fatalf("%s: WRONG RESULT: fingerprint %x, want %x (stats %+v)",
				tag, got, want[qi], stats)
		}
		// Property 2: nothing leaked, even mid-spill or post-panic.
		if err := db.CheckLeaks(); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
	if faulted == 0 {
		t.Fatalf("no schedule out of %d caused a failure; the suite is not exercising error paths", schedules)
	}

	// Property 3: after every schedule, the engine still answers every
	// query correctly with no injector installed.
	for qi, sql := range chaosQueries {
		res, err := db.Exec(sql, nil)
		if err != nil {
			t.Fatalf("post-chaos rerun %q: %v", sql, err)
		}
		if got := fingerprint(res); got != want[qi] {
			t.Fatalf("post-chaos rerun %q: fingerprint %x, want %x", sql, got, want[qi])
		}
	}
	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("post-chaos leak check: %v", err)
	}
	t.Logf("chaos: %d/%d schedules induced a query failure; engine stayed correct and leak-free", faulted, schedules)
}

// TestChaosConcurrentWorkers is the storm variant of the chaos suite:
// each random schedule is exercised by several goroutines at once on
// the shared engine, so injected faults land while neighbors hold
// latches, pins, and temp files. Per query the invariants are the same
// — error-or-correct, typed failures only — and after every schedule
// the engine must be leak-free and reusable. The worker count scales
// with PROGRESSDB_CHAOS_WORKERS (the Makefile chaos target raises it).
func TestChaosConcurrentWorkers(t *testing.T) {
	workers := 4
	if s := os.Getenv("PROGRESSDB_CHAOS_WORKERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 2 {
			t.Fatalf("PROGRESSDB_CHAOS_WORKERS=%q: %v", s, err)
		}
		workers = n
	}
	const schedules = 8
	db := chaosDB(t)
	want := baselines(t, db)

	rng := rand.New(rand.NewSource(20260809))
	faulted := 0
	for i := 0; i < schedules; i++ {
		cfg := randomSchedule(rng)
		spec := cfg.String()
		if err := db.SetFaultSpec(spec); err != nil {
			t.Fatalf("schedule %d %q: SetFaultSpec: %v", i, spec, err)
		}

		var wg sync.WaitGroup
		errc := make(chan error, workers)
		var failures atomic.Int64
		for w := 0; w < workers; w++ {
			qi := rng.Intn(len(chaosQueries))
			wg.Add(1)
			go func(w, qi int) {
				defer wg.Done()
				tag := fmt.Sprintf("schedule %d %q worker %d query %d", i, spec, w, qi)
				lastDone := -1.0
				res, err := db.Exec(chaosQueries[qi], func(r Report) {
					if r.DoneU < lastDone-1e-9 {
						errc <- fmt.Errorf("%s: DoneU regressed %g -> %g", tag, lastDone, r.DoneU)
					}
					lastDone = r.DoneU
				})
				if err != nil {
					failures.Add(1)
					var ioFault *storage.IOFault
					var internal *exec.InternalError
					if !errors.As(err, &ioFault) && !errors.As(err, &internal) {
						errc <- fmt.Errorf("%s: untyped failure: %T %v", tag, err, err)
					}
					return
				}
				if got := fingerprint(res); got != want[qi] {
					errc <- fmt.Errorf("%s: WRONG RESULT %x, want %x", tag, got, want[qi])
				}
			}(w, qi)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
		if failures.Load() > 0 {
			faulted++
		}
		if serr := db.SetFaultSpec(""); serr != nil {
			t.Fatalf("schedule %d: clearing fault spec: %v", i, serr)
		}
		if err := db.CheckLeaks(); err != nil {
			t.Fatalf("schedule %d %q: %v", i, spec, err)
		}
	}
	if faulted == 0 {
		t.Fatalf("no schedule out of %d caused a failure under %d workers; the suite is not exercising error paths", schedules, workers)
	}

	// Reusable after the concurrent storms: every query answers
	// correctly, serially, with no injector installed.
	for qi, sql := range chaosQueries {
		res, err := db.Exec(sql, nil)
		if err != nil {
			t.Fatalf("post-chaos rerun %q: %v", sql, err)
		}
		if got := fingerprint(res); got != want[qi] {
			t.Fatalf("post-chaos rerun %q: fingerprint %x, want %x", sql, got, want[qi])
		}
	}
	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("post-chaos leak check: %v", err)
	}
	t.Logf("chaos: %d/%d schedules induced failures under %d concurrent workers; engine stayed correct and leak-free",
		faulted, schedules, workers)
}

// TestFaultMatrixSmoke is the CI fast path: 3 seeds × {read-fault,
// write-fault, latency}, each over the spilled join, asserting the same
// error-or-correct / no-leak / reusable invariants (ci.sh runs exactly
// this test; the Makefile chaos target runs the full random suite).
func TestFaultMatrixSmoke(t *testing.T) {
	db := chaosDB(t)
	const joinQ = "select r.k, r.v, s.v from r, s where r.k = s.k"
	base, err := db.Exec(joinQ, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(base)

	for seed := int64(1); seed <= 3; seed++ {
		for _, kind := range []string{
			fmt.Sprintf("seed=%d,readerr=0.02,transient=0.5", seed),
			fmt.Sprintf("seed=%d,writeerr=0.02,transient=0.5,target=temp", seed),
			fmt.Sprintf("seed=%d,latency=0.2:0.01", seed),
		} {
			if err := db.SetFaultSpec(kind); err != nil {
				t.Fatal(err)
			}
			res, err := db.Exec(joinQ, nil)
			if serr := db.SetFaultSpec(""); serr != nil {
				t.Fatal(serr)
			}
			if err == nil && fingerprint(res) != want {
				t.Fatalf("spec %q: wrong result", kind)
			}
			if err := db.CheckLeaks(); err != nil {
				t.Fatalf("spec %q: %v", kind, err)
			}
		}
	}
	// Latency-only schedules must never fail the query, only slow it.
	if err := db.SetFaultSpec("seed=9,latency=1:0.01"); err != nil {
		t.Fatal(err)
	}
	slow, err := db.Exec(joinQ, nil)
	if err != nil {
		t.Fatalf("latency-only schedule failed the query: %v", err)
	}
	if fingerprint(slow) != want {
		t.Fatal("latency-only schedule changed the result")
	}
	if st := db.FaultStats(); st.LatencyEvents == 0 {
		t.Fatalf("latency schedule injected nothing: %+v", st)
	}
	if slow.VirtualSeconds <= base.VirtualSeconds {
		t.Fatalf("injected latency did not slow the query: %g <= %g",
			slow.VirtualSeconds, base.VirtualSeconds)
	}
	if err := db.SetFaultSpec(""); err != nil {
		t.Fatal(err)
	}
}

// TestTransientFaultsAbsorbed pins the storage layer's transient-fault
// contract that the fleet coordinator's retry/breaker layer builds on: a
// transient burst shorter than the bufferpool's per-access attempt
// budget (4 tries) is absorbed entirely inside the engine — the query
// succeeds with the correct result, the retry counters move, and the
// caller never sees an error.
func TestTransientFaultsAbsorbed(t *testing.T) {
	db := chaosDB(t)
	const q = "select * from r where v < 50"
	base, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(base)
	if err := db.ColdRestart(); err != nil {
		t.Fatal(err) // the schedule targets disk reads; drop the warm pool
	}

	// readerr=1 faults every read until the cap: 3 consecutive transient
	// faults on the first access, all inside the 4-attempt budget.
	if err := db.SetFaultSpec("seed=5,readerr=1,transient=1,max=3,target=base"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(q, nil)
	st := db.FaultStats()
	if serr := db.SetFaultSpec(""); serr != nil {
		t.Fatal(serr)
	}
	if err != nil {
		t.Fatalf("transient burst under the attempt budget surfaced: %v", err)
	}
	if fingerprint(res) != want {
		t.Fatal("transient burst changed the result")
	}
	if st.TransientFaults != 3 {
		t.Fatalf("fault stats = %+v, want exactly 3 transient faults", st)
	}
	var retries float64
	for _, sm := range db.Metrics() {
		if sm.Name == "storage_io_retries_total" {
			retries = sm.Value
		}
	}
	if retries < 3 {
		t.Fatalf("storage_io_retries_total = %g, want >= 3", retries)
	}
	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("after absorbed transients: %v", err)
	}
}

// TestInjectedPanicContained: a scheduled panic mid-query surfaces as a
// typed *exec.InternalError, fails only that query, and leaks nothing.
func TestInjectedPanicContained(t *testing.T) {
	db := chaosDB(t)
	if err := db.SetFaultSpec("panicnth=30"); err != nil {
		t.Fatal(err)
	}
	_, err := db.ExecDiscard("select r.k, r.v, s.v from r, s where r.k = s.k", nil)
	var internal *exec.InternalError
	if !errors.As(err, &internal) {
		t.Fatalf("err = %T %v, want *exec.InternalError", err, err)
	}
	if len(internal.Stack) == 0 {
		t.Fatal("internal error carries no stack trace")
	}
	if st := db.FaultStats(); st.Panics != 1 {
		t.Fatalf("fault stats = %+v, want 1 panic", st)
	}
	if err := db.SetFaultSpec(""); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("after contained panic: %v", err)
	}
	res, err := db.Exec("select * from r where v < 50", nil)
	if err != nil || res.RowCount() == 0 {
		t.Fatalf("engine unusable after contained panic: %v", err)
	}
}

// TestInjectedPanicInGroupFailsOnlyMember: the group boundary contains
// a member's injected crash; its neighbors complete normally.
func TestInjectedPanicInGroupFailsOnlyMember(t *testing.T) {
	db := chaosDB(t)
	// Target temp files so only the spilling member trips the schedule:
	// the survivor is a pure filter scan that never writes a temp file.
	if err := db.SetFaultSpec("panicnth=5,target=temp"); err != nil {
		t.Fatal(err)
	}
	results, err := db.ExecGroup([]GroupQuery{
		{Name: "survivor", SQL: "select * from r where v < 50", KeepRows: true},
		{Name: "victim", SQL: "select * from r order by pad desc, k"},
	})
	if serr := db.SetFaultSpec(""); serr != nil {
		t.Fatal(serr)
	}
	var ge *GroupError
	if !errors.As(err, &ge) {
		t.Fatalf("err = %T %v, want *GroupError", err, err)
	}
	var internal *exec.InternalError
	if !errors.As(ge.Errs[1], &internal) {
		t.Fatalf("victim err = %v, want *exec.InternalError", ge.Errs[1])
	}
	if ge.Errs[0] != nil || results[0] == nil || results[0].RowCount() == 0 {
		t.Fatalf("survivor harmed: err=%v res=%v", ge.Errs[0], results[0])
	}
	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("after group panic: %v", err)
	}
}

// TestQueryTimeout: a deadline on ExecContext's context bounds a query
// by wall-clock time, surfaced as context.DeadlineExceeded.
func TestQueryTimeout(t *testing.T) {
	db := chaosDB(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond) // expires before the first safe point
	defer cancel()
	_, err := db.ExecContext(ctx, "select * from r order by pad desc, k", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(context.DeadlineExceeded)", err)
	}
	if err := db.CheckLeaks(); err != nil {
		t.Fatalf("after timeout: %v", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Minute) // generous: must not fire
	defer cancel()
	res, err := db.ExecContext(ctx, "select * from r where v < 50", nil)
	if err != nil || res.RowCount() == 0 {
		t.Fatalf("query under generous deadline: %v", err)
	}
}
