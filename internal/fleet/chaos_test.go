package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"progressdb"
	"progressdb/internal/storage"
)

// TestFleetChaosConcurrentQueries drives concurrent multi-query load
// across a 4-shard fleet whose shards carry independent fault schedules:
// probabilistic transient read faults plus injected latency. Every query
// must either fail loudly or return the correct answer (error-or-correct
// — never silently wrong), every progress stream must stay monotone with
// at most one terminal event, and afterwards no shard may hold leaked
// temp files or orphaned pages.
func TestFleetChaosConcurrentQueries(t *testing.T) {
	f := paperFleet(t, 4)
	ref := referenceDB(t)

	// Independent per-shard fault schedules, installed post-bootstrap so
	// they hit the query path. Transient faults are retried by the
	// storage layer; the latency clause jitters shard finish order so
	// the aggregator sees genuinely interleaved refresh streams.
	specs := []string{
		"seed=11,transient=0.02,latency=0.2:0.001",
		"seed=12,latency=0.5:0.002",
		"seed=13,transient=0.05",
		"", // shard 3 stays clean
	}
	for i, spec := range specs {
		if spec == "" {
			continue
		}
		if err := f.SetShardFaultSpec(i, spec); err != nil {
			t.Fatal(err)
		}
	}

	queries := []string{
		`select * from customer where nationkey < 12`,
		`select count(*), sum(quantity) from lineitem`,
		`select nationkey, count(*) from customer group by nationkey`,
		`select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey and c.nationkey < 6`,
		`select custkey, acctbal from customer order by custkey limit 40`,
	}
	want := make(map[string]map[string]int, len(queries))
	for _, q := range queries {
		res, err := ref.Exec(q, nil)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		want[q] = multiset(res.Rows)
	}

	const workers = 6
	const rounds = 4
	var wg sync.WaitGroup
	failures := make(chan string, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := queries[(w+r)%len(queries)]
				var reports []Report
				res, err := f.Exec(q, func(rep Report) { reports = append(reports, rep) })
				if err != nil {
					// Loud failure is acceptable under injected faults —
					// but it must carry shard attribution and must not
					// masquerade as a user cancellation.
					var se *ShardError
					if !errors.As(err, &se) {
						failures <- fmt.Sprintf("worker %d %q: error without shard attribution: %v", w, q, err)
					} else if errors.Is(err, context.Canceled) {
						failures <- fmt.Sprintf("worker %d %q: fault surfaced as context.Canceled: %v", w, q, err)
					}
					continue
				}
				got := multiset(res.Rows)
				if len(got) != len(want[q]) {
					failures <- fmt.Sprintf("worker %d %q: %d distinct rows, want %d", w, q, len(got), len(want[q]))
					continue
				}
				for k, n := range want[q] {
					if got[k] != n {
						failures <- fmt.Sprintf("worker %d %q: row %q ×%d, want ×%d", w, q, k, got[k], n)
						break
					}
				}
				lastDone, lastPct, terminals := -1.0, -1.0, 0
				for i, rep := range reports {
					if rep.DoneU < lastDone || rep.Percent < lastPct {
						failures <- fmt.Sprintf("worker %d %q report %d: progress regressed", w, q, i)
						break
					}
					lastDone, lastPct = rep.DoneU, rep.Percent
					if rep.Finished {
						terminals++
					}
				}
				if terminals != 1 {
					failures <- fmt.Sprintf("worker %d %q: %d terminal reports", w, q, terminals)
				}
			}
		}(w)
	}
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Error(msg)
	}

	if err := f.CheckLeaks(); err != nil {
		t.Fatalf("leaks after chaos load: %v", err)
	}
}

// TestFleetChaosTransientOnly: two shards carry transient fault bursts
// sized to stay inside the buffer pool's per-access attempt budget (4
// tries, so at most 3 consecutive faults). The invariant is stronger
// than error-or-correct — a transient-only schedule the pool can absorb
// must NEVER surface an error to the fleet's caller: every query returns
// the correct answer, progress stays monotone, and nothing leaks.
func TestFleetChaosTransientOnly(t *testing.T) {
	f := paperFleet(t, 4)
	if err := f.ColdRestart(); err != nil {
		t.Fatal(err) // schedules target disk reads; drop the warm pool
	}
	ref := referenceDB(t)

	// Shards 1 and 3 stay clean.
	specs := map[int]string{
		0: "seed=21,readerr=1,transient=1,max=2,target=base",
		2: "seed=23,readerr=1,transient=1,max=3,target=base",
	}
	for shard, spec := range specs {
		if err := f.SetShardFaultSpec(shard, spec); err != nil {
			t.Fatal(err)
		}
	}

	queries := []string{
		`select * from customer where nationkey < 12`,
		`select count(*), sum(quantity) from lineitem`,
		`select nationkey, count(*) from customer group by nationkey`,
	}
	for _, q := range queries {
		want, err := ref.Exec(q, nil)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		lastDone := -1.0
		res, err := f.Exec(q, func(rep Report) {
			if rep.DoneU < lastDone-1e-9 {
				t.Errorf("%q: DoneU regressed %g -> %g", q, lastDone, rep.DoneU)
			}
			lastDone = rep.DoneU
		})
		if err != nil {
			t.Fatalf("%q: transient-only fault surfaced to the client: %v", q, err)
		}
		wm, gm := multiset(want.Rows), multiset(res.Rows)
		if len(wm) != len(gm) {
			t.Fatalf("%q: %d distinct rows, want %d", q, len(gm), len(wm))
		}
		for k, n := range wm {
			if gm[k] != n {
				t.Fatalf("%q: row %q ×%d, want ×%d", q, k, gm[k], n)
			}
		}
	}
	for shard, spec := range specs {
		if got := f.shards[shard].db.FaultStats().TransientFaults; got == 0 {
			t.Errorf("shard %d (%s) injected no faults; nothing was exercised", shard, spec)
		}
	}
	if err := f.CheckLeaks(); err != nil {
		t.Fatalf("leaks after transient chaos: %v", err)
	}
}

// burstOutcome is what one side of the transient-burst table observed:
// the error text ("" on success) and the pool retries.
type burstOutcome struct {
	err     string
	retries float64
}

// bursts is the transient-burst table: N consecutive transient read
// faults, and whether the buffer pool's 4-attempt budget absorbs them.
var bursts = []struct {
	max int
	ok  bool
}{{1, true}, {3, true}, {4, false}, {10, false}}

// ioRetries reads an engine's storage_io_retries_total — the count kept
// by the buffer pool, the system's only retry layer.
func ioRetries(db *progressdb.DB) float64 {
	for _, sm := range db.Metrics() {
		if sm.Name == "storage_io_retries_total" {
			return sm.Value
		}
	}
	return 0
}

// runBurstTable installs each burst of the table as
// `seed=42,readerr=1,transient=1,max=N,target=base` on a cold pool, on a
// single engine and on shard 1 of a 3-shard fleet, and checks both sides
// agree: bursts inside the pool's budget are absorbed with equal results,
// longer ones fail both, the fleet naming shard 1 with the injected fault
// still in the chain. It returns the engine and fleet outcome of every
// burst, in table order.
func runBurstTable(t *testing.T) []burstOutcome {
	t.Helper()
	const q = `select * from customer where nationkey < 12`
	cfg := shardCfg
	cfg.Metrics = true

	// checkStream asserts the progress contract a failed or finished
	// query leaves behind: DoneU and percent monotone, and a terminal
	// report only as the last one.
	checkStream := func(label string, reps []progressdb.Report) {
		t.Helper()
		for i, r := range reps {
			if i > 0 && (r.DoneU < reps[i-1].DoneU || r.Percent < reps[i-1].Percent) {
				t.Errorf("%s: progress regressed at report %d", label, i)
			}
			if r.Finished && i != len(reps)-1 {
				t.Errorf("%s: terminal report at %d of %d", label, i, len(reps))
			}
		}
	}
	outcome := func(err error, retries float64) burstOutcome {
		if err != nil {
			return burstOutcome{err: err.Error(), retries: retries}
		}
		return burstOutcome{retries: retries}
	}

	db := progressdb.Open(cfg)
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Shards: 3, Shard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	sh1 := f.shards[1].db

	var out []burstOutcome
	for _, b := range bursts {
		spec := fmt.Sprintf("seed=42,readerr=1,transient=1,max=%d,target=base", b.max)

		// One engine.
		if err := db.ColdRestart(); err != nil {
			t.Fatal(err)
		}
		if err := db.SetFaultSpec(spec); err != nil {
			t.Fatal(err)
		}
		before := ioRetries(db)
		var reps []progressdb.Report
		ref, err := db.Exec(q, func(r progressdb.Report) { reps = append(reps, r) })
		checkStream(spec+" engine", reps)
		eng := outcome(err, ioRetries(db)-before)

		// Shard 1 of the fleet.
		if err := f.ColdRestart(); err != nil {
			t.Fatal(err)
		}
		if err := f.SetShardFaultSpec(1, spec); err != nil {
			t.Fatal(err)
		}
		before = ioRetries(sh1)
		reps = nil
		res, ferr := f.Exec(q, func(r Report) { reps = append(reps, r.Report) })
		checkStream(spec+" fleet", reps)
		flt := outcome(ferr, ioRetries(sh1)-before)

		if b.ok {
			if err != nil || ferr != nil {
				t.Fatalf("%s: inside the pool's budget, engine err %v, fleet err %v", spec, err, ferr)
			}
			assertSameRows(t, spec, ref.Rows, res.Rows, ref.Columns, res.Columns)
			if eng.retries < float64(b.max) || flt.retries < float64(b.max) {
				t.Errorf("%s: storage_io_retries_total moved %g on the engine, %g on shard 1, want >= %d",
					spec, eng.retries, flt.retries, b.max)
			}
		} else {
			if err == nil || ferr == nil {
				t.Fatalf("%s: past the pool's budget, engine err %v, fleet err %v — want both to fail", spec, err, ferr)
			}
			for _, e := range []error{err, ferr} {
				var iof *storage.IOFault
				if !errors.As(e, &iof) || !storage.IsTransient(e) || errors.Is(e, context.Canceled) {
					t.Errorf("%s: error %v, want a transient *storage.IOFault that is not a cancellation", spec, e)
				}
			}
			var se *ShardError
			if !errors.As(ferr, &se) || se.Shard != 1 {
				t.Errorf("%s: fleet error %v, want a *ShardError naming shard 1", spec, ferr)
			}
		}

		// Clear the spec: both sides are leak-free and run clean.
		if err := db.SetFaultSpec(""); err != nil {
			t.Fatal(err)
		}
		if err := f.SetShardFaultSpec(1, ""); err != nil {
			t.Fatal(err)
		}
		if err := db.CheckLeaks(); err != nil {
			t.Errorf("%s: engine leaks: %v", spec, err)
		}
		if err := f.CheckLeaks(); err != nil {
			t.Errorf("%s: fleet leaks: %v", spec, err)
		}
		if _, err := db.Exec(q, nil); err != nil {
			t.Errorf("%s: engine unusable after the spec was cleared: %v", spec, err)
		}
		if _, err := f.Exec(q, nil); err != nil {
			t.Errorf("%s: fleet unusable after the spec was cleared: %v", spec, err)
		}
		out = append(out, eng, flt)
	}
	return out
}

// TestFleetTransientBurstMatchesSingleEngine: with one retry layer, a
// fault schedule has one outcome. Every burst of the table gives the
// same answer, or the same transient failure, on a single engine and on
// a fleet whose shard 1 carries it.
func TestFleetTransientBurstMatchesSingleEngine(t *testing.T) {
	runBurstTable(t)
}

// TestFleetDeterministicTransientFailover: a fleet hands a transient
// burst to the buffer pool's seeded retry and nothing else, so running
// the transient-burst table twice on fresh engines and fleets gives
// identical outcomes — the same errors and the same retry counts.
func TestFleetDeterministicTransientFailover(t *testing.T) {
	first, second := runBurstTable(t), runBurstTable(t)
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("burst max=%d %s: run 1 %+v, run 2 %+v — outcomes are not deterministic",
				bursts[i/2].max, [2]string{"engine", "fleet"}[i%2], first[i], second[i])
		}
	}
}

// TestFleetRetryAccounting pins where retry attribution lands: the
// buffer pool counts its retries in storage_io_retries_total of the
// engine that retried, so a burst on shard 1 is charged to shard 1, as
// many retries as the same burst costs one engine, and the healthy
// shards are charged none.
func TestFleetRetryAccounting(t *testing.T) {
	const (
		q    = `select count(*) from customer`
		spec = "seed=42,readerr=1,transient=1,max=3,target=base"
	)
	cfg := shardCfg
	cfg.Metrics = true

	db := progressdb.Open(cfg)
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	if err := db.SetFaultSpec(spec); err != nil {
		t.Fatal(err)
	}
	before := ioRetries(db)
	if _, err := db.Exec(q, nil); err != nil {
		t.Fatal(err)
	}
	want := ioRetries(db) - before
	if want == 0 {
		t.Fatal("schedule induced no retries on one engine; the test exercised nothing")
	}

	f, err := New(Config{Shards: 3, Shard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	if err := f.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	if err := f.SetShardFaultSpec(1, spec); err != nil {
		t.Fatal(err)
	}
	var base [3]float64
	for i := range base {
		base[i] = ioRetries(f.shards[i].db)
	}
	res, err := f.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		got := ioRetries(f.shards[i].db) - base[i]
		if i == 1 && got != want {
			t.Errorf("shard 1 retries = %g, one engine took %g for the same burst", got, want)
		} else if i != 1 && got != 0 {
			t.Errorf("healthy shard %d charged %g retries", i, got)
		}
	}
	for _, sr := range res.Shards {
		if sr.Shard == 1 && sr.DoneU <= 0 {
			t.Errorf("shard 1 DoneU = %g after retried reads", sr.DoneU)
		}
	}
	if err := f.CheckLeaks(); err != nil {
		t.Fatalf("leaks after retried reads: %v", err)
	}
}
