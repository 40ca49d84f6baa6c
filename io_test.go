package progressdb

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"progressdb/internal/vclock"
)

// ioBatch is how many copies of Q2 TestIOConservation runs at once, and
// ioWorkers on how many goroutines, as progressd runs them on -workers 4.
const (
	ioBatch   = 16
	ioWorkers = 4
)

// engineIO reads db's engine-wide storage accounting — the pool's, the
// disk's and the installed injector's — as one IOCounts.
func engineIO(db *DB) IOCounts {
	pool := db.cat.Pool()
	ps, ds, fs := pool.Stats(), pool.Disk().Stats(), db.FaultStats()
	return IOCounts{
		Hits: ps.Hits, Misses: ps.Misses, Evictions: ps.Evictions, Writebacks: ps.Writebacks,
		SeqReads: ds.SeqReads, RandReads: ds.RandReads, SeqWrites: ds.SeqWrites, RandWrites: ds.RandWrites,
		Retries: ps.Retries, RetryGiveups: ps.RetryGiveups,
		ReadFaults: fs.ReadFaults, WriteFaults: fs.WriteFaults, TransientFaults: fs.TransientFaults,
		LatencyEvents: fs.LatencyEvents, Panics: fs.Panics,
	}
}

// add returns a + b, field by field.
func add(a, b IOCounts) IOCounts {
	return IOCounts{
		Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Evictions: a.Evictions + b.Evictions, Writebacks: a.Writebacks + b.Writebacks,
		SeqReads: a.SeqReads + b.SeqReads, RandReads: a.RandReads + b.RandReads, SeqWrites: a.SeqWrites + b.SeqWrites, RandWrites: a.RandWrites + b.RandWrites,
		Retries: a.Retries + b.Retries, RetryGiveups: a.RetryGiveups + b.RetryGiveups,
		ReadFaults: a.ReadFaults + b.ReadFaults, WriteFaults: a.WriteFaults + b.WriteFaults, TransientFaults: a.TransientFaults + b.TransientFaults,
		LatencyEvents: a.LatencyEvents + b.LatencyEvents, Panics: a.Panics + b.Panics,
	}
}

// TestIOConservation holds each query's storage counts (Result.Plan.IO)
// to the engine's: 16 copies of Q2 run four at a time on one engine —
// spilling, on a pool too small for the data — fault-free, under two
// schedules that fire a write fault and a panic, and under
// fault_chaos_test.go's random fault schedules. For every count, the
// batch's per-query counts, failed queries' included, sum to the
// engine-wide delta, and each query's page reads and writes are its
// worker clock's SeqIO and RandIO units. An ExecGroup of four copies,
// whose members share the base clock, sums to the delta as well.
func TestIOConservation(t *testing.T) {
	db := Open(Config{WorkMemPages: 4, BufferPoolPages: 64, ProgressUpdateSeconds: 0.05})
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	q2, err := PaperQuery(2)
	if err != nil {
		t.Fatal(err)
	}
	// Fault-free, then two schedules that are sure to fire a temp-file
	// write fault and an injected panic, then random ones.
	specs := []string{"", "seed=5,writeerr=0.05,transient=0.5,target=temp", "seed=3,panicnth=300"}
	rng := rand.New(rand.NewSource(20261022))
	for range 6 {
		specs = append(specs, randomSchedule(rng).String())
	}
	for _, spec := range specs {
		if err := db.ColdRestart(); err != nil {
			t.Fatal(err)
		}
		if err := db.SetFaultSpec(spec); err != nil {
			t.Fatal(err)
		}
		before := engineIO(db)
		var mu sync.Mutex
		var sum IOCounts
		failed := 0
		var wg sync.WaitGroup
		for w := range ioWorkers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := w; q < ioBatch; q += ioWorkers {
					// Each run plans afresh, as concurrent runs of one
					// Stmt would, and runs on a clock the test can read.
					var st Stmt
					if err := db.prepare(&st, q2); err != nil {
						t.Error(err)
						return
					}
					clk := db.workerClock()
					res, err := db.run(context.Background(), clk, nil, st.p, st.d, nil, false, false)
					if res == nil {
						t.Errorf("spec %q, query %d: no result beside %v", spec, q, err)
						return
					}
					io := res.Plan.IO
					if err := unitsMatch(io, clk); err != nil {
						t.Errorf("spec %q, query %d: %v", spec, q, err)
					}
					mu.Lock()
					sum = add(sum, io)
					if err != nil {
						failed++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if after := engineIO(db); add(before, sum) != after {
			t.Errorf("spec %q (%d of %d failed): the engine's counts went from\n%+v\nto\n%+v\nwhile the queries' sum to\n%+v", spec, failed, ioBatch, before, after, sum)
		}
		t.Logf("spec %q: %d of %d failed, %+v", spec, failed, ioBatch, sum)
		if err := db.SetFaultSpec(""); err != nil {
			t.Fatal(err)
		}
		if err := db.CheckLeaks(); err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
	}

	if err := db.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	before := engineIO(db)
	group := make([]GroupQuery, ioWorkers)
	for i := range group {
		group[i] = GroupQuery{Name: fmt.Sprint("q2-", i), SQL: q2}
	}
	results, err := db.ExecGroup(group)
	if err != nil {
		t.Fatal(err)
	}
	var sum IOCounts
	for _, res := range results {
		sum = add(sum, res.Plan.IO)
	}
	if after := engineIO(db); add(before, sum) != after {
		t.Errorf("ExecGroup: the engine's counts went from\n%+v\nto\n%+v\nwhile the members' sum to\n%+v", before, after, sum)
	}
}

// unitsMatch reports whether io's page reads and writes are, by access
// pattern, the SeqIO and RandIO units charged to clk: the disk charges
// one unit per page it reads or writes.
func unitsMatch(io IOCounts, clk *vclock.Clock) error {
	seq, rnd := float64(io.SeqReads+io.SeqWrites), float64(io.RandReads+io.RandWrites)
	if u, v := clk.UnitsOf(vclock.SeqIO), clk.UnitsOf(vclock.RandIO); seq != u || rnd != v {
		return fmt.Errorf("sequential pages %v and random pages %v, the clock charged %v and %v units", seq, rnd, u, v)
	}
	return nil
}
