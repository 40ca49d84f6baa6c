package vclock

import (
	"sync"
	"testing"
)

// A strictly sequential run over group workers must reproduce the old
// single-clock absolute timeline: each worker starts where the merged
// time left off.
func TestGroupSequentialMatchesSingleClock(t *testing.T) {
	costs := DefaultCosts()
	single := New(costs, nil)
	g := NewGroup(costs)

	for i := 0; i < 3; i++ {
		w := g.Worker()
		if got, want := w.Now(), single.Now(); got != want {
			t.Fatalf("worker %d starts at %g, single clock at %g", i, got, want)
		}
		w.ChargeSeqIO(100)
		w.ChargeCPU(5000)
		w.ChargeRandIO(7)
		w.Sync()
		single.ChargeSeqIO(100)
		single.ChargeCPU(5000)
		single.ChargeRandIO(7)
	}
	if got, want := g.Now(), single.Now(); got != want {
		t.Fatalf("group now %g, single clock %g", got, want)
	}
	for _, k := range []WorkKind{SeqIO, RandIO, CPU} {
		if got, want := g.UnitsOf(k), single.UnitsOf(k); got != want {
			t.Fatalf("group units[%v] %g, single clock %g", k, got, want)
		}
	}
}

// Group.Now is monotone and unit totals are exact under concurrent
// workers syncing at arbitrary interleavings.
func TestGroupConcurrentMergeMonotone(t *testing.T) {
	const workers = 8
	const charges = 200
	g := NewGroup(DefaultCosts())

	stop := make(chan struct{})
	var monoWG sync.WaitGroup
	monoWG.Add(1)
	go func() {
		defer monoWG.Done()
		prev := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := g.Now()
			if now < prev {
				t.Errorf("group time went backwards: %g -> %g", prev, now)
				return
			}
			prev = now
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := g.Worker()
			for j := 0; j < charges; j++ {
				w.ChargeSeqIO(3)
				w.ChargeCPU(10)
				if j%7 == 0 {
					w.Sync()
				}
			}
			w.Sync()
		}()
	}
	wg.Wait()
	close(stop)
	monoWG.Wait()

	if got, want := g.UnitsOf(SeqIO), float64(workers*charges*3); got != want {
		t.Fatalf("seq-io units %g, want %g", got, want)
	}
	if got, want := g.UnitsOf(CPU), float64(workers*charges*10); got != want {
		t.Fatalf("cpu units %g, want %g", got, want)
	}
	// Merged time is at least one worker's full run (all started at 0).
	w := New(DefaultCosts(), nil)
	w.ChargeSeqIO(charges * 3)
	w.ChargeCPU(charges * 10)
	if g.Now() < w.Now() {
		t.Fatalf("group now %g below a single worker's total %g", g.Now(), w.Now())
	}
}

// The engine's base clock is synced from several goroutines at once
// (DB.Now, query starts) while readers poll the group: Sync settles the
// pending CPU batch under its lock, exactly once, and the group ends on
// the exact totals.
func TestGroupConcurrentBaseSync(t *testing.T) {
	g := NewGroup(DefaultCosts())
	base := g.Worker()
	single := New(DefaultCosts(), nil)

	stop := make(chan struct{})
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		prev := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := g.Now()
			if now < prev {
				t.Errorf("group time went backwards: %g -> %g", prev, now)
				return
			}
			prev = now
		}
	}()
	for round := 0; round < 200; round++ {
		base.ChargeCPU(7) // pending until someone settles
		base.ChargeSeqIO(1)
		base.ChargeCPU(3)
		single.ChargeCPU(7)
		single.ChargeSeqIO(1)
		single.ChargeCPU(3)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				base.Sync()
			}()
		}
		wg.Wait()
		if got, want := g.Now(), single.Now(); got != want {
			t.Fatalf("round %d: group now %v, want %v", round, got, want)
		}
	}
	close(stop)
	readWG.Wait()
	if got, want := g.UnitsOf(CPU), float64(200*10); got != want {
		t.Fatalf("cpu units %v, want %v", got, want)
	}
	if got, want := g.UnitsOf(SeqIO), float64(200); got != want {
		t.Fatalf("seq-io units %v, want %v", got, want)
	}
}

// Sync is idempotent for units: repeated syncs with no new charges add
// nothing.
func TestGroupSyncDelta(t *testing.T) {
	g := NewGroup(DefaultCosts())
	w := g.Worker()
	w.ChargeSeqIO(10)
	w.Sync()
	w.Sync()
	w.Sync()
	if got := g.UnitsOf(SeqIO); got != 10 {
		t.Fatalf("seq-io units %g after repeated syncs, want 10", got)
	}
	w.ChargeSeqIO(5)
	w.Sync()
	if got := g.UnitsOf(SeqIO); got != 15 {
		t.Fatalf("seq-io units %g, want 15", got)
	}
}
