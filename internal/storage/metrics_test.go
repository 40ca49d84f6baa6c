package storage

import (
	"testing"

	"progressdb/internal/obs"
	"progressdb/internal/vclock"
)

// TestBufferPoolEvictionAccounting drives a scripted access pattern
// through a 2-frame pool and asserts that every counter — hits, misses,
// evictions, dirty write-backs — lands exactly where LRU semantics say
// it must, both in the pool's own accounting and in the wired obs
// instruments.
func TestBufferPoolEvictionAccounting(t *testing.T) {
	clock := vclock.New(vclock.Costs{SeqPage: 1, RandPage: 1, CPUTuple: 0}, nil)
	disk := NewDisk(clock)
	pool := NewBufferPool(disk, 2)

	reg := obs.NewRegistry()
	pm := PoolMetrics{
		Hits:            reg.Counter("bufferpool_hits_total", ""),
		Misses:          reg.Counter("bufferpool_misses_total", ""),
		Evictions:       reg.Counter("bufferpool_evictions_total", ""),
		DirtyWritebacks: reg.Counter("bufferpool_dirty_writebacks_total", ""),
	}
	pool.SetMetrics(pm)
	dm := DiskMetrics{
		SeqReads:  reg.Counter("disk_seq_reads_total", ""),
		RandReads: reg.Counter("disk_rand_reads_total", ""),
	}
	disk.SetMetrics(dm)

	f := disk.Create()
	page := make([]byte, PageSize)
	pid := func(n int32) PageID { return PageID{File: f, Num: n} }

	put := func(n int32) {
		t.Helper()
		if err := pool.Put(pid(n), page); err != nil {
			t.Fatal(err)
		}
	}
	get := func(n int32) {
		t.Helper()
		if _, err := pool.Get(pid(n)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string, want PoolStats) {
		t.Helper()
		if got := pool.Stats(); got != want {
			t.Fatalf("%s: stats = %+v, want %+v", step, got, want)
		}
	}

	// Fill: Put 0..3 through a 2-frame pool. Puts of uncached pages write
	// through (clean insert), so the two displacements are clean.
	put(0)
	put(1)
	put(2) // evicts 0 (clean)
	put(3) // evicts 1 (clean)
	check("after fill", PoolStats{Evictions: 2})

	get(3) // hit          lru=[3,2]
	get(2) // hit          lru=[2,3]
	get(0) // miss, evicts 3 (clean)      lru=[0,2]
	check("after first reads", PoolStats{Hits: 2, Misses: 1, Evictions: 3})

	put(2) // cached: marks dirty in place lru=[2,0]
	get(1) // miss, evicts 0 (clean)      lru=[1,2]
	get(2) // hit                          lru=[2,1]
	get(1) // hit                          lru=[1,2]
	get(0) // miss, evicts dirty 2 -> write-back   lru=[0,1]
	check("after dirty eviction", PoolStats{Hits: 4, Misses: 3, Evictions: 5, Writebacks: 1})

	// Nothing dirty remains; Flush is a no-op.
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after no-op flush", PoolStats{Hits: 4, Misses: 3, Evictions: 5, Writebacks: 1})

	// Dirty a cached page and flush: one more write-back, no eviction.
	put(1)
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after flush", PoolStats{Hits: 4, Misses: 3, Evictions: 5, Writebacks: 2})

	// The obs instruments must agree exactly with the pool's accounting.
	for name, want := range map[string]int64{
		"bufferpool_hits_total":             4,
		"bufferpool_misses_total":           3,
		"bufferpool_evictions_total":        5,
		"bufferpool_dirty_writebacks_total": 2,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Fatalf("metric %s = %d, want %d", name, got, want)
		}
	}
	// Physical reads happen only on misses.
	reads := dm.SeqReads.Value() + dm.RandReads.Value()
	if reads != 3 {
		t.Fatalf("physical reads = %d, want 3 (one per miss)", reads)
	}
	if ds := disk.Stats(); ds.Reads() != 3 {
		t.Fatalf("disk stats reads = %d, want 3", ds.Reads())
	}

	// Clear resets per-restart accounting but not the monotonic counters.
	pool.Clear()
	if got := pool.Stats(); got != (PoolStats{}) {
		t.Fatalf("stats after Clear = %+v", got)
	}
	if got := pm.Hits.Value(); got != 4 {
		t.Fatalf("obs counter reset by Clear: %d", got)
	}
}
