package storage

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"progressdb/internal/obs"
	"progressdb/internal/vclock"
)

// Bounded retry policy for transient physical I/O faults (see
// Disk.SetFaultInjector). Each retry charges an exponentially growing
// backoff to the virtual clock — retrying is not free, it just beats
// failing the query on a blip.
const (
	// maxIOAttempts is the total number of tries per physical page
	// access (1 initial + maxIOAttempts-1 retries).
	maxIOAttempts = 4
	// retryBackoffBase is the virtual-seconds backoff before the first
	// retry; it doubles per attempt.
	retryBackoffBase = 1e-3
)

// The buffer pool's latch hierarchy: a shard latch may be held across
// the physical disk access it covers (the disk is the lower layer).
//
//lint:lockorder poolShard.mu < Disk.mu

// poolShard is one partition of the page table: a latch, a frame map,
// and an LRU list bounded by the shard's share of the pool capacity.
// The latch is held across a miss's physical read, so concurrent
// requests for one page perform the read exactly once.
type poolShard struct {
	// Held across a miss's simulated physical read so concurrent
	// requests for one page read it exactly once; the virtual clock's
	// synchronous tickers make that look like a callback under lock,
	// but no real I/O or waiting happens inside.
	//lint:lockcoarse latch covers the simulated miss-read by design; clock tickers are synchronous compute, not blocking
	mu       sync.Mutex // guards frames, lru, and every frame in them
	capacity int
	frames   map[PageID]*list.Element
	lru      *list.List // front = most recently used
}

// frame is one resident page. pins counts scanners currently latched
// onto the page; pinned frames are skipped by eviction. All fields are
// guarded by the owning shard's mu; data is replaced, never mutated in
// place (copy-on-write), so a reader may keep using a data slice it
// obtained under the latch.
type frame struct {
	pid   PageID
	data  []byte
	dirty bool
	pins  int
}

// BufferPool is a page cache with sharded LRU replacement in front of
// the simulated disk. Reads that hit the pool cost nothing (the page is
// memory-resident); misses charge disk I/O. Dirty pages charge a write
// when evicted or flushed. A cold pool is how the paper's
// restart-per-test methodology is reproduced; warm-cache variants simply
// reuse the pool.
//
// The pool is safe for concurrent use: the page table is sharded by
// PageID hash, each shard protected by its own latch, and frames carry
// pin counts so a scanner's current page cannot be evicted under it.
// The bound methods (Get, Put, Flush) charge the disk's base clock and
// serve the single-threaded DDL/load paths; the On variants take the
// calling worker's clock.
type BufferPool struct {
	disk     *Disk
	capacity int
	shards   []*poolShard
	mask     uint32

	hits, misses          atomic.Int64
	evictions, writebacks atomic.Int64
	retries, giveups      atomic.Int64
	pinned                atomic.Int64

	met PoolMetrics
}

// PoolMetrics are the buffer pool's engine-wide instruments. The zero
// value (all-nil counters) is the disabled state; every increment is
// nil-safe.
type PoolMetrics struct {
	// Hits and Misses count page lookups served from / read through the
	// pool.
	Hits, Misses *obs.Counter
	// Evictions counts frames displaced by the LRU policy.
	Evictions *obs.Counter
	// DirtyWritebacks counts dirty pages written back to disk on eviction
	// or flush.
	DirtyWritebacks *obs.Counter
	// IORetries counts physical page accesses retried after a transient
	// fault; IORetryGiveups counts accesses that still failed after the
	// bounded retry budget.
	IORetries, IORetryGiveups *obs.Counter
}

// SetMetrics installs observability instruments; pass the zero value to
// disable. Counters are cumulative for the pool's lifetime and are not
// reset by Clear (Prometheus counters must be monotonic). Install
// before concurrent use begins.
func (bp *BufferPool) SetMetrics(m PoolMetrics) { bp.met = m }

// PoolStats is a snapshot of the pool's access accounting since the last
// Clear (the paper's cold restart).
type PoolStats struct {
	Hits, Misses          int64
	Evictions, Writebacks int64
	// Retries and RetryGiveups count transient-fault retries and
	// exhausted retry budgets (zero unless fault injection is active).
	Retries, RetryGiveups int64
}

// Stats returns the pool's access accounting since the last Clear.
func (bp *BufferPool) Stats() PoolStats {
	return PoolStats{
		Hits: bp.hits.Load(), Misses: bp.misses.Load(),
		Evictions: bp.evictions.Load(), Writebacks: bp.writebacks.Load(),
		Retries: bp.retries.Load(), RetryGiveups: bp.giveups.Load(),
	}
}

// readPage reads through to disk with bounded retry on transient faults.
func (bp *BufferPool) readPage(clk *vclock.Clock, pid PageID) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < maxIOAttempts; attempt++ {
		if attempt > 0 {
			bp.retries.Add(1)
			bp.met.IORetries.Inc()
			clk.Idle(retryBackoffBase * float64(int64(1)<<(attempt-1)))
		}
		data, err := bp.disk.readPage(clk, pid)
		if err == nil {
			return data, nil
		}
		if !IsTransient(err) {
			return nil, err
		}
		lastErr = err
	}
	bp.giveups.Add(1)
	bp.met.IORetryGiveups.Inc()
	return nil, fmt.Errorf("storage: read of %v failed after %d attempts: %w", pid, maxIOAttempts, lastErr)
}

// writePage writes to disk with bounded retry on transient faults.
func (bp *BufferPool) writePage(clk *vclock.Clock, pid PageID, data []byte) error {
	var lastErr error
	for attempt := 0; attempt < maxIOAttempts; attempt++ {
		if attempt > 0 {
			bp.retries.Add(1)
			bp.met.IORetries.Inc()
			clk.Idle(retryBackoffBase * float64(int64(1)<<(attempt-1)))
		}
		err := bp.disk.writePage(clk, pid, data)
		if err == nil {
			return nil
		}
		if !IsTransient(err) {
			return err
		}
		lastErr = err
	}
	bp.giveups.Add(1)
	bp.met.IORetryGiveups.Inc()
	return fmt.Errorf("storage: write of %v failed after %d attempts: %w", pid, maxIOAttempts, lastErr)
}

// numShards picks the page-table shard count for a pool of the given
// capacity: a power of two, 1 for small pools (so unit-test-sized pools
// keep exact global LRU behavior), up to 8 for production-sized pools.
func numShards(capacity int) int {
	n := 1
	for n*2 <= capacity/64 && n < 8 {
		n *= 2
	}
	return n
}

// NewBufferPool creates a pool of capacity pages over disk.
func NewBufferPool(disk *Disk, capacity int) *BufferPool {
	if capacity < 1 {
		//lint:ignore errwrap sanctioned: constructor misuse is a wiring bug, not a runtime condition; fail fast at startup
		panic("storage: buffer pool capacity must be >= 1")
	}
	n := numShards(capacity)
	bp := &BufferPool{
		disk:     disk,
		capacity: capacity,
		shards:   make([]*poolShard, n),
		mask:     uint32(n - 1),
	}
	for i := range bp.shards {
		cap := capacity / n
		if i < capacity%n {
			cap++
		}
		bp.shards[i] = &poolShard{
			capacity: cap,
			frames:   make(map[PageID]*list.Element),
			lru:      list.New(),
		}
	}
	return bp
}

// shard maps a page to its page-table partition with a deterministic
// hash (no map-iteration or per-process randomness, so runs replay).
func (bp *BufferPool) shard(pid PageID) *poolShard {
	h := uint32(pid.File)*2654435761 ^ uint32(pid.Num)*2246822519
	return bp.shards[h&bp.mask]
}

// Disk returns the underlying disk.
func (bp *BufferPool) Disk() *Disk { return bp.disk }

// Capacity returns the pool size in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// PinnedFrames returns the number of outstanding frame pins. Part of the
// engine's leak-check API: zero whenever no scanner is mid-flight.
func (bp *BufferPool) PinnedFrames() int64 { return bp.pinned.Load() }

// Get returns the page's contents, reading through to disk on a miss and
// charging the disk's base clock. The returned slice is the cached page
// image; it is never mutated in place (Put replaces it), so the caller
// may read it after the call returns but must use Put for writes.
func (bp *BufferPool) Get(pid PageID) ([]byte, error) {
	return bp.getOn(bp.disk.clock, pid, false)
}

// GetOn is Get charging the given worker clock.
func (bp *BufferPool) GetOn(clk *vclock.Clock, pid PageID) ([]byte, error) {
	return bp.getOn(clk, pid, false)
}

// getPinned is GetOn plus a pin on the frame: the page cannot be
// evicted until the matching unpin. Scanners pin their current page.
func (bp *BufferPool) getPinned(clk *vclock.Clock, pid PageID) ([]byte, error) {
	return bp.getOn(clk, pid, true)
}

// unpin releases one pin on pid. Unpinning a page that has since been
// dropped (temp-file cleanup) is a no-op; DropFile already settled the
// pin accounting for its frames.
func (bp *BufferPool) unpin(pid PageID) {
	sh := bp.shard(pid)
	sh.mu.Lock()
	if el, ok := sh.frames[pid]; ok {
		if fr := el.Value.(*frame); fr.pins > 0 {
			fr.pins--
			bp.pinned.Add(-1)
		}
	}
	sh.mu.Unlock()
}

func (bp *BufferPool) getOn(clk *vclock.Clock, pid PageID, pin bool) ([]byte, error) {
	sh := bp.shard(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.frames[pid]; ok {
		bp.hits.Add(1)
		bp.met.Hits.Inc()
		sh.lru.MoveToFront(el)
		fr := el.Value.(*frame)
		if pin {
			fr.pins++
			bp.pinned.Add(1)
		}
		return fr.data, nil
	}
	bp.misses.Add(1)
	bp.met.Misses.Inc()
	// The latch is held across the physical read: concurrent requests
	// for this page queue here and then hit the freshly inserted frame,
	// so each page is read from disk exactly once per residency.
	data, err := bp.readPage(clk, pid)
	if err != nil {
		return nil, err
	}
	// Cache a private copy so in-pool state never aliases disk state.
	buf := make([]byte, PageSize)
	copy(buf, data)
	fr := &frame{pid: pid, data: buf}
	if pin {
		fr.pins++
		bp.pinned.Add(1)
	}
	if err := bp.insertLocked(clk, sh, fr); err != nil {
		return nil, err
	}
	return buf, nil
}

// Put stores data as the new contents of pid, marking it dirty and
// charging the disk's base clock for any physical I/O. data must be
// PageSize bytes. The write reaches disk on eviction or Flush; a write
// at pid.Num == NumPages extends the file immediately (so the file
// length is visible to readers) but still counts its I/O on the initial
// write.
func (bp *BufferPool) Put(pid PageID, data []byte) error {
	return bp.PutOn(bp.disk.clock, pid, data)
}

// PutOn is Put charging the given worker clock. The update is
// copy-on-write: the frame gets a fresh page image, so readers holding
// the previous image (scanners mid-page) are unaffected.
func (bp *BufferPool) PutOn(clk *vclock.Clock, pid PageID, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("storage: Put of %d bytes, want %d", len(data), PageSize)
	}
	sh := bp.shard(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.frames[pid]; ok {
		fr := el.Value.(*frame)
		buf := make([]byte, PageSize)
		copy(buf, data)
		fr.data = buf
		fr.dirty = true
		sh.lru.MoveToFront(el)
		return nil
	}
	// Write through to establish the page on disk (this is where the write
	// I/O is charged), then cache it clean.
	buf := make([]byte, PageSize)
	copy(buf, data)
	if err := bp.writePage(clk, pid, buf); err != nil {
		return err
	}
	return bp.insertLocked(clk, sh, &frame{pid: pid, data: append([]byte(nil), buf...)})
}

// insertLocked adds fr to the shard, evicting the least recently used
// unpinned frame if the shard is over its share of the capacity. If
// every frame is pinned the shard runs over capacity rather than fail —
// pins are short-lived (a scanner's current page). Called with sh.mu
// held.
func (bp *BufferPool) insertLocked(clk *vclock.Clock, sh *poolShard, fr *frame) error {
	el := sh.lru.PushFront(fr)
	sh.frames[fr.pid] = el
	if sh.lru.Len() <= sh.capacity {
		return nil
	}
	for victim := sh.lru.Back(); victim != nil; victim = victim.Prev() {
		vf := victim.Value.(*frame)
		if vf.pins > 0 {
			continue
		}
		sh.lru.Remove(victim)
		delete(sh.frames, vf.pid)
		bp.evictions.Add(1)
		bp.met.Evictions.Inc()
		if vf.dirty {
			bp.writebacks.Add(1)
			bp.met.DirtyWritebacks.Inc()
			if err := bp.writePage(clk, vf.pid, vf.data); err != nil {
				return fmt.Errorf("storage: evicting %v: %w", vf.pid, err)
			}
		}
		return nil
	}
	return nil
}

// Flush writes back all dirty pages, leaving them cached clean, charging
// the disk's base clock.
func (bp *BufferPool) Flush() error { return bp.FlushOn(bp.disk.clock) }

// FlushOn is Flush charging the given worker clock.
func (bp *BufferPool) FlushOn(clk *vclock.Clock) error {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			fr := el.Value.(*frame)
			if fr.dirty {
				bp.writebacks.Add(1)
				bp.met.DirtyWritebacks.Inc()
				if err := bp.writePage(clk, fr.pid, fr.data); err != nil {
					sh.mu.Unlock()
					return err
				}
				fr.dirty = false
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// DropFile removes all cached pages of a file without writing them back;
// used when temp files are deleted. Pins held on dropped frames are
// settled here so a scanner abandoned by an error unwind cannot leak
// pin accounting.
func (bp *BufferPool) DropFile(id FileID) {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			if fr := el.Value.(*frame); fr.pid.File == id {
				if fr.pins > 0 {
					bp.pinned.Add(int64(-fr.pins))
					fr.pins = 0
				}
				sh.lru.Remove(el)
				delete(sh.frames, fr.pid)
			}
			el = next
		}
		sh.mu.Unlock()
	}
}

// RemoveFile atomically invalidates the file's cached pages and removes
// it from disk — the only safe order: dropping the frames first
// guarantees no later eviction can try to write back an orphaned dirty
// page of a file that no longer exists.
func (bp *BufferPool) RemoveFile(id FileID) error {
	bp.DropFile(id)
	return bp.disk.Remove(id)
}

// OrphanedPages returns the PageIDs of cached frames whose file no
// longer exists on disk — evidence that someone called Disk.Remove
// without DropFile/RemoveFile. Part of the engine's leak-check API;
// always empty in a healthy engine.
func (bp *BufferPool) OrphanedPages() []PageID {
	var orphans []PageID
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			if fr := el.Value.(*frame); !bp.disk.Exists(fr.pid.File) {
				orphans = append(orphans, fr.pid)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(orphans, func(i, j int) bool {
		if orphans[i].File != orphans[j].File {
			return orphans[i].File < orphans[j].File
		}
		return orphans[i].Num < orphans[j].Num
	})
	return orphans
}

// Clear empties the pool without write-back (a simulated restart, for the
// paper's cold-buffer-pool methodology). Dirty page loss is intentional:
// callers Flush first if they care. Clear must not race a running query
// (the engine only cold-restarts while idle).
func (bp *BufferPool) Clear() {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		sh.frames = make(map[PageID]*list.Element)
		sh.lru = list.New()
		sh.mu.Unlock()
	}
	bp.hits.Store(0)
	bp.misses.Store(0)
	bp.evictions.Store(0)
	bp.writebacks.Store(0)
	bp.retries.Store(0)
	bp.giveups.Store(0)
	bp.pinned.Store(0)
}
