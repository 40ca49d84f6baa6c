// Package storage implements the simulated storage substrate: a paged
// disk whose I/O is charged to the virtual clock, an LRU buffer pool, and
// tuple-oriented heap files and temp files built on top.
//
// The paper's progress indicator defines its work unit U as "one page of
// bytes processed"; this package is where pages, and the sequential/random
// I/O cost distinction that shapes the execution-speed figures, live.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"progressdb/internal/obs"
	"progressdb/internal/vclock"
)

// PageSize is the size of a disk page in bytes. U in the progress
// indicator is one page of bytes.
const PageSize = 8192

// FileID identifies a file on the simulated disk.
type FileID int32

// FileClass distinguishes long-lived files (base relations, indexes,
// logs) from per-query scratch files (spill partitions, sort runs).
// Fault injection targets classes independently, and the leak checker's
// invariant is that no ClassTemp file survives a query — success, error,
// cancel, or timeout alike.
type FileClass int

// File classes.
const (
	// ClassBase marks durable files: table heaps, indexes.
	ClassBase FileClass = iota
	// ClassTemp marks per-query scratch files that must be removed on
	// every exit path.
	ClassTemp
)

// String returns "base" or "temp".
func (c FileClass) String() string {
	if c == ClassTemp {
		return "temp"
	}
	return "base"
}

// FaultOp is the access direction presented to a FaultInjector.
type FaultOp int

// Fault operations.
const (
	// OpRead is a physical page read.
	OpRead FaultOp = iota
	// OpWrite is a physical page write.
	OpWrite
)

// String returns "read" or "write".
func (o FaultOp) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// FaultInjector is consulted before every physical page access. It may
// stretch the access (latency, in virtual seconds, charged to the
// clock), fail it (the returned error aborts the access before any
// state changes), or panic (simulating an executor crash that the
// engine's panic boundary must contain). Implementations live in
// internal/faultinject; production disks carry a nil injector and pay
// only a nil check per physical I/O.
type FaultInjector interface {
	BeforePageIO(op FaultOp, class FileClass) (latencySeconds float64, err error)
}

// IOFault is an injected I/O error. Transient faults may succeed when
// the operation is retried (the buffer pool's bounded retry loop);
// permanent faults fail every attempt.
type IOFault struct {
	// Op and Class identify the faulted access.
	Op    FaultOp
	Class FileClass
	// Seq is the 1-based ordinal of this fault among all injected
	// faults.
	Seq int64
	// Permanent marks faults that retrying cannot clear.
	Permanent bool
}

// Error describes the fault.
func (f *IOFault) Error() string {
	kind := "transient"
	if f.Permanent {
		kind = "permanent"
	}
	return fmt.Sprintf("storage: injected %s %s fault #%d (%s file)", kind, f.Op, f.Seq, f.Class)
}

// Transient reports whether a retry may succeed.
func (f *IOFault) Transient() bool { return !f.Permanent }

// transienter lets retry loops classify errors without knowing their
// concrete type.
type transienter interface{ Transient() bool }

// IsTransient reports whether err (or anything it wraps) is a transient
// I/O fault worth retrying.
func IsTransient(err error) bool {
	var t transienter
	return errors.As(err, &t) && t.Transient()
}

// PageID identifies one page of one file.
type PageID struct {
	File FileID
	Num  int32
}

func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.File, p.Num) }

// RID is a record identifier: a page plus a slot within the page.
type RID struct {
	Page PageID
	Slot uint16
}

// DiskStats counts physical I/Os actually performed (buffer-pool misses
// and write-backs), split by access pattern.
type DiskStats struct {
	SeqReads   int64
	RandReads  int64
	SeqWrites  int64
	RandWrites int64
}

// Reads returns total physical page reads.
func (s DiskStats) Reads() int64 { return s.SeqReads + s.RandReads }

// Writes returns total physical page writes.
func (s DiskStats) Writes() int64 { return s.SeqWrites + s.RandWrites }

// file is one simulated on-disk file: a growable array of pages.
type file struct {
	pages    [][]byte
	class    FileClass
	lastRead int32 // last physically read page number, for sequential detection
	lastWrit int32
}

// Disk simulates a disk drive. Every physical page access charges a
// virtual clock: sequential accesses (page N+1 after page N of the same
// file) at the sequential rate, others at the random rate.
//
// Disk is safe for concurrent use: a single mutex serializes the file
// table and every physical access, modeling the drive as the serial
// resource it is. Each access charges the clock passed in by the caller
// (the per-worker query clock, or the disk's base clock via the bound
// convenience APIs).
type Disk struct {
	clock *vclock.Clock // base clock for the bound single-threaded API

	// Page access charges the virtual clock while holding mu so the
	// (seq-vs-rand, fault-injection, stats) decision and the charge are
	// one atomic step; the clock's synchronous tickers look like
	// callbacks under lock, but nothing inside waits or does real I/O.
	//lint:lockcoarse simulated page I/O and its clock charge are one atomic step; tickers are synchronous compute
	mu    sync.Mutex // guards files, next, stats, met, inj
	files map[FileID]*file
	next  FileID
	stats DiskStats
	met   DiskMetrics
	inj   FaultInjector
}

// DiskMetrics are the disk's engine-wide instruments (physical page I/O
// by access pattern). The zero value is the disabled state; increments
// are nil-safe.
type DiskMetrics struct {
	SeqReads, RandReads   *obs.Counter
	SeqWrites, RandWrites *obs.Counter
}

// SetMetrics installs observability instruments; pass the zero value to
// disable.
func (d *Disk) SetMetrics(m DiskMetrics) {
	d.mu.Lock()
	d.met = m
	d.mu.Unlock()
}

// SetFaultInjector installs (or, with nil, removes) the fault injector
// consulted before every physical page access.
func (d *Disk) SetFaultInjector(inj FaultInjector) {
	d.mu.Lock()
	d.inj = inj
	d.mu.Unlock()
}

// injectFault runs the installed injector for one access of class fc,
// charging any injected latency to clk before returning the injected
// error (nil when no fault fires), and counts on clk what the injector
// fired: latency, an I/O fault, or the panic it unwinds with. Called
// with d.mu held.
func (d *Disk) injectFault(clk *vclock.Clock, op FaultOp, fc FileClass) error {
	if d.inj == nil {
		return nil
	}
	panicked := true
	defer func() {
		if panicked {
			clk.IO.Panics++
		}
	}()
	lat, err := d.inj.BeforePageIO(op, fc)
	panicked = false
	if lat > 0 {
		clk.IO.LatencyEvents++
		clk.Idle(lat)
	}
	var f *IOFault
	if errors.As(err, &f) {
		if op == OpRead {
			clk.IO.ReadFaults++
		} else {
			clk.IO.WriteFaults++
		}
		if !f.Permanent {
			clk.IO.TransientFaults++
		}
	}
	return err
}

// NewDisk creates an empty simulated disk charging I/O to clock.
func NewDisk(clock *vclock.Clock) *Disk {
	return &Disk{clock: clock, files: make(map[FileID]*file)}
}

// Clock returns the base clock the bound (single-threaded) API charges.
func (d *Disk) Clock() *vclock.Clock { return d.clock }

// Stats returns a copy of the physical I/O counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	s := d.stats
	d.mu.Unlock()
	return s
}

// Create allocates a new empty ClassBase file.
func (d *Disk) Create() FileID { return d.CreateClass(ClassBase) }

// CreateTemp allocates a new empty ClassTemp (per-query scratch) file.
func (d *Disk) CreateTemp() FileID { return d.CreateClass(ClassTemp) }

// CreateClass allocates a new empty file of the given class. FileIDs are
// never reused, so a stale reference to a removed file can only miss —
// it can never alias a newer file.
func (d *Disk) CreateClass(class FileClass) FileID {
	d.mu.Lock()
	id := d.next
	d.next++
	d.files[id] = &file{pages: make([][]byte, 0, 8), class: class, lastRead: -2, lastWrit: -2}
	d.mu.Unlock()
	return id
}

// Remove deletes a file and frees its pages. Removing a nonexistent file
// is an error (it indicates an executor bug). Callers that may hold the
// file's pages in a buffer pool must invalidate them first (see
// BufferPool.RemoveFile), or a later eviction will try to write back an
// orphaned dirty page.
func (d *Disk) Remove(id FileID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[id]; !ok {
		return fmt.Errorf("storage: remove of unknown file %d", id)
	}
	delete(d.files, id)
	return nil
}

// Exists reports whether the file is currently allocated.
func (d *Disk) Exists(id FileID) bool {
	d.mu.Lock()
	_, ok := d.files[id]
	d.mu.Unlock()
	return ok
}

// OpenFiles returns the ids of all currently allocated files, sorted.
// This is the leak-check API: after a query finishes — successfully or
// not — OpenFiles(ClassTemp) must be empty.
func (d *Disk) OpenFiles() []FileID {
	d.mu.Lock()
	ids := make([]FileID, 0, len(d.files))
	for id := range d.files {
		ids = append(ids, id)
	}
	d.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// OpenFilesOfClass returns the sorted ids of allocated files of one
// class.
func (d *Disk) OpenFilesOfClass(class FileClass) []FileID {
	d.mu.Lock()
	var ids []FileID
	for id, f := range d.files {
		if f.class == class {
			ids = append(ids, id)
		}
	}
	d.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// NumPages returns the number of pages in the file.
func (d *Disk) NumPages(id FileID) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[id]
	if !ok {
		return 0, fmt.Errorf("storage: unknown file %d", id)
	}
	return len(f.pages), nil
}

// readPage performs a physical read, charging clk. The whole access —
// fault injection, clock charge, sequential detection — happens under
// d.mu, so concurrent accesses see a consistent head position. The
// returned slice is the on-disk page; pages are replaced, never mutated
// in place, so reading it after d.mu is released is safe.
func (d *Disk) readPage(clk *vclock.Clock, pid PageID) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[pid.File]
	if !ok {
		return nil, fmt.Errorf("storage: read from unknown file %d", pid.File)
	}
	if int(pid.Num) >= len(f.pages) || pid.Num < 0 {
		return nil, fmt.Errorf("storage: read past EOF: page %v of %d", pid, len(f.pages))
	}
	if err := d.injectFault(clk, OpRead, f.class); err != nil {
		return nil, fmt.Errorf("storage: reading page %v: %w", pid, err)
	}
	if pid.Num == f.lastRead+1 {
		clk.ChargeSeqIO(1)
		clk.IO.SeqReads++
		d.stats.SeqReads++
		d.met.SeqReads.Inc()
	} else {
		clk.ChargeRandIO(1)
		clk.IO.RandReads++
		d.stats.RandReads++
		d.met.RandReads.Inc()
	}
	f.lastRead = pid.Num
	return f.pages[pid.Num], nil
}

// writePage performs a physical write, charging clk. Writing at
// page == NumPages extends the file. The page slice is stored as given
// and must not be mutated by anyone afterward: the buffer pool's frame
// for the page shares it.
func (d *Disk) writePage(clk *vclock.Clock, pid PageID, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[pid.File]
	if !ok {
		return fmt.Errorf("storage: write to unknown file %d", pid.File)
	}
	if len(data) != PageSize {
		return fmt.Errorf("storage: write of %d bytes, want %d", len(data), PageSize)
	}
	if err := d.injectFault(clk, OpWrite, f.class); err != nil {
		return fmt.Errorf("storage: writing page %v: %w", pid, err)
	}
	switch {
	case int(pid.Num) < len(f.pages):
		// Overwrite in place.
	case int(pid.Num) == len(f.pages):
		f.pages = append(f.pages, nil)
	default:
		return fmt.Errorf("storage: write creates hole: page %v of %d", pid, len(f.pages))
	}
	if pid.Num == f.lastWrit+1 {
		clk.ChargeSeqIO(1)
		clk.IO.SeqWrites++
		d.stats.SeqWrites++
		d.met.SeqWrites.Inc()
	} else {
		clk.ChargeRandIO(1)
		clk.IO.RandWrites++
		d.stats.RandWrites++
		d.met.RandWrites.Inc()
	}
	f.lastWrit = pid.Num
	f.pages[pid.Num] = data
	return nil
}
