package storage

import (
	"encoding/binary"
	"fmt"

	"progressdb/internal/vclock"
)

// Heap-file page layout (Records reads it):
//
//	[0:2]  uint16 tuple count
//	[2:4]  uint16 end of used space
//	[4:]   records, back to back: uint16 length + payload
//
// Records are addressed by ordinal slot within the page; pages never
// contain holes (this engine does not delete individual tuples, matching
// the read-only workloads of the paper's evaluation).
const pageHeaderSize = 4

// recordOverhead is the per-record length prefix.
const recordOverhead = 2

// MaxRecordSize is the largest payload that fits in one page.
const MaxRecordSize = PageSize - pageHeaderSize - recordOverhead

// HeapFile stores variable-length records in pages, accessed through the
// buffer pool. It serves both base relations and the engine's temp files
// (sort runs, hash-join partitions).
//
// A HeapFile is bound to a clock at creation: base files to the disk's
// base clock (DDL and loads are single-threaded by contract), temp files
// created with CreateTempHeapFileOn to the owning query's worker clock,
// so every append, sync, and scan of per-query scratch data charges that
// query. One HeapFile value must not be used from multiple goroutines;
// concurrent queries reading one base table each wrap its id in their
// own scanner via NewScannerOn.
type HeapFile struct {
	pool  *BufferPool
	id    FileID
	clock *vclock.Clock

	// Append state: the page being filled, not yet written.
	cur      []byte
	curCount uint16
	curUsed  uint16
	curPage  int32
	nrecords int64
}

// CreateHeapFile allocates a new empty ClassBase heap file on the
// pool's disk (table heaps — files that outlive queries).
func CreateHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool, id: pool.Disk().Create(), clock: pool.Disk().Clock(), curPage: -1}
}

// CreateTempHeapFile allocates a new empty ClassTemp heap file (spill
// partitions, sort runs) charging the disk's base clock. Temp files must
// be Dropped on every query exit path; Disk.OpenFilesOfClass(ClassTemp)
// is the leak check.
func CreateTempHeapFile(pool *BufferPool) *HeapFile {
	return CreateTempHeapFileOn(pool, pool.Disk().Clock())
}

// CreateTempHeapFileOn allocates a new empty ClassTemp heap file bound
// to the given worker clock: all I/O through the returned HeapFile —
// appends, Sync, scans — charges that clock, so a query's spill traffic
// lands on the query's own timeline.
func CreateTempHeapFileOn(pool *BufferPool, clk *vclock.Clock) *HeapFile {
	return &HeapFile{pool: pool, id: pool.Disk().CreateTemp(), clock: clk, curPage: -1}
}

// ID returns the underlying file id.
func (hf *HeapFile) ID() FileID { return hf.id }

// Len returns the number of records appended so far.
func (hf *HeapFile) Len() int64 { return hf.nrecords }

// NumPages returns the number of pages, counting the partially filled
// append page.
func (hf *HeapFile) NumPages() int {
	n, err := hf.pool.Disk().NumPages(hf.id)
	if err != nil {
		return 0
	}
	if hf.cur != nil {
		n++
	}
	return n
}

// Append adds a record and returns its RID.
func (hf *HeapFile) Append(rec []byte) (RID, error) {
	if len(rec) > MaxRecordSize {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	need := uint16(len(rec) + recordOverhead)
	if hf.cur == nil {
		hf.startPage()
	}
	if PageSize-int(hf.curUsed) < int(need) {
		if err := hf.flushCur(); err != nil {
			return RID{}, err
		}
		hf.startPage()
	}
	binary.LittleEndian.PutUint16(hf.cur[hf.curUsed:], uint16(len(rec)))
	copy(hf.cur[hf.curUsed+recordOverhead:], rec)
	rid := RID{Page: PageID{File: hf.id, Num: hf.curPage}, Slot: hf.curCount}
	hf.curUsed += need
	hf.curCount++
	hf.nrecords++
	return rid, nil
}

func (hf *HeapFile) startPage() {
	hf.cur = make([]byte, PageSize)
	hf.curCount = 0
	hf.curUsed = pageHeaderSize
	n, _ := hf.pool.Disk().NumPages(hf.id)
	hf.curPage = int32(n)
}

func (hf *HeapFile) flushCur() error {
	if hf.cur == nil {
		return nil
	}
	binary.LittleEndian.PutUint16(hf.cur[0:2], hf.curCount)
	binary.LittleEndian.PutUint16(hf.cur[2:4], hf.curUsed)
	// The page is handed over, not copied: the next Append starts another.
	err := hf.pool.putOwned(hf.clock, PageID{File: hf.id, Num: hf.curPage}, hf.cur)
	hf.cur = nil
	return err
}

// Sync flushes the partially filled append page so all records are
// readable. Call once after loading; further appends start a new page.
func (hf *HeapFile) Sync() error { return hf.flushCur() }

// Drop removes the file from disk and the buffer pool (frames first, so
// no orphaned dirty page can be written back later). Dropping twice is
// an error, matching Disk.Remove.
func (hf *HeapFile) Drop() error {
	hf.cur = nil
	return hf.pool.RemoveFile(hf.id)
}

// FetchOn returns the record stored at rid (a copy), charging the given
// clock.
func (hf *HeapFile) FetchOn(clk *vclock.Clock, rid RID) ([]byte, error) {
	page, err := hf.pool.GetOn(clk, rid.Page)
	if err != nil {
		return nil, err
	}
	recs := PageRecords(page)
	if n := recs.Len(); int(rid.Slot) >= n {
		return nil, fmt.Errorf("storage: slot %d out of range (page has %d)", rid.Slot, n)
	}
	for range rid.Slot {
		recs.Next()
	}
	start, end := recs.Next()
	return append([]byte(nil), page[start:end]...), nil
}

// Records frames the records of a heap-page image in slot order: the one
// reading of the page layout, for scanners, fetches and page indexes.
type Records struct {
	img  []byte
	left int // records not yet framed
	off  int // where the next record's length prefix is
}

// PageRecords returns the records of a heap-page image.
func PageRecords(img []byte) Records {
	return Records{img: img, left: int(binary.LittleEndian.Uint16(img[0:2])), off: pageHeaderSize}
}

// Len returns the number of records not yet framed.
func (r *Records) Len() int { return r.left }

// Next frames the next record: it lies in the image at [start, end).
// Call it only while Len is positive.
func (r *Records) Next() (start, end int) {
	start = r.off + recordOverhead
	end = start + int(binary.LittleEndian.Uint16(r.img[r.off:]))
	r.off = end
	r.left--
	return start, end
}

// Scanner iterates over all records of a heap file in storage order, by
// record (Next) or by page (NextPage). Pinning scanners (NewScannerOn)
// hold a pin on their current page so it cannot be evicted mid-page;
// Close releases the pin and is safe to call more than once.
type Scanner struct {
	hf      *HeapFile
	clk     *vclock.Clock
	pin     bool
	hasPin  bool
	npages  int
	pageNum int32
	page    []byte
	recs    Records
	slot    uint16
	err     error
}

// NewScanner returns a scanner positioned before the first record,
// charging the file's bound clock, without page pinning (single-threaded
// DDL/load/stats paths and per-query temp files). The file must be
// Synced.
func (hf *HeapFile) NewScanner() *Scanner {
	n, err := hf.pool.Disk().NumPages(hf.id)
	return &Scanner{hf: hf, clk: hf.clock, npages: n, pageNum: -1, err: err}
}

// NewScannerOn returns a scanner charging the given worker clock and
// pinning its current page in the buffer pool. Callers must Close it on
// every exit path; the executor tracks these in exec.Env so the unwind
// releases pins even on panic.
func (hf *HeapFile) NewScannerOn(clk *vclock.Clock) *Scanner {
	n, err := hf.pool.Disk().NumPages(hf.id)
	return &Scanner{hf: hf, clk: clk, pin: true, npages: n, pageNum: -1, err: err}
}

// Next returns the next record and its RID, or ok=false at end of file or
// on error (check Err).
func (s *Scanner) Next() (rec []byte, rid RID, ok bool) {
	for s.recs.Len() == 0 {
		if !s.step() {
			return nil, RID{}, false
		}
	}
	start, end := s.recs.Next()
	rid = RID{Page: PageID{File: s.hf.id, Num: s.pageNum}, Slot: s.slot}
	s.slot++
	return s.page[start:end], rid, true
}

// NextPage moves to the next page that holds a record and returns its
// image (the pool's, never written in place) and number, or ok=false at
// end of file or on error (check Err). It stays pinned until the next
// NextPage or Close.
func (s *Scanner) NextPage() (img []byte, num int32, ok bool) {
	for s.step() {
		if s.recs.Len() > 0 {
			return s.page, s.pageNum, true
		}
	}
	return nil, 0, false
}

// step reads the scanner's next page, moving its pin there, and reports
// whether there was one.
func (s *Scanner) step() bool {
	if s.err != nil {
		return false
	}
	s.releasePin()
	s.pageNum++
	if int(s.pageNum) >= s.npages {
		return false
	}
	pid := PageID{File: s.hf.id, Num: s.pageNum}
	var page []byte
	var err error
	if s.pin {
		page, err = s.hf.pool.getPinned(s.clk, pid)
		s.hasPin = err == nil
	} else {
		page, err = s.hf.pool.GetOn(s.clk, pid)
	}
	if err != nil {
		s.err = err
		return false
	}
	s.page, s.recs, s.slot = page, PageRecords(page), 0
	return true
}

// releasePin drops the pin on the current page, if any.
func (s *Scanner) releasePin() {
	if s.hasPin {
		s.hf.pool.unpin(PageID{File: s.hf.id, Num: s.pageNum})
		s.hasPin = false
	}
}

// Close releases the scanner's page pin and exhausts the scanner (a
// later Next reports end of file). Idempotent; required for pinning
// scanners, a no-op otherwise.
func (s *Scanner) Close() {
	s.releasePin()
	s.page, s.recs, s.slot = nil, Records{}, 0
	s.pageNum = int32(s.npages)
}

// Err returns the first error encountered while scanning.
func (s *Scanner) Err() error { return s.err }
