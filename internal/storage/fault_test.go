package storage

import (
	"errors"
	"testing"

	"progressdb/internal/vclock"
)

// stubInjector is a scripted FaultInjector: it fails the first
// transientN targeted accesses transiently, then optionally returns one
// permanent fault, then passes everything through.
type stubInjector struct {
	transientN int // fail this many accesses transiently
	permanent  bool
	calls      int
	latency    float64
}

func (s *stubInjector) BeforePageIO(op FaultOp, class FileClass) (float64, error) {
	s.calls++
	if s.calls <= s.transientN {
		return s.latency, &IOFault{Op: op, Class: class, Seq: int64(s.calls), Permanent: false}
	}
	if s.permanent {
		s.permanent = false
		return s.latency, &IOFault{Op: op, Class: class, Seq: int64(s.calls), Permanent: true}
	}
	return s.latency, nil
}

func writeNPages(t *testing.T, bp *BufferPool, f FileID, n int) {
	t.Helper()
	page := make([]byte, PageSize)
	for i := int32(0); i < int32(n); i++ {
		page[0] = byte(i)
		if err := bp.Put(PageID{File: f, Num: i}, page); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemoveFileInvalidatesPool is the regression test for the bug where
// Disk.Remove left the removed file's pages cached: a later eviction of
// such an orphaned dirty page tried to write back into a nonexistent
// file. RemoveFile must drop the frames first.
func TestRemoveFileInvalidatesPool(t *testing.T) {
	bp, _ := testPool(8)
	f := bp.Disk().CreateTemp()
	writeNPages(t, bp, f, 4)

	// Dirty a cached page so a writeback would be attempted.
	page := make([]byte, PageSize)
	page[0] = 0xff
	if err := bp.Put(PageID{File: f, Num: 2}, page); err != nil {
		t.Fatal(err)
	}

	if err := bp.RemoveFile(f); err != nil {
		t.Fatal(err)
	}
	if bp.Disk().Exists(f) {
		t.Fatal("file still exists after RemoveFile")
	}
	if orphans := bp.OrphanedPages(); len(orphans) != 0 {
		t.Fatalf("orphaned pages after RemoveFile: %v", orphans)
	}
	// No orphaned dirty frame may surface later: Flush must be clean.
	if err := bp.Flush(); err != nil {
		t.Fatalf("flush after RemoveFile: %v", err)
	}
}

// TestOrphanedPagesDetection shows what the leak-check API catches: a
// bare Disk.Remove (the old, buggy order) strands cached pages.
func TestOrphanedPagesDetection(t *testing.T) {
	bp, _ := testPool(8)
	f := bp.Disk().CreateTemp()
	writeNPages(t, bp, f, 3)

	if err := bp.Disk().Remove(f); err != nil { // wrong order on purpose
		t.Fatal(err)
	}
	orphans := bp.OrphanedPages()
	if len(orphans) != 3 {
		t.Fatalf("orphans = %v, want 3 pages of file %v", orphans, f)
	}
	for i, pid := range orphans {
		if pid.File != f || pid.Num != int32(i) {
			t.Fatalf("orphans not sorted: %v", orphans)
		}
	}
	// DropFile repairs the pool.
	bp.DropFile(f)
	if orphans := bp.OrphanedPages(); len(orphans) != 0 {
		t.Fatalf("orphans after DropFile: %v", orphans)
	}
}

func TestOpenFilesByClass(t *testing.T) {
	clock := vclock.New(vclock.Costs{SeqPage: 1, RandPage: 1, CPUTuple: 0}, nil)
	d := NewDisk(clock)
	base := d.Create()
	t1 := d.CreateTemp()
	t2 := d.CreateTemp()

	if got := d.OpenFiles(); len(got) != 3 {
		t.Fatalf("OpenFiles = %v", got)
	}
	if got := d.OpenFilesOfClass(ClassTemp); len(got) != 2 || got[0] != t1 || got[1] != t2 {
		t.Fatalf("temp files = %v, want [%v %v]", got, t1, t2)
	}
	if got := d.OpenFilesOfClass(ClassBase); len(got) != 1 || got[0] != base {
		t.Fatalf("base files = %v, want [%v]", got, base)
	}
	if err := d.Remove(t1); err != nil {
		t.Fatal(err)
	}
	if got := d.OpenFilesOfClass(ClassTemp); len(got) != 1 || got[0] != t2 {
		t.Fatalf("temp files after remove = %v", got)
	}
	if d.Exists(t1) {
		t.Fatal("removed file still Exists")
	}
}

// TestRetryAbsorbsTransientFaults: a fault that clears within the retry
// budget is invisible to the caller except for the backoff time charged
// to the clock and the retry counters.
func TestRetryAbsorbsTransientFaults(t *testing.T) {
	bp, clock := testPool(4)
	f := bp.Disk().Create()
	writeNPages(t, bp, f, 1)
	bp.Clear() // force the next Get to hit the disk

	inj := &stubInjector{transientN: 2}
	bp.Disk().SetFaultInjector(inj)
	before := clock.Now()
	if _, err := bp.Get(PageID{File: f, Num: 0}); err != nil {
		t.Fatalf("transient faults within budget must be absorbed: %v", err)
	}
	if st := bp.Stats(); st.Retries != 2 || st.RetryGiveups != 0 {
		t.Fatalf("stats = %+v, want 2 retries, 0 giveups", st)
	}
	// Two backoffs: base + 2*base.
	if got := clock.Now() - before; got < 3*retryBackoffBase {
		t.Fatalf("backoff not charged: elapsed %g", got)
	}
}

// TestRetryStopsOnPermanentFault: permanent faults are not retried.
func TestRetryStopsOnPermanentFault(t *testing.T) {
	bp, _ := testPool(4)
	f := bp.Disk().Create()
	writeNPages(t, bp, f, 1)
	bp.Clear()

	bp.Disk().SetFaultInjector(&stubInjector{permanent: true})
	_, err := bp.Get(PageID{File: f, Num: 0})
	var fault *IOFault
	if !errors.As(err, &fault) || fault.Transient() {
		t.Fatalf("err = %v, want permanent *IOFault", err)
	}
	if st := bp.Stats(); st.Retries != 0 {
		t.Fatalf("permanent fault must not be retried: %+v", st)
	}
}

// TestRetryBudgetExhaustion: a fault that never clears fails the access
// after maxIOAttempts tries and counts a giveup.
func TestRetryBudgetExhaustion(t *testing.T) {
	bp, _ := testPool(4)
	f := bp.Disk().Create()
	writeNPages(t, bp, f, 1)
	bp.Clear()

	bp.Disk().SetFaultInjector(&stubInjector{transientN: 1 << 30})
	_, err := bp.Get(PageID{File: f, Num: 0})
	if err == nil {
		t.Fatal("unclearing transient fault must eventually fail")
	}
	if !IsTransient(err) {
		t.Fatalf("exhausted-retry error should unwrap to the transient fault: %v", err)
	}
	if st := bp.Stats(); st.Retries != maxIOAttempts-1 || st.RetryGiveups != 1 {
		t.Fatalf("stats = %+v, want %d retries, 1 giveup", st, maxIOAttempts-1)
	}
}

// TestInjectedLatencyChargesClock: latency-only injection advances the
// virtual clock without failing the access.
func TestInjectedLatencyChargesClock(t *testing.T) {
	bp, clock := testPool(4)
	f := bp.Disk().Create()
	writeNPages(t, bp, f, 1)
	bp.Clear()

	bp.Disk().SetFaultInjector(&stubInjector{latency: 0.5})
	before := clock.Now()
	if _, err := bp.Get(PageID{File: f, Num: 0}); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now() - before; got < 0.5 {
		t.Fatalf("injected latency not charged: elapsed %g", got)
	}
}
