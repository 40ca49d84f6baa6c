package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"progressdb/internal/vclock"
)

func testPool(capacity int) (*BufferPool, *vclock.Clock) {
	clock := vclock.New(vclock.Costs{SeqPage: 1, RandPage: 10, CPUTuple: 0}, nil)
	disk := NewDisk(clock)
	return NewBufferPool(disk, capacity), clock
}

func TestDiskReadWriteSequentialCosts(t *testing.T) {
	clock := vclock.New(vclock.Costs{SeqPage: 1, RandPage: 10, CPUTuple: 0}, nil)
	d := NewDisk(clock)
	f := d.Create()
	page := make([]byte, PageSize)

	// Appending pages 0,1,2: page 0 is "random" (no predecessor), 1 and 2 sequential.
	for i := int32(0); i < 3; i++ {
		if err := d.writePage(d.Clock(), PageID{File: f, Num: i}, page); err != nil {
			t.Fatal(err)
		}
	}
	if got := clock.Now(); got != 12 {
		t.Fatalf("3 appends cost %g, want 12 (10 rand + 2 seq)", got)
	}
	st := d.Stats()
	if st.SeqWrites != 2 || st.RandWrites != 1 {
		t.Fatalf("write stats = %+v", st)
	}

	// Sequential read of 0,1,2 then re-read of 0 (random).
	before := clock.Now()
	for i := int32(0); i < 3; i++ {
		if _, err := d.readPage(d.Clock(), PageID{File: f, Num: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.readPage(d.Clock(), PageID{File: f, Num: 0}); err != nil {
		t.Fatal(err)
	}
	// read 0: rand(10); 1,2: seq(2); reread 0: rand(10)
	if got := clock.Now() - before; got != 22 {
		t.Fatalf("reads cost %g, want 22", got)
	}
}

func TestDiskErrors(t *testing.T) {
	_, clock := testPool(4)
	d := NewDisk(clock)
	f := d.Create()
	if _, err := d.readPage(d.Clock(), PageID{File: f, Num: 0}); err == nil {
		t.Fatal("read past EOF must fail")
	}
	if err := d.writePage(d.Clock(), PageID{File: f, Num: 5}, make([]byte, PageSize)); err == nil {
		t.Fatal("write creating a hole must fail")
	}
	if err := d.writePage(d.Clock(), PageID{File: f, Num: 0}, make([]byte, 10)); err == nil {
		t.Fatal("short write must fail")
	}
	if _, err := d.readPage(d.Clock(), PageID{File: 99, Num: 0}); err == nil {
		t.Fatal("read of unknown file must fail")
	}
	if err := d.Remove(f); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(f); err == nil {
		t.Fatal("double remove must fail")
	}
}

func TestBufferPoolHitAvoidsIO(t *testing.T) {
	pool, clock := testPool(4)
	f := pool.Disk().Create()
	page := make([]byte, PageSize)
	page[0] = 42
	pid := PageID{File: f, Num: 0}
	if err := pool.Put(pid, page); err != nil {
		t.Fatal(err)
	}
	costAfterWrite := clock.Now()
	for i := 0; i < 10; i++ {
		got, err := pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 42 {
			t.Fatal("wrong page data")
		}
	}
	if clock.Now() != costAfterWrite {
		t.Fatalf("cached reads must be free; cost grew by %g", clock.Now()-costAfterWrite)
	}
	if st := pool.Stats(); st.Hits != 10 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 10 hits and no miss", st)
	}
}

func TestBufferPoolEvictionChargesIO(t *testing.T) {
	pool, clock := testPool(2)
	f := pool.Disk().Create()
	page := make([]byte, PageSize)
	for i := int32(0); i < 3; i++ {
		if err := pool.Put(PageID{File: f, Num: i}, page); err != nil {
			t.Fatal(err)
		}
	}
	// Page 0 was evicted clean (Put writes through); re-reading it is a miss.
	before := clock.Now()
	if _, err := pool.Get(PageID{File: f, Num: 0}); err != nil {
		t.Fatal(err)
	}
	if clock.Now() == before {
		t.Fatal("miss after eviction must charge I/O")
	}
}

func TestBufferPoolDirtyEvictionWritesBack(t *testing.T) {
	pool, _ := testPool(2)
	f := pool.Disk().Create()
	blank := make([]byte, PageSize)
	// Establish pages 0 and 1 on disk and in pool.
	pool.Put(PageID{File: f, Num: 0}, blank)
	pool.Put(PageID{File: f, Num: 1}, blank)
	// Dirty page 0 in place.
	mod := make([]byte, PageSize)
	mod[7] = 9
	if err := pool.Put(PageID{File: f, Num: 0}, mod); err != nil {
		t.Fatal(err)
	}
	// Force eviction of page 1 then page 0 by touching two new pages.
	pool.Put(PageID{File: f, Num: 2}, blank)
	pool.Put(PageID{File: f, Num: 3}, blank)
	pool.Clear()
	got, err := pool.Get(PageID{File: f, Num: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got[7] != 9 {
		t.Fatal("dirty eviction lost the write")
	}
}

func TestBufferPoolFlushAndClear(t *testing.T) {
	pool, _ := testPool(8)
	f := pool.Disk().Create()
	blank := make([]byte, PageSize)
	pool.Put(PageID{File: f, Num: 0}, blank)
	mod := make([]byte, PageSize)
	mod[0] = 1
	pool.Put(PageID{File: f, Num: 0}, mod) // cached dirty
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	pool.Clear()
	got, err := pool.Get(PageID{File: f, Num: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatal("flush did not persist dirty page")
	}
	if st := pool.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v: clear must reset hit statistics", st)
	}
}

func TestHeapFileAppendScan(t *testing.T) {
	pool, _ := testPool(64)
	hf := CreateHeapFile(pool)
	var want [][]byte
	for i := 0; i < 5000; i++ {
		rec := []byte(fmt.Sprintf("record-%06d-%s", i, bytes.Repeat([]byte{'x'}, i%200)))
		want = append(want, rec)
		if _, err := hf.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := hf.Sync(); err != nil {
		t.Fatal(err)
	}
	if hf.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", hf.Len())
	}
	sc := hf.NewScanner()
	i := 0
	for {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		if !bytes.Equal(rec, want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
		i++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if i != 5000 {
		t.Fatalf("scanned %d records, want 5000", i)
	}
}

func TestHeapFileFetchByRID(t *testing.T) {
	pool, clock := testPool(64)
	hf := CreateHeapFile(pool)
	rids := make([]RID, 0, 1000)
	for i := 0; i < 1000; i++ {
		rid, err := hf.Append([]byte(fmt.Sprintf("v%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	hf.Sync()
	r := rand.New(rand.NewSource(7))
	for k := 0; k < 200; k++ {
		i := r.Intn(1000)
		rec, err := hf.FetchOn(clock, rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(rec) != fmt.Sprintf("v%04d", i) {
			t.Fatalf("fetch %v = %q", rids[i], rec)
		}
	}
	if _, err := hf.FetchOn(clock, RID{Page: rids[0].Page, Slot: 60000}); err == nil {
		t.Fatal("fetch of bad slot must fail")
	}
}

func TestHeapFileOversizeRecord(t *testing.T) {
	pool, _ := testPool(4)
	hf := CreateHeapFile(pool)
	if _, err := hf.Append(make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("oversize record must fail")
	}
	if _, err := hf.Append(make([]byte, MaxRecordSize)); err != nil {
		t.Fatalf("max-size record must fit: %v", err)
	}
}

func TestHeapFileDrop(t *testing.T) {
	pool, _ := testPool(4)
	hf := CreateHeapFile(pool)
	hf.Append([]byte("x"))
	hf.Sync()
	if err := hf.Drop(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Disk().NumPages(hf.ID()); err == nil {
		t.Fatal("dropped file must be gone")
	}
}

// Property: for any batch of records, append-then-scan returns exactly the
// same records in order, regardless of record sizes and pool capacity.
func TestPropertyHeapFileRoundTrip(t *testing.T) {
	f := func(sizes []uint16, cap8 uint8) bool {
		pool, _ := testPool(int(cap8%16) + 1)
		hf := CreateHeapFile(pool)
		var want [][]byte
		for i, sz := range sizes {
			if len(want) >= 300 {
				break
			}
			rec := bytes.Repeat([]byte{byte(i)}, int(sz)%1000+1)
			want = append(want, rec)
			if _, err := hf.Append(rec); err != nil {
				return false
			}
		}
		if err := hf.Sync(); err != nil {
			return false
		}
		sc := hf.NewScanner()
		i := 0
		for {
			rec, _, ok := sc.Next()
			if !ok {
				break
			}
			if i >= len(want) || !bytes.Equal(rec, want[i]) {
				return false
			}
			i++
		}
		return sc.Err() == nil && i == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPageIDString(t *testing.T) {
	if got := (PageID{File: 3, Num: 17}).String(); got != "3:17" {
		t.Fatalf("PageID.String = %q", got)
	}
}

func TestAccessorsAndCounters(t *testing.T) {
	pool, clock := testPool(4)
	_ = clock
	d := pool.Disk()
	if pool.Capacity() != 4 {
		t.Fatalf("capacity = %d", pool.Capacity())
	}
	if d.Clock() == nil {
		t.Fatal("disk clock accessor")
	}
	f := d.Create()
	page := make([]byte, PageSize)
	for i := int32(0); i < 3; i++ {
		if err := d.writePage(d.Clock(), PageID{File: f, Num: i}, page); err != nil {
			t.Fatal(err)
		}
	}
	d.readPage(d.Clock(), PageID{File: f, Num: 0})
	st := d.Stats()
	if st.Writes() != 3 || st.Reads() != 1 {
		t.Fatalf("stats: %+v", st)
	}
	hf := CreateHeapFile(pool)
	if hf.NumPages() != 0 {
		t.Fatalf("empty heap NumPages = %d", hf.NumPages())
	}
	hf.Append([]byte("x"))
	if hf.NumPages() != 1 { // partially filled append page counts
		t.Fatalf("NumPages = %d", hf.NumPages())
	}
	hf.Sync()
	if hf.NumPages() != 1 {
		t.Fatalf("NumPages after sync = %d", hf.NumPages())
	}
}

func TestBufferPoolCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity pool must panic")
		}
	}()
	clock := vclock.New(vclock.DefaultCosts(), nil)
	NewBufferPool(NewDisk(clock), 0)
}
