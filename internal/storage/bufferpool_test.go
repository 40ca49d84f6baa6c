package storage

import (
	"bytes"
	"testing"
)

// A warm pool's miss shares the disk's page image in the slot its victim
// left: no copy, no frame, no list element — nothing allocated.
func TestBufferPoolMissSharesDiskPage(t *testing.T) {
	pool, _ := testPool(4)
	f := pool.Disk().Create()
	const npages = 64
	for i := int32(0); i < npages; i++ {
		page := make([]byte, PageSize)
		page[0] = byte(i)
		if err := pool.Put(PageID{File: f, Num: i}, page); err != nil {
			t.Fatal(err)
		}
	}
	next := int32(0)
	cycle := func() {
		if _, err := pool.Get(PageID{File: f, Num: next}); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % npages
	}
	for i := 0; i < npages; i++ { // warm: every slot made, every page read once
		cycle()
	}
	before := pool.Stats()
	if n := testing.AllocsPerRun(4*npages, cycle); n != 0 {
		t.Fatalf("a miss on a warm pool allocated %v times", n)
	}
	if st := pool.Stats(); st.Hits != before.Hits || st.Misses == before.Misses {
		t.Fatalf("stats %+v after %+v: the loop must miss on every Get", st, before)
	}

	// A clean resident frame holds the disk's slice itself.
	pid := PageID{File: f, Num: next}
	got, err := pool.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := pool.Disk().readPage(pool.Disk().Clock(), pid)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &onDisk[0] {
		t.Fatal("Get returned a copy of the disk's page, not the page")
	}
	sh := pool.shard(pid)
	if fr := &sh.slots[sh.table[pid]]; fr.dirty || &fr.data[0] != &onDisk[0] {
		t.Fatalf("frame of %v: dirty %v, shares the disk page %v", pid, fr.dirty, &fr.data[0] == &onDisk[0])
	}
}

// Put keeps its own copy, so the caller may reuse its buffer at once —
// on the write-through path (page not resident) and the dirtying one
// (page resident) alike.
func TestBufferPoolPutCopiesCallerBuffer(t *testing.T) {
	pool, _ := testPool(4)
	f := pool.Disk().Create()
	pid := PageID{File: f, Num: 0}
	buf := make([]byte, PageSize)
	for round, want := range []byte{1, 2} {
		buf[0] = want
		if err := pool.Put(pid, buf); err != nil {
			t.Fatal(err)
		}
		buf[0] = 99 // the caller reuses its buffer
		got, err := pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("round %d: Get = %d after the caller rewrote its buffer, want %d", round, got[0], want)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	pool.Clear()
	got, err := pool.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte{2}, make([]byte, PageSize-1)...); !bytes.Equal(got, want) {
		t.Fatalf("disk page starts %v, want the last Put", got[:4])
	}
}

// A HeapFile hands the page it filled to the pool, which keeps it without
// a copy: appending n pages' worth of records allocates n page buffers,
// plus a few objects per file, where a copying Put allocated 2n.
func TestHeapFileAppendAllocatesOneBufferPerPage(t *testing.T) {
	const pages = 64
	pool, _ := testPool(2 * pages)
	rec := make([]byte, 1000)
	perPage := (PageSize - pageHeaderSize) / (len(rec) + recordOverhead)
	allocs := testing.AllocsPerRun(5, func() {
		hf := CreateTempHeapFile(pool)
		for i := 0; i < pages*perPage; i++ {
			if _, err := hf.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := hf.Sync(); err != nil {
			t.Fatal(err)
		}
		if n := hf.NumPages(); n != pages {
			t.Fatalf("%d pages, want %d", n, pages)
		}
		if err := hf.Drop(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d pages: %.0f allocations", pages, allocs)
	if allocs > pages+8 {
		t.Fatalf("appending %d pages allocated %.0f times, want at most %d", pages, allocs, pages+8)
	}
}
