package catalog_test

import (
	"runtime"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/storage"
	"progressdb/internal/vclock"
	"progressdb/internal/workload"
)

// liveHeap returns the bytes reachable after a collection; the second
// one frees what the first left to sync.Pool's victim cache.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// One scan of every table of the paper's data set at scale 0.02 — 336 000
// string fields, 18 109 distinct strings — grows the heap by the page
// indexes, and the part that is not record spans and field entries (the
// string bytes, each page's table of its strings, the table's map, each
// PageIndex itself) stays under 3 MiB.
func TestPageIndexStringsOnPaperWorkload(t *testing.T) {
	clock := vclock.New(vclock.DefaultCosts(), nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 4096))
	if _, err := workload.Load(cat, workload.Config{Scale: 0.02}); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	offsets := 0
	for _, tb := range cat.Tables() {
		sc := tb.Heap.NewScanner()
		for {
			img, num, ok := sc.NextPage()
			if !ok {
				break
			}
			tb.PageIndex(img, num)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		sc.Close()
		offsets += tb.IndexBytes()
	}
	grown := int(int64(liveHeap()) - int64(before))
	runtime.KeepAlive(cat)
	strs := grown - offsets
	t.Logf("page indexes: %.2f MiB, of which spans and field entries %.2f MiB, strings %.2f MiB", mib(grown), mib(offsets), mib(strs))
	if strs >= 3<<20 {
		t.Fatalf("the page indexes' strings take %.2f MiB, want under 3", mib(strs))
	}
}

func mib(n int) float64 { return float64(n) / (1 << 20) }
