package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"progressdb/internal/storage"
	"progressdb/internal/vclock"
)

func testPool(capacity int) *storage.BufferPool {
	clock := vclock.New(vclock.DefaultCosts(), nil)
	return storage.NewBufferPool(storage.NewDisk(clock), capacity)
}

func rid(i int) storage.RID {
	return storage.RID{Page: storage.PageID{File: 9, Num: int32(i / 100)}, Slot: uint16(i % 100)}
}

func sortedEntries(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: int64(i * 2), RID: rid(i)} // even keys
	}
	return es
}

func collect(t *testing.T, it *Iterator) []Entry {
	t.Helper()
	var out []Entry
	for {
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func TestBulkLoadAndScan(t *testing.T) {
	pool := testPool(256)
	tree, err := BulkLoad(pool, sortedEntries(10000))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 10000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if tree.Height() < 2 {
		t.Fatalf("10k entries should need height >= 2, got %d", tree.Height())
	}
	it, err := tree.FirstOn(pool.Disk().Clock())
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it)
	if len(got) != 10000 {
		t.Fatalf("scanned %d entries", len(got))
	}
	for i, e := range got {
		if e.Key != int64(i*2) || e.RID != rid(i) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

func TestBulkLoadUnsortedRejected(t *testing.T) {
	pool := testPool(16)
	if _, err := BulkLoad(pool, []Entry{{Key: 5}, {Key: 3}}); err == nil {
		t.Fatal("unsorted bulk load must fail")
	}
}

func TestSearchExactAndMissing(t *testing.T) {
	pool := testPool(256)
	tree, err := BulkLoad(pool, sortedEntries(5000))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{0, 2, 4998, 9998} {
		rids, err := tree.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 1 || rids[0] != rid(int(k/2)) {
			t.Fatalf("Search(%d) = %v", k, rids)
		}
	}
	for _, k := range []int64{-1, 1, 3, 9999, 100001} { // odd/out-of-range keys absent
		rids, err := tree.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 0 {
			t.Fatalf("Search(%d) = %v, want empty", k, rids)
		}
	}
}

func TestSeekRangeScan(t *testing.T) {
	pool := testPool(256)
	tree, err := BulkLoad(pool, sortedEntries(5000))
	if err != nil {
		t.Fatal(err)
	}
	it, err := tree.SeekGE(101) // first key >= 101 is 102
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || e.Key > 120 {
			break
		}
		got = append(got, e.Key)
	}
	want := []int64{102, 104, 106, 108, 110, 112, 114, 116, 118, 120}
	if len(got) != len(want) {
		t.Fatalf("range scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range scan = %v", got)
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	pool := testPool(64)
	var es []Entry
	for i := 0; i < 300; i++ {
		es = append(es, Entry{Key: int64(i / 10), RID: rid(i)}) // 10 dups per key
	}
	tree, err := BulkLoad(pool, es)
	if err != nil {
		t.Fatal(err)
	}
	rids, err := tree.Search(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 10 {
		t.Fatalf("Search(7) found %d rids, want 10", len(rids))
	}
}

// Duplicates of one key straddle leaf boundaries (a bulk-loaded leaf holds
// MaxLeafEntries*9/10 entries, not a multiple of 10), and the separator
// above such a boundary equals the key: a read must start in the left
// leaf. Following the separator into the right child lost the duplicates
// left behind — 2 to 8 rows instead of 10 for the straddling keys.
func TestDuplicateKeysAcrossLeafBoundaries(t *testing.T) {
	const perKey, keys = 10, 3000
	if (MaxLeafEntries*9/10)%perKey == 0 {
		t.Fatal("test needs duplicate groups that straddle bulk-loaded leaves")
	}
	check := func(tree *Tree) {
		t.Helper()
		for k := int64(0); k < keys; k++ {
			rids, err := tree.Search(k)
			if err != nil {
				t.Fatal(err)
			}
			if len(rids) != perKey {
				t.Fatalf("Search(%d) found %d rids, want %d", k, len(rids), perKey)
			}
			for i, r := range rids {
				if r != rid(int(k)*perKey+i) {
					t.Fatalf("Search(%d) rid %d = %v: duplicates out of insertion order", k, i, r)
				}
			}
			it, err := tree.SeekGE(k)
			if err != nil {
				t.Fatal(err)
			}
			if e, ok, err := it.Next(); err != nil || !ok || e.Key != k || e.RID != rid(int(k)*perKey) {
				t.Fatalf("SeekGE(%d) starts at %+v (ok=%v err=%v)", k, e, ok, err)
			}
		}
	}

	es := make([]Entry, keys*perKey)
	for i := range es {
		es[i] = Entry{Key: int64(i / perKey), RID: rid(i)}
	}
	bulk, err := BulkLoad(testPool(512), es)
	if err != nil {
		t.Fatal(err)
	}
	check(bulk)

	// The same entries through Insert: leaf and internal splits put
	// separators inside duplicate groups too.
	ins, err := Create(testPool(512))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		if err := ins.Insert(e.Key, e.RID); err != nil {
			t.Fatal(err)
		}
	}
	check(ins)
}

func TestInsertIntoEmpty(t *testing.T) {
	pool := testPool(64)
	tree, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{5, 1, 9, 3, 7}
	for i, k := range keys {
		if err := tree.Insert(k, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	it, _ := tree.FirstOn(pool.Disk().Clock())
	got := collect(t, it)
	var gk []int64
	for _, e := range got {
		gk = append(gk, e.Key)
	}
	want := []int64{1, 3, 5, 7, 9}
	for i := range want {
		if gk[i] != want[i] {
			t.Fatalf("keys after insert = %v", gk)
		}
	}
}

func TestInsertManySplits(t *testing.T) {
	pool := testPool(512)
	tree, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for i, k := range perm {
		if err := tree.Insert(int64(k), rid(i)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if tree.Len() != n {
		t.Fatalf("Len = %d", tree.Len())
	}
	if tree.Height() < 2 {
		t.Fatalf("height = %d after %d inserts", tree.Height(), n)
	}
	it, _ := tree.FirstOn(pool.Disk().Clock())
	got := collect(t, it)
	if len(got) != n {
		t.Fatalf("scan found %d entries, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Key < got[i-1].Key {
			t.Fatalf("keys out of order at %d: %d < %d", i, got[i].Key, got[i-1].Key)
		}
	}
	// Every key findable.
	for k := 0; k < n; k += 997 {
		rids, err := tree.Search(int64(k))
		if err != nil || len(rids) != 1 {
			t.Fatalf("Search(%d) = %v, %v", k, rids, err)
		}
	}
}

func TestInsertIntoBulkLoaded(t *testing.T) {
	pool := testPool(512)
	tree, err := BulkLoad(pool, sortedEntries(3000)) // even keys 0..5998
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tree.Insert(int64(i*2+1), rid(100000+i)); err != nil { // odd keys
			t.Fatal(err)
		}
	}
	it, _ := tree.FirstOn(pool.Disk().Clock())
	got := collect(t, it)
	if len(got) != 6000 {
		t.Fatalf("scan = %d entries", len(got))
	}
	for i, e := range got {
		if e.Key != int64(i) {
			t.Fatalf("key %d = %d", i, e.Key)
		}
	}
}

func TestOpenRoundTrip(t *testing.T) {
	pool := testPool(256)
	tree, err := BulkLoad(pool, sortedEntries(1000))
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(pool, tree.File())
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1000 || re.Height() != tree.Height() {
		t.Fatalf("reopened: len %d height %d", re.Len(), re.Height())
	}
	rids, err := re.Search(500)
	if err != nil || len(rids) != 1 {
		t.Fatalf("reopened search: %v %v", rids, err)
	}
}

func TestIndexScanChargesIO(t *testing.T) {
	clock := vclock.New(vclock.Costs{SeqPage: 1, RandPage: 1, CPUTuple: 0}, nil)
	pool := storage.NewBufferPool(storage.NewDisk(clock), 4) // tiny pool forces misses
	tree, err := BulkLoad(pool, sortedEntries(50000))
	if err != nil {
		t.Fatal(err)
	}
	before := clock.Now()
	it, _ := tree.FirstOn(pool.Disk().Clock())
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 50000 {
		t.Fatalf("scanned %d", n)
	}
	if clock.Now() == before {
		t.Fatal("full index scan through a tiny pool must charge I/O")
	}
}

// Property: a bulk-loaded tree returns exactly the loaded keys in order,
// and Seek(k) lands on the first key >= k.
func TestPropertyBulkLoadSeek(t *testing.T) {
	f := func(raw []int16, probe int16) bool {
		keys := make([]int64, 0, len(raw))
		for _, k := range raw {
			keys = append(keys, int64(k))
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		es := make([]Entry, len(keys))
		for i, k := range keys {
			es[i] = Entry{Key: k, RID: rid(i)}
		}
		pool := testPool(128)
		tree, err := BulkLoad(pool, es)
		if err != nil {
			return false
		}
		it, err := tree.SeekGE(int64(probe))
		if err != nil {
			return false
		}
		e, ok, err := it.Next()
		if err != nil {
			return false
		}
		// Expected: first key >= probe.
		idx := sort.Search(len(keys), func(i int) bool { return keys[i] >= int64(probe) })
		if idx == len(keys) {
			return !ok
		}
		return ok && e.Key == keys[idx]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Force internal-node splits through the insert path: bulk-load until the
// root internal node is nearly full, then insert into its leaves until it
// must split and grow a new root.
func TestInsertSplitsInternalNodes(t *testing.T) {
	pool := testPool(4096)
	// Bulk load enough entries that the root internal node holds many
	// hundreds of children (fanout ~682).
	const n = 250000
	tree, err := BulkLoad(pool, sortedEntries(n)) // even keys 0..2n-2
	if err != nil {
		t.Fatal(err)
	}
	h := tree.Height()
	// Insert odd keys until the height grows (internal split propagated
	// to a new root) or we've inserted plenty.
	grew := false
	for i := 0; i < 80000; i++ {
		if err := tree.Insert(int64(i*2+1), rid(i)); err != nil {
			t.Fatal(err)
		}
		if tree.Height() > h {
			grew = true
			break
		}
	}
	if !grew {
		t.Fatalf("height stayed %d after dense inserts (internal splits not exercised)", h)
	}
	// Structure stays ordered and searchable.
	for _, k := range []int64{1, 2, 99999, 160001} {
		if _, err := tree.Search(k); err != nil {
			t.Fatalf("Search(%d): %v", k, err)
		}
	}
	it, err := tree.SeekGE(0)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	count := 0
	for {
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e.Key < prev {
			t.Fatalf("order violated: %d after %d", e.Key, prev)
		}
		prev = e.Key
		count++
	}
	if count < n {
		t.Fatalf("scan lost entries: %d < %d", count, n)
	}
}

func TestOpenCorruptMeta(t *testing.T) {
	pool := testPool(16)
	f := pool.Disk().Create()
	if err := pool.Put(storage.PageID{File: f, Num: 0}, make([]byte, storage.PageSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(pool, f); err == nil {
		t.Fatal("zeroed meta page must be rejected")
	}
}
