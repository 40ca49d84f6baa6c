package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/plan"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// The page index's oracle: a SeqScan, which frames records and finds
// fields through the table's page index, must return what decoding every
// record with DecodeInto returns — the same rows, the same lastRowBytes,
// and the same error at the same row.

// scanned is what a scan returned: each row (copied) and its
// lastRowBytes, then the error that ended it, if one did.
type scanned struct {
	rows  []tuple.Tuple
	sizes []int
	err   string
}

// scanIndexed runs a SeqScan over tb under layout lay on clk. It may run
// on any goroutine.
func scanIndexed(t testing.TB, pool *storage.BufferPool, clk *vclock.Clock, tb *catalog.Table, lay []int) scanned {
	t.Helper()
	s := &seqScan{node: &plan.SeqScan{Table: tb}, env: &Env{Pool: pool, Clock: clk}, scanSlot: newScanSlot(lay, tb.Schema.Arity())}
	var out scanned
	if err := s.Open(); err != nil {
		t.Error(err)
		return out
	}
	for {
		row, ok, err := s.Next()
		if err != nil {
			out.err = err.Error()
			break
		}
		if !ok {
			break
		}
		out.rows = append(out.rows, row.Clone())
		out.sizes = append(out.sizes, s.lastRowBytes())
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	return out
}

// checkUnpinned fails t if a frame of pool is still pinned.
func checkUnpinned(t testing.TB, pool *storage.BufferPool) {
	t.Helper()
	if n := pool.PinnedFrames(); n != 0 {
		t.Fatalf("closed scans left %d frames pinned", n)
	}
}

// scanDecoded is the reference: every record of tb's heap, in storage
// order, decoded by DecodeInto into one slot under layout lay.
func scanDecoded(t testing.TB, tb *catalog.Table, lay []int) scanned {
	t.Helper()
	sc := tb.Heap.NewScanner()
	defer sc.Close()
	slot := newScanSlot(lay, tb.Schema.Arity())
	var out scanned
	for {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		row, err := slot.decode(rec, tb.Schema.Arity())
		if err != nil {
			out.err = err.Error()
			break
		}
		out.rows = append(out.rows, row.Clone())
		out.sizes = append(out.sizes, slot.lastRowBytes())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// indexTable loads a table drawn from seed onto a fresh engine: one to
// eight columns of random kinds and up to 1 200 rows (up to a few pages).
// A String column draws from five strings, often empty, that repeat
// across pages, or is unique on every row, or mixes the two. In one Int
// or Float column, if there is one, values of the other kind are appended
// past catalog.Insert's type check. If bad is below the row count, record
// bad is broken: cut short at a random byte if how is even, else given a
// bad tag at a random field.
func indexTable(t testing.TB, seed int64, bad int, how uint8) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clock := vclock.New(vclock.DefaultCosts(), nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 256))
	kinds := make([]tuple.Type, 1+rng.Intn(8))
	cols := make([]tuple.Column, len(kinds))
	strMode := make([]int, len(kinds)) // 0 repeated, 1 unique, 2 mixed
	for i := range kinds {
		kinds[i], strMode[i] = tuple.Type(rng.Intn(3)), rng.Intn(3)
		cols[i] = tuple.Column{Name: fmt.Sprintf("c%d", i), Type: kinds[i]}
	}
	tb, err := cat.CreateTable("t", tuple.NewSchema(cols...))
	if err != nil {
		t.Fatal(err)
	}
	strs := []string{"", "", "a", "same", strings.Repeat("x", 60)}
	val := func(k tuple.Type, mode, r int) tuple.Value {
		switch k {
		case tuple.Int:
			return tuple.NewInt(rng.Int63n(1000) - 500)
		case tuple.Float:
			return tuple.NewFloat(rng.NormFloat64())
		}
		if mode == 2 {
			mode = rng.Intn(2)
		}
		if mode == 0 {
			return tuple.NewString(strs[rng.Intn(len(strs))])
		}
		return tuple.NewString(fmt.Sprintf("row %d, %x", r, rng.Int63()))
	}
	mix := rng.Intn(len(kinds))
	for r := range rng.Intn(1200) {
		row := make(tuple.Tuple, len(kinds))
		for i, k := range kinds {
			row[i] = val(k, strMode[i], r)
		}
		switch {
		case r == bad:
			rec := row.Encode(nil)
			if how%2 == 0 {
				rec = rec[:rng.Intn(len(rec))]
			} else {
				rec[row[:rng.Intn(len(row))].EncodedSize()] = byte(3 + rng.Intn(253))
			}
			_, err = tb.Heap.Append(rec)
		case kinds[mix] != tuple.String && rng.Intn(4) == 0:
			row[mix] = val(tuple.Int+tuple.Float-kinds[mix], 0, r)
			_, err = tb.Heap.Append(row.Encode(nil))
		default:
			err = cat.Insert(tb, row)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Heap.Sync(); err != nil {
		t.Fatal(err)
	}
	return cat, tb
}

// checkScanIndex holds scans of seed's table through the index — the one
// that builds it and a later one that reuses it — to the reference under
// a nil, a pruned and an empty layout.
func checkScanIndex(t *testing.T, seed int64, bad int, how uint8) {
	cat, tb := indexTable(t, seed, bad, how)
	arity := tb.Schema.Arity()
	rng := rand.New(rand.NewSource(seed))
	pruned := make([]int, arity)
	empty := make([]int, arity)
	perm := rng.Perm(arity)
	for i := range pruned {
		pruned[i], empty[i] = -1, -1
		if rng.Intn(2) == 0 {
			pruned[i] = perm[i]
		}
	}
	clk := cat.Pool().Disk().Clock()
	for _, lay := range [][]int{nil, pruned, empty, nil} {
		want := scanDecoded(t, tb, lay)
		if got := scanIndexed(t, cat.Pool(), clk, tb, lay); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, bad record %d (how %d), layout %v:\nindexed scan: %d rows, error %q\nDecodeInto:   %d rows, error %q\nrows equal: %v, sizes equal: %v",
				seed, bad, how, lay, len(got.rows), got.err, len(want.rows), want.err,
				reflect.DeepEqual(got.rows, want.rows), reflect.DeepEqual(got.sizes, want.sizes))
		}
		checkUnpinned(t, cat.Pool())
	}
}

func TestScanIndexMatchesDecodeInto(t *testing.T) {
	for seed := range int64(60) {
		rng := rand.New(rand.NewSource(-seed))
		checkScanIndex(t, seed, rng.Intn(1500), uint8(seed))
	}
}

// FuzzScanIndex is TestScanIndexMatchesDecodeInto for any table, broken
// record and way of breaking it.
func FuzzScanIndex(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0))
	f.Add(int64(2), uint16(300), uint8(1))
	f.Add(int64(3), uint16(65535), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, bad uint16, how uint8) {
		checkScanIndex(t, seed, int(bad), how)
	})
}

// intTable loads a table of three Int columns and the given number of
// rows, 282 to a page.
func intTable(t testing.TB, rows int) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	clock := vclock.New(vclock.DefaultCosts(), nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 256))
	tb, err := cat.CreateTable("t", tuple.NewSchema(
		tuple.Column{Name: "a", Type: tuple.Int}, tuple.Column{Name: "b", Type: tuple.Int}, tuple.Column{Name: "c", Type: tuple.Int}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if err := cat.Insert(tb, tuple.Tuple{tuple.NewInt(int64(i)), tuple.NewInt(int64(-i)), tuple.NewInt(7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Heap.Sync(); err != nil {
		t.Fatal(err)
	}
	return cat, tb
}

// A page is indexed once: the first scan builds an index per page, and a
// second scan, or one after the pool is emptied (a cold restart — the
// disk keeps the images), allocates the same over 4 pages as over 16.
func TestScanIndexBuiltOnce(t *testing.T) {
	allocs := func(rows int) (first, again, cold float64) {
		cat, tb := intTable(t, rows)
		scan := func() {
			s := &seqScan{node: &plan.SeqScan{Table: tb}, env: &Env{Pool: cat.Pool(), Clock: cat.Pool().Disk().Clock()}, scanSlot: newScanSlot([]int{0, -1, 1}, 3)}
			n := 0
			err := s.Open()
			for ok := err == nil; ok; n++ {
				_, ok, err = s.Next()
			}
			if err = errors.Join(err, s.Close()); err != nil || n != rows+1 {
				t.Fatalf("scan: %d rows, %v", n-1, err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		scan()
		runtime.ReadMemStats(&after)
		first = float64(after.Mallocs - before.Mallocs)
		again = testing.AllocsPerRun(3, scan)
		cold = testing.AllocsPerRun(3, func() {
			if err := cat.Pool().Flush(); err != nil {
				t.Fatal(err)
			}
			cat.Pool().Clear()
			scan()
		})
		return first, again, cold
	}
	f4, a4, c4 := allocs(4 * 282)
	f16, a16, c16 := allocs(16 * 282)
	t.Logf("4 pages: first %.0f, again %.0f, cold %.0f allocations; 16 pages: %.0f, %.0f, %.0f", f4, a4, c4, f16, a16, c16)
	if f16 < f4+12 {
		t.Fatalf("building 12 more page indexes allocated %.0f -> %.0f: the test cannot see a build", f4, f16)
	}
	if a16 > a4+4 || c16 > c4+4 { // the slack is for -race's sync.Pool drops
		t.Fatalf("a scan of an indexed table allocated more over 16 pages than over 4: again %.0f -> %.0f, after a cold restart %.0f -> %.0f", a4, a16, c4, c16)
	}
}

// An image replaced with PutOn is indexed again: the scan returns its
// rows.
func TestScanIndexReindexesReplacedImage(t *testing.T) {
	cat, tb := intTable(t, 900)
	pool, clk := cat.Pool(), cat.Pool().Disk().Clock()
	before := scanIndexed(t, pool, clk, tb, nil)
	img, _, ok := tb.Heap.NewScanner().NextPage()
	if !ok || len(before.rows) != 900 || before.err != "" {
		t.Fatalf("scan: %d rows, error %q", len(before.rows), before.err)
	}
	// A table with the same schema and other rows lends its first page.
	_, other := intTable(t, 5)
	otherImg, _, ok := other.Heap.NewScanner().NextPage()
	if !ok {
		t.Fatal("no page to lend")
	}
	if err := pool.PutOn(clk, storage.PageID{File: tb.Heap.ID(), Num: 0}, otherImg); err != nil {
		t.Fatal(err)
	}
	recs := storage.PageRecords(img)
	want := append(scanIndexed(t, pool, clk, other, nil).rows, before.rows[recs.Len():]...)
	if got := scanIndexed(t, pool, clk, tb, nil); got.err != "" || !reflect.DeepEqual(got.rows, want) {
		t.Fatalf("after page 0 was replaced the scan returned %d rows (error %q), want %d: the old index was used", len(got.rows), got.err, len(want))
	}
}

// Four scans racing to make the first scan of a table, and so to build
// its page indexes, return the same rows.
func TestScanIndexConcurrentFirstScan(t *testing.T) {
	cat, tb := indexTable(t, 18, -1, 0)
	want := scanDecoded(t, tb, nil)
	if len(want.rows) < 300 {
		t.Fatalf("the table has %d rows, want a few pages", len(want.rows))
	}
	got := make([]scanned, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = scanIndexed(t, cat.Pool(), vclock.New(vclock.DefaultCosts(), nil), tb, nil)
		}()
	}
	wg.Wait()
	checkUnpinned(t, cat.Pool())
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("scan %d of 4 returned %d rows (error %q), want %d", i, len(g.rows), g.err, len(want.rows))
		}
	}
}
