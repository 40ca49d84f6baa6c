package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"progressdb/internal/tuple"
)

// intMapKey draws a key from the shapes a flat int table gets wrong: the
// ends of the range and their neighbours, 0 and −1; multiples of 2^32 and
// 2^48, which differ only in the high word a weak hash drops when masking
// to the table size; and dense runs of 32 — from 0 up, from −1 down, from
// 2^40 up, and ending at MinInt64 and at MaxInt64 — which a direct window
// indexes, and whose window touches the ends of the range.
func intMapKey(b byte) int64 {
	v := int64(b >> 3)
	switch b & 7 {
	case 0:
		special := [...]int64{math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64 + 1, math.MaxInt64 - 1}
		return special[v%int64(len(special))]
	case 1:
		return v
	case 2:
		return v << 32
	case 3:
		return (v - 16) << 48 // both signs
	case 4:
		return 1<<40 + v
	case 5:
		return math.MinInt64 + v
	case 6:
		return math.MaxInt64 - v
	default:
		return -1 - v
	}
}

// intKeyShapes are Int key sets, in the order their rows arrive, that move
// a table between its layouts: n dense keys up and down; a dense run with
// a far outlier last (the window, then mixed mid-fill); and dense runs
// ending at MinInt64, filled downward so the window's slack below wraps to
// MaxInt64, and at MaxInt64, filled upward so its slack above wraps.
func intKeyShapes(n int) map[string][]int64 {
	run := func(first, step int64) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = first + int64(i)*step
		}
		return ks
	}
	return map[string][]int64{
		"dense ascending":        run(0, 1),
		"dense descending":       run(int64(n)-1, -1),
		"dense with one outlier": append(run(0, 1)[:n-1], 1<<40),
		"near MinInt64":          run(math.MinInt64+int64(n)-1, -1),
		"near MaxInt64":          run(math.MaxInt64-int64(n)+1, 1),
	}
}

// checkSlots holds m to its layout: n slots in use; in the window, every
// key at slots[k−base]; in the mixed layout, a power-of-two table at load
// ≤ 3/4 where find reaches every key.
func checkSlots[V any](t *testing.T, m *intMap[V]) {
	t.Helper()
	used := 0
	for i := range m.slots {
		s := &m.slots[i]
		if !s.used {
			continue
		}
		used++
		if m.direct && uint64(s.key)-m.base != uint64(i) {
			t.Fatalf("window based at %d holds %d in slot %d", int64(m.base), s.key, i)
		}
		if !m.direct && m.find(s.key) != s {
			t.Fatalf("mixed table holds %d in slot %d, where find does not reach it", s.key, i)
		}
	}
	if used != m.n {
		t.Fatalf("%d slots in use, n = %d", used, m.n)
	}
	if l := len(m.slots); !m.direct && l > 0 && (l&(l-1) != 0 || 4*m.n > 3*l) {
		t.Fatalf("mixed table of %d slots holds %d keys", l, m.n)
	}
}

// checkIntMap replays ops — pairs of (op, key) bytes: insert, get, reset —
// against intMap (directly, numbering keys first-seen the way groupIndex
// does, and through rowTable, chaining rows per key) and against Go maps,
// and requires the same hits, the same values, the same chain order and
// each table's layout invariant.
func checkIntMap(t *testing.T, ops []byte) {
	t.Helper()
	var (
		nums    intMap[int]
		rt      rowTable
		wantNum = map[int64]int{}
		chains  = map[int64][]int32{}
		rows    int32
	)
	checkChain := func(k int64) {
		t.Helper()
		var got []int32
		for i := rt.first(tuple.NewInt(k)); i >= 0; i = rt.next[i] {
			if rt.rows[i][0].I != int64(i) {
				t.Fatalf("row %d holds %v", i, rt.rows[i])
			}
			got = append(got, i)
		}
		if want := chains[k]; len(got) != len(want) {
			t.Fatalf("chain of %d = %v, want %v", k, got, want)
		} else {
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("chain of %d = %v, want %v", k, got, want)
				}
			}
		}
	}
	ops = ops[:min(len(ops), 2*4096)] // chain checks are quadratic in a key's rows
	for len(ops) >= 2 {
		op, k := ops[0], intMapKey(ops[1])
		ops = ops[2:]
		switch op % 8 {
		case 0, 1, 2, 3, 4: // insert
			v, found := nums.put(k)
			want, ok := wantNum[k]
			if found != ok {
				t.Fatalf("put(%d) found = %v, want %v", k, found, ok)
			}
			if !found {
				*v, want = len(wantNum), len(wantNum)
				wantNum[k] = want
			}
			if *v != want {
				t.Fatalf("put(%d) = %d, want %d", k, *v, want)
			}
			rt.insert(tuple.NewInt(k), tuple.Tuple{tuple.NewInt(int64(rows))})
			chains[k] = append(chains[k], rows)
			rows++
		case 5, 6: // get
			v, found := nums.get(k)
			want, ok := wantNum[k]
			if found != ok || v != want {
				t.Fatalf("get(%d) = %d, %v, want %d, %v", k, v, found, want, ok)
			}
			checkChain(k)
		default:
			for k := range chains {
				checkChain(k)
			}
			nums.reset()
			rt.reset()
			clear(wantNum)
			clear(chains)
			rows = 0
		}
		if nums.n != len(wantNum) {
			t.Fatalf("intMap holds %d keys, want %d", nums.n, len(wantNum))
		}
		checkSlots(t, &nums)
		checkSlots(t, &rt.ints)
	}
	for k := range chains {
		checkChain(k)
	}
}

// FuzzIntMap holds intMap and the rowTable built on it to Go maps over
// arbitrary insert/get/reset sequences.
func FuzzIntMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 0, 0, 5, 0, 5, 16, 7, 0, 5, 0, 0, 1})
	f.Add([]byte{0, 2, 0, 10, 0, 18, 0, 3, 0, 11, 0, 19, 5, 2, 5, 3})
	var every []byte // every key twice, no reset: grows through 256 slots
	for round := 0; round < 2; round++ {
		for b := 0; b < 256; b++ {
			every = append(every, 0, byte(b))
		}
	}
	f.Add(every)
	// run inserts keys of one dense run (intMapKey's shape c) in the order
	// of vs, then gets all 32 of the run and of the next shape.
	run := func(c byte, vs ...int) []byte {
		var ops []byte
		for _, v := range vs {
			ops = append(ops, 0, byte(v)<<3|c)
		}
		for v := range 32 {
			ops = append(ops, 5, byte(v)<<3|c, 5, byte(v)<<3|(c+1)&7)
		}
		return ops
	}
	rng := rand.New(rand.NewSource(1))
	up, down := make([]int, 32), make([]int, 32)
	for v := range 32 {
		up[v], down[v] = v, 31-v
	}
	for _, c := range []byte{1, 4, 5, 6, 7} { // 0 up, 2^40 up, MinInt64 up, MaxInt64 down, −1 down
		f.Add(run(c, up...))
		f.Add(run(c, down...))
	}
	f.Add(append(run(1, up[:20]...), run(2, 3)...))                        // dense, then a far key: window → mixed mid-fill
	f.Add(run(1, 15, 31, 16, 17, 18, 19, 7))                               // a new lowest key turns a mixed table into a window with no slack
	f.Add(run(1, append([]int{0, 31}, up[1:31]...)...))                    // a wide first pair: mixed, then back to the window
	f.Add(append(append(run(3, up...), 7, 0), run(1, up...)...))           // a reset after a mixed fill, then a dense fill
	f.Add(append(append(run(6, down...), 7, 0), run(5, down...)...))       // a reset window moved from MaxInt64 to MinInt64
	f.Add(append(append(run(1, up...), 7, 0), run(1, rng.Perm(32)...)...)) // a reset window refilled out of order
	for _, n := range []int{64, 512, 4096} {
		ops := make([]byte, 2*n)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(checkIntMap)
}

// fillCounting enters keys into m through put and returns how many slots
// the reallocations on the way read: each reads its old slots once. Every
// window a reallocation makes must be within maxWindow × mixedSlots(n).
func fillCounting[V any](t *testing.T, m *intMap[V], keys []int64, put func(i int, k int64)) (read int) {
	t.Helper()
	for i, k := range keys {
		old := m.slots
		put(i, k)
		if len(old) == 0 || len(m.slots) == len(old) && &m.slots[0] == &old[0] {
			continue
		}
		read += len(old)
		if m.direct && len(m.slots) > maxWindow*mixedSlots(m.n, 0) {
			t.Fatalf("a window of %d slots for %d keys", len(m.slots), m.n)
		}
	}
	checkSlots(t, m)
	return read
}

// A window widened by only the missing span would reallocate per key and
// read O(n²) slots. So n keys in each order must cost at most 2 × the
// final slot count in slots read, and the layout must follow the key set,
// not the order: sets within about 4 slots per key (every third key, a
// near outlier) end in the window, sparse ones and a far outlier end
// mixed. The keys go in through intMap and through rowTable.
func TestIntMapReallocationWorkAndMemory(t *testing.T) {
	const n = 100_000
	dense := func(lo, hi int) []int64 {
		ks := make([]int64, 0, hi-lo)
		for k := lo; k < hi; k++ {
			ks = append(ks, int64(k))
		}
		return ks
	}
	desc := dense(0, n)
	slices.Reverse(desc)
	perm := dense(0, n)
	rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	sparse, third, alternate, toMin, toMax := dense(0, n), dense(0, n), dense(0, n), dense(0, n), dense(0, n)
	for i := range sparse {
		sparse[i] <<= 20
		third[i] *= 3
		alternate[i] = int64((i + 1) / 2 * (1 - 2*(i%2))) // 0, −1, 1, −2, 2, …
		toMin[i] = math.MinInt64 + n - 1 - int64(i)
		toMax[i] = math.MaxInt64 - n + 1 + int64(i)
	}
	const near, far = 3 * n, 1 << 40
	for _, tc := range []struct {
		name   string
		keys   []int64
		direct bool
	}{
		{"ascending", dense(0, n), true},
		{"descending", desc, true},
		{"permutation", perm, true},
		{"sparse", sparse, false},
		{"every third", third, true},
		{"alternately below and above", alternate, true},
		{"descending to MinInt64", toMin, true},
		{"ascending to MaxInt64", toMax, true},
		{"dense then near outlier", append(dense(0, n-1), near), true},
		{"near outlier then dense", append([]int64{near}, dense(0, n-1)...), true},
		{"dense then far outlier", append(dense(0, n-1), far), false},
		{"far outlier then dense", append([]int64{far}, dense(0, n-1)...), false},
	} {
		check := func(via string, read, final int, direct bool) {
			if read > 2*final {
				t.Errorf("%s via %s: reallocations read %d slots for a final %d", tc.name, via, read, final)
			}
			if direct != tc.direct {
				t.Errorf("%s via %s: ended direct = %v in %d slots, want %v", tc.name, via, direct, final, tc.direct)
			}
		}
		var m intMap[int]
		read := fillCounting(t, &m, tc.keys, func(_ int, k int64) { m.put(k) })
		check("intMap", read, len(m.slots), m.direct)
		var rt rowTable
		read = fillCounting(t, &rt.ints, tc.keys, func(i int, k int64) {
			rt.insert(tuple.NewInt(k), tuple.Tuple{tuple.NewInt(int64(i))})
		})
		check("rowTable", read, len(rt.ints.slots), rt.ints.direct)
	}

	// A reset table re-bases its window at the next batch's first key. When
	// the second key comes from below, the window must not double per
	// batch: the table stays within maxWindow × mixedSlots of one batch.
	var m intMap[int]
	batch := desc[n-1000:] // 999 down to 0
	for b := range 8 {
		m.reset()
		fillCounting(t, &m, batch, func(_ int, k int64) { m.put(k) })
		if len(m.slots) > maxWindow*mixedSlots(len(batch), 0) {
			t.Fatalf("after batch %d of %d keys: %d slots", b, len(batch), len(m.slots))
		}
	}
}
