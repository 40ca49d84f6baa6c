package tuple

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(
		Column{Name: "custkey", Type: Int},
		Column{Name: "name", Type: String},
		Column{Name: "acctbal", Type: Float},
	)
	if s.Arity() != 3 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if s.ColIndex("NAME") != 1 {
		t.Fatal("ColIndex must be case-insensitive")
	}
	if s.ColIndex("missing") != -1 {
		t.Fatal("missing column must return -1")
	}
	p := s.Project([]int{2, 0})
	if p.Cols[0].Name != "acctbal" || p.Cols[1].Name != "custkey" {
		t.Fatalf("projection wrong: %v", p)
	}
	c := s.Concat(p)
	if c.Arity() != 5 {
		t.Fatalf("concat arity = %d", c.Arity())
	}
	if got := s.String(); got != "(custkey INT, name TEXT, acctbal FLOAT)" {
		t.Fatalf("schema string = %q", got)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("abc"), NewString("abd"), -1},
		{NewString("abc"), NewString("abc"), 0},
		// Ints compare as integers: float64 cannot tell 2^53 from 2^53+1,
		// nor the two ends of the int64 range from their neighbours.
		{NewInt(1 << 53), NewInt(1<<53 + 1), -1},
		{NewInt(1<<53 + 1), NewInt(1 << 53), 1},
		{NewInt(-(1 << 53)), NewInt(-(1<<53 + 1)), 1},
		{NewInt(math.MaxInt64), NewInt(math.MaxInt64 - 1), 1},
		{NewInt(math.MinInt64), NewInt(math.MinInt64 + 1), -1},
		{NewInt(math.MinInt64), NewInt(math.MaxInt64), -1},
		{NewInt(1<<53 + 1), NewInt(1<<53 + 1), 0},
		// An Int against a Float still compares as floats.
		{NewInt(1<<53 + 1), NewFloat(1 << 53), 0},
		// Floats order by cmp.Compare: NaN below every number and equal
		// to itself, −0 equal to +0.
		{NewFloat(math.NaN()), NewInt(3), -1},
		{NewInt(3), NewFloat(math.NaN()), 1},
		{NewFloat(math.NaN()), NewFloat(math.Inf(-1)), -1},
		{NewFloat(math.NaN()), NewFloat(-math.NaN()), 0},
		{NewFloat(math.Copysign(0, -1)), NewFloat(0), 0},
		{NewFloat(math.Copysign(0, -1)), NewInt(0), 0},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil || got != c.want {
			t.Fatalf("Compare(%v,%v) = %d,%v want %d", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := NewString("x").Compare(NewInt(1)); err == nil {
		t.Fatal("string vs int must be a type error")
	}
	if _, err := NewInt(1).Compare(NewString("x")); err == nil {
		t.Fatal("int vs string must be a type error")
	}
}

// TestValueSize pins the row cell at 32 bytes: kind, one 64-bit word
// an Int and a Float share, and a string header. Every decode, copy and
// clear of a row pays per column for whatever this grows to.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("sizeof(Value) = %d, want 32", n)
	}
}

// Canonical spells every pair Compare calls equal one way, and keeps
// every other value as it is.
func TestCanonical(t *testing.T) {
	negZero, negNaN := NewFloat(math.Copysign(0, -1)), NewFloat(-math.NaN())
	if negZero == NewFloat(0) || negNaN == NewFloat(math.NaN()) {
		t.Fatal("test values must differ in their bits")
	}
	for _, c := range [][2]Value{
		{negZero, NewFloat(0)},
		{negNaN, NewFloat(math.NaN())},
		{NewFloat(math.Float64frombits(0x7ff0000000000001)), NewFloat(math.NaN())},
	} {
		if c[0].Canonical() != c[1].Canonical() {
			t.Fatalf("Canonical(%#v) = %#v, Canonical(%#v) = %#v", c[0], c[0].Canonical(), c[1], c[1].Canonical())
		}
	}
	for _, v := range []Value{NewInt(0), NewInt(-1), NewFloat(0), NewFloat(-2.5), NewFloat(math.Inf(-1)), NewString(""), NewString("x")} {
		if v.Canonical() != v {
			t.Fatalf("Canonical(%#v) = %#v, want it unchanged", v, v.Canonical())
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := Tuple{NewInt(-42), NewFloat(math.Pi), NewString("hello, world"), NewString(""), NewInt(math.MaxInt64)}
	enc := in.Encode(nil)
	if len(enc) != in.EncodedSize() {
		t.Fatalf("EncodedSize = %d, actual = %d", in.EncodedSize(), len(enc))
	}
	out, err := Decode(enc, len(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %v != %v", in, out)
	}
}

func TestDecodeErrors(t *testing.T) {
	enc := Tuple{NewInt(1), NewString("abc")}.Encode(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut], 2); err == nil {
			t.Fatalf("truncated decode at %d must fail", cut)
		}
	}
	bad := append([]byte{}, enc...)
	bad[0] = 99
	if _, err := Decode(bad, 2); err == nil {
		t.Fatal("bad type tag must fail")
	}
}

func TestCloneAndConcat(t *testing.T) {
	a := Tuple{NewInt(1), NewString("x")}
	b := a.Clone()
	b[0] = NewInt(9)
	if a[0].I != 1 {
		t.Fatal("Clone must not alias")
	}
	c := a.Concat(Tuple{NewFloat(2.5)})
	if len(c) != 3 || c[2].F() != 2.5 {
		t.Fatalf("concat = %v", c)
	}
}

func TestStringRendering(t *testing.T) {
	tt := Tuple{NewInt(7), NewFloat(1.5), NewString("hi")}
	if got := tt.String(); got != "(7, 1.5, hi)" {
		t.Fatalf("tuple string = %q", got)
	}
	if Int.String() != "INT" || Float.String() != "FLOAT" || String.String() != "TEXT" {
		t.Fatal("type names changed")
	}
}

// Property: encode/decode round-trips arbitrary tuples.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(ints []int64, floats []float64, strs []string) bool {
		var in Tuple
		for _, v := range ints {
			in = append(in, NewInt(v))
		}
		for _, v := range floats {
			in = append(in, NewFloat(v)) // NaNs too: a Float is its bits
		}
		for _, v := range strs {
			in = append(in, NewString(v))
		}
		enc := in.Encode(nil)
		if len(enc) != in.EncodedSize() {
			return false
		}
		out, err := Decode(enc, len(in))
		if err != nil {
			return false
		}
		if len(in) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is antisymmetric on ints.
func TestPropertyCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, _ := NewInt(a).Compare(NewInt(b))
		y, _ := NewInt(b).Compare(NewInt(a))
		return x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// randTuple draws a tuple of mixed kinds, including empty strings.
func randTuple(rng *rand.Rand) Tuple {
	t := make(Tuple, rng.Intn(12))
	for i := range t {
		switch rng.Intn(3) {
		case 0:
			t[i] = NewInt(rng.Int63() - rng.Int63())
		case 1:
			t[i] = NewFloat(rng.NormFloat64())
		default:
			t[i] = NewString(strings.Repeat("x", rng.Intn(9)))
		}
	}
	return t
}

// checkDecodeInto holds DecodeInto to Decode on one record, decoded
// into dst under layout pos (nil: the whole row):
//   - the error text is Decode's, whatever the layout or dst held;
//   - on success every field pos keeps equals Decode's at its slot;
//   - a slot pos does not name is untouched, on success and on error;
//   - a kept String equal to what its slot held keeps that string's
//     bytes rather than allocating them again.
//
// It returns the slot for the next decode of a sequence: the decoded
// tuple, or dst with whatever a failed decode left in it.
func checkDecodeInto(t *testing.T, rec []byte, arity int, pos []int, dst Tuple) Tuple {
	t.Helper()
	want, wantErr := Decode(rec, arity)
	var before Tuple // what the slots DecodeInto writes held
	switch {
	case pos != nil:
		before = dst.Clone()
	case cap(dst) >= arity:
		before = dst[:arity].Clone()
	}
	got, err := DecodeInto(dst, rec, arity, pos)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("DecodeInto(pos=%v) err = %v, Decode err = %v", pos, err, wantErr)
	}
	slot := func(i int) int { return i }
	if pos != nil {
		slot = func(i int) int { return pos[i] }
		named := make([]bool, len(dst))
		for _, s := range pos {
			if s >= 0 {
				named[s] = true
			}
		}
		for s := range dst {
			if !named[s] && dst[s] != before[s] {
				t.Fatalf("DecodeInto(pos=%v) wrote slot %d outside the layout: %#v, was %#v", pos, s, dst[s], before[s])
			}
		}
	}
	if err != nil {
		return dst
	}
	if pos == nil && len(got) != arity {
		t.Fatalf("DecodeInto arity = %d, want %d", len(got), arity)
	}
	if pos != nil && len(got) != len(dst) {
		t.Fatalf("DecodeInto(pos=%v) returned %d slots, dst has %d", pos, len(got), len(dst))
	}
	for i, w := range want {
		s := slot(i)
		if s < 0 {
			continue
		}
		if got[s] != w {
			t.Fatalf("DecodeInto(pos=%v) field %d at slot %d = %#v, want %#v", pos, i, s, got[s], w)
		}
		if b := before; b != nil && w.Kind == String && w.S != "" && b[s].Kind == String && b[s].S == w.S &&
			unsafe.StringData(got[s].S) != unsafe.StringData(b[s].S) {
			t.Fatalf("DecodeInto(pos=%v) field %d: equal string %q at slot %d allocated again", pos, i, w.S, s)
		}
	}
	return got
}

// randLayout draws a layout of arity fields: a random subset of them at a
// random permutation of the slots 0..n-1.
func randLayout(rng *rand.Rand, arity int) []int {
	return layoutOf(arity, uint16(rng.Intn(1<<16)), rng.Int63())
}

// layoutOf keeps the fields mask selects and gives them the slots of a
// permutation drawn from shuffle.
func layoutOf(arity int, mask uint16, shuffle int64) []int {
	pos := make([]int, arity)
	n := 0
	for i := range pos {
		pos[i] = -1
		if mask&(1<<i) != 0 {
			pos[i] = n
			n++
		}
	}
	perm := rand.New(rand.NewSource(shuffle)).Perm(n)
	for i, s := range pos {
		if s >= 0 {
			pos[i] = perm[s]
		}
	}
	return pos
}

// layoutSlot returns a slot for decodes of arity fields under any
// layout: arity slots plus two more, all holding a value no decode
// writes, so a stray store shows.
func layoutSlot(arity int) Tuple {
	slot := make(Tuple, arity+2)
	for i := range slot {
		slot[i] = NewString("untouched")
	}
	return slot
}

func TestDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		in := randTuple(rng)
		rec := in.Encode(nil)
		fresh, err := DecodeInto(nil, rec, len(in), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := Decode(rec, len(in)); !reflect.DeepEqual(fresh, want) {
			t.Fatalf("DecodeInto(nil, …, nil) = %v, Decode = %v", fresh, want)
		}
		pos := randLayout(rng, len(in))
		slot := layoutSlot(len(in))
		checkDecodeInto(t, rec, len(in), pos, slot)
		// Skipped fields are validated all the same: truncate and corrupt
		// with no field kept.
		none := layoutOf(len(in), 0, 0)
		for cut := 0; cut < len(rec); cut++ {
			checkDecodeInto(t, rec[:cut], len(in), none, slot)
			checkDecodeInto(t, rec[:cut], len(in), pos, slot)
		}
		if len(rec) > 0 {
			bad := append([]byte{}, rec...)
			bad[0] = 99
			checkDecodeInto(t, bad, len(in), none, slot)
		}
	}
}

// A layout's slot is reused as it is, and pruned strings cost nothing.
func TestDecodeIntoReusesSlot(t *testing.T) {
	rec := Tuple{NewInt(1), NewString("pruned away"), NewFloat(2)}.Encode(nil)
	slot := make(Tuple, 2)
	pos := []int{1, -1, 0}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeInto(slot, rec, 3, pos); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeInto into a reused slot allocated %v times per call", n)
	}
	if slot[1].I != 1 || slot[0].F() != 2 {
		t.Fatalf("slot = %v", slot)
	}
}

// FuzzDecodeInto feeds arbitrary records: the layout and what its slot
// held must never change which records are rejected, or why.
func FuzzDecodeInto(f *testing.F) {
	f.Add(Tuple{NewInt(-1), NewString("abc"), NewFloat(2.5)}.Encode(nil), 3, uint16(0b110), int64(1))
	f.Add(Tuple{NewString(""), NewString("only")}.Encode(nil)[:7], 2, uint16(0), int64(0))
	f.Add([]byte{99, 0, 0}, 1, uint16(1), int64(2))
	f.Fuzz(func(t *testing.T, rec []byte, arity int, mask uint16, shuffle int64) {
		if arity < 0 || arity > 16 {
			return
		}
		pos := layoutOf(arity, mask, shuffle)
		checkDecodeInto(t, rec, arity, pos, layoutSlot(arity))
	})
}

// DecodeInto keeps the String a slot already holds when the record's
// bytes equal it, so what a decode returns depends on what the slot held
// before — which one decode into a fresh slot never shows. Every decode
// of a sequence into one slot, each under its own layout, must still
// equal Decode of the same record, in value and in error text.
func TestDecodeIntoSequence(t *testing.T) {
	S, I, F := NewString, NewInt, NewFloat
	enc := func(vs ...Value) []byte { return Tuple(vs).Encode(nil) }
	type step struct {
		rec []byte
		pos []int // nil: the whole row
	}
	for _, tc := range []struct {
		name  string
		arity int
		steps []step
	}{
		{"equal adjacent strings", 2, []step{{enc(I(1), S("F")), nil}, {enc(I(2), S("F")), nil}, {enc(I(3), S("F")), nil}}},
		{"same length, different bytes", 1, []step{{enc(S("abc")), nil}, {enc(S("abd")), nil}, {enc(S("abc")), nil}}},
		{"prefix and extension", 1, []step{{enc(S("abc")), nil}, {enc(S("ab")), nil}, {enc(S("abcd")), nil}}},
		{"empty strings", 2, []step{{enc(S(""), S("x")), nil}, {enc(S(""), S("")), nil}, {enc(S("y"), S("")), nil}}},
		{"pruned, then needed", 2, []step{{enc(S("keep"), I(1)), nil}, {enc(S("keep"), I(2)), []int{-1, 1}},
			{enc(S("keep"), I(3)), nil}, {enc(S("other"), I(4)), []int{-1, -1}}, {enc(S("keep"), I(5)), nil}}},
		{"permuted, then moved back", 2, []step{{enc(S("a"), S("b")), nil}, {enc(S("a"), S("b")), []int{1, 0}},
			{enc(S("b"), S("a")), []int{1, 0}}, {enc(S("b"), S("a")), nil}, {enc(I(1), S("b")), []int{-1, 0}}}},
		{"slot held an Int, then a Float", 1, []step{{enc(I(7)), nil}, {enc(S("")), nil}, {enc(F(0)), nil}, {enc(S("")), nil}, {enc(S("s")), nil}}},
		{"truncated after a good one", 2, []step{{enc(I(1), S("same")), nil}, {enc(I(2), S("same"))[:13], nil},
			{enc(I(3), S("same")), []int{1, 0}}, {enc(S("same"), S("same"))[:9], []int{0, 1}}, {enc(S("same"), S("same")), nil}}},
		{"bad tag after a good one", 2, []step{{enc(S("a"), S("b")), nil}, {append(enc(S("a")), 9, 0), []int{-1, 0}}, {enc(S("a"), S("c")), nil}}},
	} {
		slot := make(Tuple, 0, tc.arity)
		for _, st := range tc.steps {
			if st.pos != nil {
				slot = slot[:tc.arity]
			}
			slot = checkDecodeInto(t, st.rec, tc.arity, st.pos, slot)
		}
	}

	// Seeded sequences over a small pool of values, so equal neighbours,
	// kind changes and equal-length strings all come up, with a random
	// layout — or none — per decode and one record in eight cut short.
	pool := []Value{S(""), S("F"), S("O"), S("same pad"), S("same pax"), I(0), I(70), F(0), F(2.5)}
	rng := rand.New(rand.NewSource(23))
	for seq := 0; seq < 2000; seq++ {
		arity := 1 + rng.Intn(4)
		slot := make(Tuple, arity+2)
		for i := range slot {
			slot[i] = pool[rng.Intn(len(pool))]
		}
		var recs [][]byte
		var lays [][]int
		for n := 2 + rng.Intn(6); n > 0; n-- {
			row := make(Tuple, arity)
			for i := range row {
				row[i] = pool[rng.Intn(len(pool))]
			}
			rec := row.Encode(nil)
			if rng.Intn(8) == 0 {
				rec = rec[:rng.Intn(len(rec))]
			}
			var pos []int
			if rng.Intn(3) > 0 {
				pos = randLayout(rng, arity)
				slot = slot[:arity+2]
			}
			slot = checkDecodeInto(t, rec, arity, pos, slot)
			recs, lays = append(recs, rec), append(lays, pos)
		}
		checkPageSequence(t, arity, recs, lays)
	}

	// A run of equal strings costs what its first row costs: the
	// allocations of n decodes do not grow with n, where a column that
	// changes every row pays one each.
	constant := Tuple{NewInt(1), NewString("the same pad on every row")}.Encode(nil)
	a := Tuple{NewInt(1), NewString("one value")}.Encode(nil)
	b := Tuple{NewInt(1), NewString("the other")}.Encode(nil)
	run := func(n int, pos []int, recs ...[]byte) float64 {
		return testing.AllocsPerRun(10, func() {
			slot := make(Tuple, 2)
			for i := 0; i < n; i++ {
				var err error
				if slot, err = DecodeInto(slot, recs[i%len(recs)], 2, pos); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	for _, pos := range [][]int{nil, {1, 0}, {-1, 0}} {
		if n100, n1000 := run(100, pos, constant), run(1000, pos, constant); n100 != n1000 || n1000 > 2 {
			t.Fatalf("pos=%v: a run of equal strings allocated %v times over 100 rows, %v over 1000", pos, n100, n1000)
		}
		if n := run(1000, pos, a, b); n < 1000 {
			t.Fatalf("pos=%v: alternating strings allocated %v times over 1000 rows: the slot kept a stale value?", pos, n)
		}
	}
}

// checkPageSequence decodes each record of a sequence from a page image
// of its own through one Page, into one slot, the record at an offset
// and among filler bytes that differ from page to page. Each decode must
// equal DecodeInto of the record alone into a copy of the same slot: the
// same row, the same error text, the same slot left behind.
func checkPageSequence(t *testing.T, arity int, recs [][]byte, lays [][]int) {
	t.Helper()
	var pg Page
	slot := layoutSlot(arity)
	for i, rec := range recs {
		at := 3 + 7*i
		img := []byte(strings.Repeat(string(rune('a'+i)), at+len(rec)+5))
		copy(img[at:], rec)
		pg.Reset(img)
		want := slot.Clone()
		wantRow, wantErr := DecodeInto(want, rec, arity, lays[i])
		got, err := pg.DecodeInto(slot, at, at+len(rec), arity, lays[i])
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("page decode %d (pos=%v) err = %v, DecodeInto err = %v", i, lays[i], err, wantErr)
		}
		if !reflect.DeepEqual(got, wantRow) || !reflect.DeepEqual(slot, want) {
			t.Fatalf("page decode %d (pos=%v) = %v leaving %v, DecodeInto = %v leaving %v", i, lays[i], got, slot, wantRow, want)
		}
	}
}

// A Page makes its string only when a String differs from its slot's,
// and then once: a page of unique strings costs one allocation, and a
// page whose strings repeat the slot's, or that holds none, costs none.
func TestPageDecodeAllocatesOncePerPage(t *testing.T) {
	for _, tc := range []struct {
		name string
		row  func(i int) Tuple
		want float64
	}{
		{"unique strings", func(i int) Tuple { return Tuple{NewInt(int64(i)), NewString(strings.Repeat("p", i))} }, 1},
		{"constant string", func(i int) Tuple { return Tuple{NewInt(int64(i)), NewString("constant")} }, 0},
		{"no strings", func(i int) Tuple { return Tuple{NewInt(int64(i)), NewFloat(float64(i))} }, 0},
	} {
		var img []byte
		var spans [][2]int
		for i := 0; i < 100; i++ {
			start := len(img)
			img = tc.row(i).Encode(img)
			spans = append(spans, [2]int{start, len(img)})
		}
		slot := Tuple{NewInt(0), NewString("constant")}
		if n := testing.AllocsPerRun(10, func() {
			var pg Page
			pg.Reset(img)
			for _, sp := range spans {
				if _, err := pg.DecodeInto(slot, sp[0], sp[1], 2, nil); err != nil {
					t.Fatal(err)
				}
			}
		}); n != tc.want {
			t.Fatalf("%s: a page of 100 rows allocated %v times, want %v", tc.name, n, tc.want)
		}
	}
}

// FuzzDecodeSequence decodes two arbitrary records into one slot, each
// under its own layout: what the first left behind — a string to reuse,
// another kind, a half-written slot — must never change what the second
// returns or why it is rejected. Decoded from page images through a Page
// (checkPageSequence), the same sequence must give the same rows.
func FuzzDecodeSequence(f *testing.F) {
	same := Tuple{NewInt(1), NewString("pad")}.Encode(nil)
	f.Add(same, same, 2, uint16(3), uint16(3), int64(0))
	f.Add(same, Tuple{NewInt(1), NewString("pax")}.Encode(nil), 2, uint16(3), uint16(2), int64(1))
	f.Add(same, same[:11], 2, uint16(1), uint16(3), int64(2))
	f.Add(Tuple{NewString(""), NewFloat(1)}.Encode(nil), Tuple{NewString(""), NewString("")}.Encode(nil), 2, uint16(0), uint16(3), int64(3))
	f.Fuzz(func(t *testing.T, rec1, rec2 []byte, arity int, mask1, mask2 uint16, shuffle int64) {
		if arity < 0 || arity > 16 {
			return
		}
		pos1, pos2 := layoutOf(arity, mask1, shuffle), layoutOf(arity, mask2, shuffle+1)
		slot := layoutSlot(arity)
		slot = checkDecodeInto(t, rec1, arity, pos1, slot)
		slot = checkDecodeInto(t, rec2, arity, pos2, slot)
		slot = checkDecodeInto(t, rec1, arity, nil, slot)
		checkDecodeInto(t, rec2, arity, pos1, slot[:cap(slot)])
		checkPageSequence(t, arity, [][]byte{rec1, rec2, rec1, rec2}, [][]int{pos1, pos2, nil, pos1})
	})
}
