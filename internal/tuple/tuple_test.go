package tuple

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
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
		{NewFloat(math.NaN()), NewInt(3), 0},
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
	if len(c) != 3 || c[2].F != 2.5 {
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
			if math.IsNaN(v) {
				continue // NaN != NaN under DeepEqual; not a storable SQL value here
			}
			in = append(in, NewFloat(v))
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

// checkDecodeInto holds DecodeInto to Decode on one record: same error
// text whatever is pruned or reused; on success the needed columns equal
// Decode's and the pruned ones are zero Values. It returns the slot for
// the next decode of a sequence: the decoded tuple, or dst with whatever a
// failed decode left in it.
func checkDecodeInto(t *testing.T, rec []byte, arity int, need []bool, dst Tuple) Tuple {
	t.Helper()
	want, wantErr := Decode(rec, arity)
	got, err := DecodeInto(dst, rec, arity, need)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("DecodeInto(need=%v) err = %v, Decode err = %v", need, err, wantErr)
	}
	if err != nil {
		return dst
	}
	if len(got) != arity {
		t.Fatalf("DecodeInto arity = %d, want %d", len(got), arity)
	}
	for i := range got {
		w := want[i]
		if need != nil && !need[i] {
			w = Value{}
		}
		if got[i] != w && !(w.Kind == Float && math.IsNaN(w.F) && math.IsNaN(got[i].F)) {
			t.Fatalf("DecodeInto(need=%v) col %d = %#v, want %#v", need, i, got[i], w)
		}
	}
	return got
}

func TestDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	slot := make(Tuple, 12) // reused across iterations, stale contents and all
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
		need := make([]bool, len(in))
		for i := range need {
			need[i] = rng.Intn(2) == 0
		}
		checkDecodeInto(t, rec, len(in), need, slot)
		// Skipped fields are validated all the same: truncate and corrupt
		// with every column pruned.
		none := make([]bool, len(in))
		for cut := 0; cut < len(rec); cut++ {
			checkDecodeInto(t, rec[:cut], len(in), none, slot)
		}
		if len(rec) > 0 {
			bad := append([]byte{}, rec...)
			bad[0] = 99
			checkDecodeInto(t, bad, len(in), none, slot)
		}
	}
}

// A large-enough dst is reused, and pruned strings cost nothing.
func TestDecodeIntoReusesSlot(t *testing.T) {
	rec := Tuple{NewInt(1), NewString("pruned away"), NewFloat(2)}.Encode(nil)
	slot := make(Tuple, 3)
	need := []bool{true, false, true}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeInto(slot, rec, 3, need); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeInto into a reused slot allocated %v times per call", n)
	}
	if slot[0].I != 1 || slot[1] != (Value{}) || slot[2].F != 2 {
		t.Fatalf("slot = %v", slot)
	}
}

// FuzzDecodeInto feeds arbitrary records: pruning and slot reuse must
// never change which records are rejected, or why.
func FuzzDecodeInto(f *testing.F) {
	f.Add(Tuple{NewInt(-1), NewString("abc"), NewFloat(2.5)}.Encode(nil), 3, uint16(0b010))
	f.Add(Tuple{NewString(""), NewString("only")}.Encode(nil)[:7], 2, uint16(0))
	f.Add([]byte{99, 0, 0}, 1, uint16(1))
	f.Fuzz(func(t *testing.T, rec []byte, arity int, mask uint16) {
		if arity < 0 || arity > 16 {
			return
		}
		checkDecodeInto(t, rec, arity, maskNeed(arity, mask), make(Tuple, 2))
	})
}

// maskNeed expands a bit mask into a need set.
func maskNeed(arity int, mask uint16) []bool {
	need := make([]bool, arity)
	for i := range need {
		need[i] = mask&(1<<i) != 0
	}
	return need
}

// DecodeInto keeps the String a slot already holds when the record's
// bytes equal it, so what a decode returns depends on what the slot held
// before — which one decode into a zeroed slot never shows. Every decode
// of a sequence into one slot must still equal Decode of the same record,
// in value and in error text.
func TestDecodeIntoSequence(t *testing.T) {
	S, I, F := NewString, NewInt, NewFloat
	enc := func(vs ...Value) []byte { return Tuple(vs).Encode(nil) }
	type step struct {
		rec  []byte
		need []bool // nil: every column
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
		{"pruned, then needed", 2, []step{{enc(S("keep"), I(1)), nil}, {enc(S("keep"), I(2)), []bool{false, true}},
			{enc(S("keep"), I(3)), nil}, {enc(S("other"), I(4)), []bool{false, false}}, {enc(S("keep"), I(5)), nil}}},
		{"slot held an Int, then a Float", 1, []step{{enc(I(7)), nil}, {enc(S("")), nil}, {enc(F(0)), nil}, {enc(S("")), nil}, {enc(S("s")), nil}}},
		{"truncated after a good one", 2, []step{{enc(I(1), S("same")), nil}, {enc(I(2), S("same"))[:13], nil},
			{enc(I(3), S("same")), nil}, {enc(S("same"), S("same"))[:9], nil}, {enc(S("same"), S("same")), nil}}},
		{"bad tag after a good one", 2, []step{{enc(S("a"), S("b")), nil}, {append(enc(S("a")), 9, 0), nil}, {enc(S("a"), S("c")), nil}}},
	} {
		slot := make(Tuple, 0)
		for _, st := range tc.steps {
			slot = checkDecodeInto(t, st.rec, tc.arity, st.need, slot)
		}
	}

	// Seeded sequences over a small pool of values, so equal neighbours,
	// kind changes and equal-length strings all come up, with a random need
	// set per decode and one record in eight cut short.
	pool := []Value{S(""), S("F"), S("O"), S("same pad"), S("same pax"), I(0), I(70), F(0), F(2.5)}
	rng := rand.New(rand.NewSource(23))
	for seq := 0; seq < 2000; seq++ {
		arity := 1 + rng.Intn(4)
		var slot Tuple
		for n := 2 + rng.Intn(6); n > 0; n-- {
			row := make(Tuple, arity)
			for i := range row {
				row[i] = pool[rng.Intn(len(pool))]
			}
			rec := row.Encode(nil)
			if rng.Intn(8) == 0 {
				rec = rec[:rng.Intn(len(rec))]
			}
			var need []bool
			if rng.Intn(3) > 0 {
				need = maskNeed(arity, uint16(rng.Intn(16)))
			}
			slot = checkDecodeInto(t, rec, arity, need, slot)
		}
	}

	// A run of equal strings costs what its first row costs: the
	// allocations of n decodes do not grow with n, where a column that
	// changes every row pays one each.
	constant := Tuple{NewInt(1), NewString("the same pad on every row")}.Encode(nil)
	a := Tuple{NewInt(1), NewString("one value")}.Encode(nil)
	b := Tuple{NewInt(1), NewString("the other")}.Encode(nil)
	run := func(n int, recs ...[]byte) float64 {
		return testing.AllocsPerRun(10, func() {
			slot := make(Tuple, 2)
			for i := 0; i < n; i++ {
				var err error
				if slot, err = DecodeInto(slot, recs[i%len(recs)], 2, nil); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if n100, n1000 := run(100, constant), run(1000, constant); n100 != n1000 || n1000 > 2 {
		t.Fatalf("a run of equal strings allocated %v times over 100 rows, %v over 1000", n100, n1000)
	}
	if n := run(1000, a, b); n < 1000 {
		t.Fatalf("alternating strings allocated %v times over 1000 rows: the slot kept a stale value?", n)
	}
}

// FuzzDecodeSequence decodes two arbitrary records into one slot, each
// under its own need set: what the first left behind — a string to reuse,
// another kind, a half-written slot — must never change what the second
// returns or why it is rejected.
func FuzzDecodeSequence(f *testing.F) {
	same := Tuple{NewInt(1), NewString("pad")}.Encode(nil)
	f.Add(same, same, 2, uint16(3), uint16(3))
	f.Add(same, Tuple{NewInt(1), NewString("pax")}.Encode(nil), 2, uint16(3), uint16(2))
	f.Add(same, same[:11], 2, uint16(1), uint16(3))
	f.Add(Tuple{NewString(""), NewFloat(1)}.Encode(nil), Tuple{NewString(""), NewString("")}.Encode(nil), 2, uint16(0), uint16(3))
	f.Fuzz(func(t *testing.T, rec1, rec2 []byte, arity int, mask1, mask2 uint16) {
		if arity < 0 || arity > 16 {
			return
		}
		slot := checkDecodeInto(t, rec1, arity, maskNeed(arity, mask1), nil)
		slot = checkDecodeInto(t, rec2, arity, maskNeed(arity, mask2), slot)
		checkDecodeInto(t, rec1, arity, nil, slot)
	})
}
