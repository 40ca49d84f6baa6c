package expr

import (
	"reflect"
	"testing"
	"testing/quick"

	"progressdb/internal/tuple"
)

func row(vals ...tuple.Value) tuple.Tuple { return tuple.Tuple(vals) }

func TestColRefAndConst(t *testing.T) {
	r := row(tuple.NewInt(10), tuple.NewString("abc"))
	v, err := (&ColRef{Index: 1, Name: "s"}).Eval(r)
	if err != nil || v.S != "abc" {
		t.Fatalf("colref: %v %v", v, err)
	}
	if _, err := (&ColRef{Index: 5}).Eval(r); err == nil {
		t.Fatal("out-of-range colref must fail")
	}
	cv, _ := (&Const{V: tuple.NewFloat(2.5)}).Eval(r)
	if cv.F != 2.5 {
		t.Fatal("const eval wrong")
	}
}

func TestCmpAllOps(t *testing.T) {
	r := row(tuple.NewInt(5), tuple.NewInt(7))
	a := &ColRef{Index: 0}
	b := &ColRef{Index: 1}
	cases := []struct {
		op   CmpOp
		want bool
	}{
		{EQ, false}, {NE, true}, {LT, true}, {LE, true}, {GT, false}, {GE, false},
	}
	for _, c := range cases {
		got, err := EvalBool(&Cmp{Op: c.op, L: a, R: b}, r)
		if err != nil || got != c.want {
			t.Fatalf("5 %s 7 = %v, %v; want %v", c.op, got, err, c.want)
		}
	}
	// equal values
	r2 := row(tuple.NewInt(7), tuple.NewInt(7))
	for _, c := range []struct {
		op   CmpOp
		want bool
	}{{EQ, true}, {NE, false}, {LE, true}, {GE, true}, {LT, false}, {GT, false}} {
		got, _ := EvalBool(&Cmp{Op: c.op, L: a, R: b}, r2)
		if got != c.want {
			t.Fatalf("7 %s 7 = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestCmpTypeError(t *testing.T) {
	r := row(tuple.NewInt(5), tuple.NewString("x"))
	if _, err := (&Cmp{Op: EQ, L: &ColRef{Index: 0}, R: &ColRef{Index: 1}}).Eval(r); err == nil {
		t.Fatal("int = string must be a type error")
	}
}

func TestAndShortCircuit(t *testing.T) {
	r := row(tuple.NewInt(0))
	boom := &Cmp{Op: EQ, L: &ColRef{Index: 99}, R: &Const{V: tuple.NewInt(1)}}
	e := &And{Terms: []Expr{
		&Cmp{Op: GT, L: &ColRef{Index: 0}, R: &Const{V: tuple.NewInt(5)}}, // false
		boom, // would error if evaluated
	}}
	got, err := EvalBool(e, r)
	if err != nil || got {
		t.Fatalf("short circuit: %v %v", got, err)
	}
}

// A resolved node (NewFunc, what the binder and Remap build) and a
// literal-built one agree on every value and every error text, and the
// resolved form evaluates without allocating.
func TestNewFuncMatchesLiteral(t *testing.T) {
	c := func(v tuple.Value) Expr { return &Const{V: v} }
	one, str := c(tuple.NewInt(-3)), c(tuple.NewString("x"))
	for _, tc := range []struct {
		name string
		args []Expr
		err  string
	}{
		{"Absolute", []Expr{one}, ""},
		{"abs", []Expr{c(tuple.NewFloat(-1.5))}, ""},
		{"mod", []Expr{c(tuple.NewInt(17)), c(tuple.NewInt(5))}, ""},
		{"ABS", []Expr{one, one}, "expr: ABS takes 1 argument"},
		{"abs", nil, "expr: abs takes 1 argument"},
		{"absolute", []Expr{str}, "expr: absolute of non-numeric value"},
		{"mod", []Expr{one}, "expr: mod takes 2 int arguments"},
		{"mod", []Expr{one, one, one}, "expr: mod takes 2 int arguments"},
		{"mod", []Expr{one, c(tuple.NewInt(0))}, "expr: mod by zero"},
		{"NoSuch", []Expr{one}, `expr: unknown function "NoSuch"`},
	} {
		want, wantErr := (&Func{Name: tc.name, Args: tc.args}).Eval(nil)
		got, err := NewFunc(tc.name, tc.args).Eval(nil)
		if got != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: NewFunc = %v, %v; literal = %v, %v", tc.name, got, err, want, wantErr)
		}
		if (tc.err == "") != (err == nil) || (err != nil && (err.Error() != tc.err || wantErr.Error() != tc.err)) {
			t.Fatalf("%s: err = %v / %v, want %q", tc.name, err, wantErr, tc.err)
		}
	}
	pred := &Cmp{Op: GT, L: NewFunc("absolute", []Expr{&ColRef{Index: 0}}), R: c(tuple.NewInt(0))}
	r := row(tuple.NewInt(-9))
	if n := testing.AllocsPerRun(100, func() {
		if ok, err := EvalBool(pred, r); err != nil || !ok {
			t.Fatal(ok, err)
		}
	}); n != 0 {
		t.Fatalf("absolute(col) > 0 allocated %v times per row", n)
	}
}

func TestFuncAbsoluteAndMod(t *testing.T) {
	r := row(tuple.NewInt(-9), tuple.NewFloat(-2.5))
	v, err := (&Func{Name: "absolute", Args: []Expr{&ColRef{Index: 0}}}).Eval(r)
	if err != nil || v.I != 9 {
		t.Fatalf("absolute(int): %v %v", v, err)
	}
	v, err = (&Func{Name: "ABS", Args: []Expr{&ColRef{Index: 1}}}).Eval(r)
	if err != nil || v.F != 2.5 {
		t.Fatalf("abs(float): %v %v", v, err)
	}
	v, err = (&Func{Name: "mod", Args: []Expr{&Const{V: tuple.NewInt(17)}, &Const{V: tuple.NewInt(5)}}}).Eval(nil)
	if err != nil || v.I != 2 {
		t.Fatalf("mod: %v %v", v, err)
	}
	if _, err := (&Func{Name: "mod", Args: []Expr{&Const{V: tuple.NewInt(17)}, &Const{V: tuple.NewInt(0)}}}).Eval(nil); err == nil {
		t.Fatal("mod by zero must fail")
	}
	if _, err := (&Func{Name: "nosuch", Args: nil}).Eval(nil); err == nil {
		t.Fatal("unknown function must fail")
	}
	if _, err := (&Func{Name: "absolute", Args: []Expr{&Const{V: tuple.NewString("x")}}}).Eval(nil); err == nil {
		t.Fatal("absolute of string must fail")
	}
}

func TestConjunctsAndConjoin(t *testing.T) {
	a := &Cmp{Op: EQ, L: &ColRef{Index: 0}, R: &Const{V: tuple.NewInt(1)}}
	b := &Cmp{Op: GT, L: &ColRef{Index: 1}, R: &Const{V: tuple.NewInt(2)}}
	c := &Cmp{Op: LT, L: &ColRef{Index: 2}, R: &Const{V: tuple.NewInt(3)}}
	nested := &And{Terms: []Expr{a, &And{Terms: []Expr{b, c}}}}
	got := Conjuncts(nested)
	if len(got) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(got))
	}
	if Conjuncts(nil) != nil {
		t.Fatal("Conjuncts(nil) must be nil")
	}
	if Conjoin(nil) != nil {
		t.Fatal("Conjoin(empty) must be nil")
	}
	if Conjoin([]Expr{a}) != a {
		t.Fatal("Conjoin singleton must be identity")
	}
	if _, ok := Conjoin([]Expr{a, b}).(*And); !ok {
		t.Fatal("Conjoin of two must be And")
	}
}

func TestColumnsUsed(t *testing.T) {
	e := &And{Terms: []Expr{
		&Cmp{Op: EQ, L: &ColRef{Index: 3}, R: &ColRef{Index: 1}},
		&Cmp{Op: GT, L: &Func{Name: "absolute", Args: []Expr{&ColRef{Index: 7}}}, R: &Const{V: tuple.NewInt(0)}},
	}}
	if got := ColumnsUsed(e); !reflect.DeepEqual(got, []int{1, 3, 7}) {
		t.Fatalf("ColumnsUsed = %v", got)
	}
}

func TestContainsFunc(t *testing.T) {
	plain := &Cmp{Op: GT, L: &ColRef{Index: 0}, R: &Const{V: tuple.NewInt(0)}}
	fn := &Cmp{Op: GT, L: &Func{Name: "absolute", Args: []Expr{&ColRef{Index: 0}}}, R: &Const{V: tuple.NewInt(0)}}
	if ContainsFunc(plain) {
		t.Fatal("plain cmp has no func")
	}
	if !ContainsFunc(fn) {
		t.Fatal("function predicate not detected")
	}
	if !ContainsFunc(&And{Terms: []Expr{plain, fn}}) {
		t.Fatal("And containing func not detected")
	}
}

func TestRemap(t *testing.T) {
	e := &And{Terms: []Expr{
		&Cmp{Op: EQ, L: &ColRef{Index: 2, Name: "a"}, R: &Const{V: tuple.NewInt(1)}},
		&Cmp{Op: GT, L: &Func{Name: "abs", Args: []Expr{&ColRef{Index: 4}}}, R: &Const{V: tuple.NewInt(0)}},
	}}
	re, err := Remap(e, map[int]int{2: 0, 4: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := ColumnsUsed(re); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("remapped columns = %v", got)
	}
	// Original untouched.
	if got := ColumnsUsed(e); !reflect.DeepEqual(got, []int{2, 4}) {
		t.Fatalf("original mutated: %v", got)
	}
	if _, err := Remap(e, map[int]int{2: 0}); err == nil {
		t.Fatal("remap with missing column must fail")
	}
}

func TestEquiJoinCols(t *testing.T) {
	if l, r, ok := EquiJoinCols(&Cmp{Op: EQ, L: &ColRef{Index: 1}, R: &ColRef{Index: 5}}); !ok || l != 1 || r != 5 {
		t.Fatalf("equijoin detection failed: %d %d %v", l, r, ok)
	}
	if _, _, ok := EquiJoinCols(&Cmp{Op: NE, L: &ColRef{Index: 1}, R: &ColRef{Index: 5}}); ok {
		t.Fatal("<> is not an equijoin")
	}
	if _, _, ok := EquiJoinCols(&Cmp{Op: EQ, L: &ColRef{Index: 1}, R: &Const{V: tuple.NewInt(3)}}); ok {
		t.Fatal("col=const is not an equijoin")
	}
}

func TestStrings(t *testing.T) {
	e := &And{Terms: []Expr{
		&Cmp{Op: EQ, L: &ColRef{Index: 0, Name: "c.custkey"}, R: &ColRef{Index: 1, Name: "o.custkey"}},
		&Cmp{Op: GT, L: &Func{Name: "absolute", Args: []Expr{&ColRef{Index: 2, Name: "l.partkey"}}}, R: &Const{V: tuple.NewInt(0)}},
	}}
	want := "c.custkey = o.custkey AND absolute(l.partkey) > 0"
	if e.String() != want {
		t.Fatalf("String = %q, want %q", e.String(), want)
	}
	if (&Const{V: tuple.NewString("hi")}).String() != "'hi'" {
		t.Fatal("string const quoting")
	}
	if (&ColRef{Index: 3}).String() != "$3" {
		t.Fatal("anonymous colref rendering")
	}
}

// Property: absolute(x) >= 0 and absolute(absolute(x)) == absolute(x).
func TestPropertyAbsolute(t *testing.T) {
	f := func(x int64) bool {
		if x == -1<<63 {
			return true // |minint| overflows in two's complement, as in C
		}
		e := &Func{Name: "absolute", Args: []Expr{&Const{V: tuple.NewInt(x)}}}
		v, err := e.Eval(nil)
		if err != nil || v.I < 0 {
			return false
		}
		vv, err := (&Func{Name: "absolute", Args: []Expr{&Const{V: v}}}).Eval(nil)
		return err == nil && vv.I == v.I
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Conjoin(Conjuncts(e)) evaluates identically to e.
func TestPropertyConjunctsPreserveSemantics(t *testing.T) {
	f := func(vals []int8) bool {
		if len(vals) == 0 {
			return true
		}
		r := make(tuple.Tuple, len(vals))
		var terms []Expr
		for i, v := range vals {
			r[i] = tuple.NewInt(int64(v))
			terms = append(terms, &Cmp{Op: GE, L: &ColRef{Index: i}, R: &Const{V: tuple.NewInt(0)}})
		}
		e := Conjoin(terms)
		a, err1 := EvalBool(e, r)
		b, err2 := EvalBool(Conjoin(Conjuncts(e)), r)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
