package expr

import (
	"math"
	"math/rand"
	"testing"

	"progressdb/internal/tuple"
)

// edgeValue draws a value biased toward the ones comparisons get wrong:
// the ends of the int64 range, the integers float64 cannot tell apart,
// NaN, the infinities, signed zero and the empty string.
func edgeValue(rng *rand.Rand) tuple.Value {
	ints := []int64{0, 1, -1, 7, math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1, -(1<<53 + 1)}
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53}
	strs := []string{"", "a", "b", "0"}
	switch rng.Intn(8) {
	case 0, 1:
		return tuple.NewInt(ints[rng.Intn(len(ints))])
	case 2:
		return tuple.NewInt(rng.Int63n(7) - 3)
	case 3, 4:
		return tuple.NewFloat(floats[rng.Intn(len(floats))])
	case 5:
		return tuple.NewFloat(rng.NormFloat64())
	default:
		return tuple.NewString(strs[rng.Intn(len(strs))])
	}
}

// randColRef draws an index from -1 to 6: rows are 0 to 6 wide, so some
// references fall off either end.
func randColRef(rng *rand.Rand) Expr { return &ColRef{Index: rng.Intn(8) - 1} }

// randExpr draws an expression of every node type. Half the comparisons
// take the shapes CompilePred compiles, so both sides of the fallback
// boundary are drawn; functions are built both ways, under known and
// unknown names, with zero to three arguments.
func randExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		if rng.Intn(2) == 0 {
			return randColRef(rng)
		}
		return &Const{V: edgeValue(rng)}
	}
	switch rng.Intn(10) {
	case 0:
		return randColRef(rng)
	case 1:
		return &Const{V: edgeValue(rng)}
	case 2, 3:
		terms := make([]Expr, rng.Intn(4))
		for i := range terms {
			terms[i] = randExpr(rng, depth-1)
		}
		return &And{Terms: terms}
	case 4:
		names := []string{"absolute", "abs", "ABSOLUTE", "mod", "Mod", "sqrt", ""}
		name := names[rng.Intn(len(names))]
		args := make([]Expr, rng.Intn(4))
		for i := range args {
			args[i] = randExpr(rng, depth-1)
		}
		if rng.Intn(2) == 0 {
			return &Func{Name: name, Args: args}
		}
		return NewFunc(name, args)
	case 5, 6, 7:
		op := CmpOp(rng.Intn(7)) // 6 is no operator: never holds
		l := randColRef(rng)
		if rng.Intn(3) == 0 {
			abs := []Expr{l}
			if rng.Intn(2) == 0 {
				l = &Func{Name: "absolute", Args: abs}
			} else {
				l = NewFunc("abs", abs)
			}
		}
		if rng.Intn(2) == 0 {
			return &Cmp{Op: op, L: l, R: randColRef(rng)}
		}
		return &Cmp{Op: op, L: l, R: &Const{V: edgeValue(rng)}}
	default:
		return &Cmp{Op: CmpOp(rng.Intn(6)), L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	}
}

// CompilePred(e)(row) is EvalBool(e, row), value and error, for random
// expressions over random rows — whichever side of the compiled/fallback
// boundary each node lands on.
func TestCompilePredMatchesEvalBool(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var compiled, fallback, failed, passed int
	for i := 0; i < 4000; i++ {
		e := randExpr(rng, 3)
		if c, ok := e.(*Cmp); ok {
			if compileCmp(c) != nil {
				compiled++
			} else {
				fallback++
			}
		}
		pred := CompilePred(e)
		for j := 0; j < 8; j++ {
			r := make(tuple.Tuple, rng.Intn(7))
			for k := range r {
				r[k] = edgeValue(rng)
			}
			want, wantErr := EvalBool(e, r)
			got, gotErr := pred(r)
			if got != want || (gotErr == nil) != (wantErr == nil) ||
				(gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s over %v: compiled (%v, %v), interpreted (%v, %v)", e, r, got, gotErr, want, wantErr)
			}
			switch {
			case wantErr != nil:
				failed++
			case want:
				passed++
			}
		}
	}
	t.Logf("top-level comparisons: %d compiled, %d fallback; rows: %d errors, %d true", compiled, fallback, failed, passed)
	if compiled < 500 || fallback < 100 || failed < 1000 || passed < 1000 {
		t.Fatal("the generator no longer covers both sides of the boundary")
	}
	if CompilePred(nil) != nil {
		t.Fatal("a nil predicate must compile to nil")
	}
}

// The compiled shapes allocate when they are compiled — a closure per
// node, a conjunction's slice of terms — and never per row.
func TestCompiledPredAllocatesOnlyAtCompile(t *testing.T) {
	col := func(i int) Expr { return &ColRef{Index: i} }
	abs := &Cmp{Op: GT, L: NewFunc("absolute", []Expr{col(1)}), R: &Const{V: tuple.NewInt(0)}}
	e := &And{Terms: []Expr{
		&Cmp{Op: NE, L: col(0), R: col(1)},
		&Cmp{Op: LT, L: col(2), R: &Const{V: tuple.NewFloat(9.5)}},
		&Cmp{Op: GE, L: col(3), R: &Const{V: tuple.NewString("a")}},
		abs,
	}}
	r := row(tuple.NewInt(3), tuple.NewInt(-4), tuple.NewFloat(2), tuple.NewString("b"))
	var pred func(tuple.Tuple) (bool, error)
	if n := testing.AllocsPerRun(100, func() { pred = CompilePred(e) }); n > 6 {
		t.Fatalf("compiling %s allocated %.0f times", e, n)
	}
	if ok, err := pred(r); !ok || err != nil {
		t.Fatalf("%s over %v = %v, %v", e, r, ok, err)
	}
	if n := testing.AllocsPerRun(100, func() { pred(r) }); n != 0 {
		t.Fatalf("%s allocated %.0f times per row", e, n)
	}
}
