package expr

import (
	"cmp"

	"progressdb/internal/tuple"
)

// CompilePred returns a function computing EvalBool(e, row) — the same
// value and, when evaluation fails, the same error — built once so that
// the per-row call walks no tree and boxes no Value for the shapes the
// paper's queries are made of: a comparison of a column with a column or
// a constant, of absolute(column) with a constant, and a conjunction of
// terms (each compiled in turn). Every other shape, and every row a
// compiled comparison cannot decide (a column index past the row, a
// string compared with a number, absolute of a string), goes to e's own
// Eval, which is therefore both the fallback and the definition. A nil e
// compiles to nil; e must not be modified afterwards.
func CompilePred(e Expr) func(tuple.Tuple) (bool, error) {
	switch n := e.(type) {
	case nil:
		return nil
	case *And:
		terms := make([]func(tuple.Tuple) (bool, error), len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = CompilePred(t)
		}
		return func(row tuple.Tuple) (bool, error) {
			for _, term := range terms {
				if ok, err := term(row); err != nil || !ok {
					return false, err
				}
			}
			return true, nil
		}
	case *Cmp:
		if f := compileCmp(n); f != nil {
			return f
		}
	}
	return func(row tuple.Tuple) (bool, error) { return EvalBool(e, row) }
}

// compileCmp returns the typed form of c, or nil when c is not one of
// the compiled shapes.
func compileCmp(c *Cmp) func(tuple.Tuple) (bool, error) {
	op := c.Op
	switch l := c.L.(type) {
	case *ColRef:
		a := l.Index
		if a < 0 {
			return nil
		}
		switch r := c.R.(type) {
		case *ColRef:
			b := r.Index
			if b < 0 {
				return nil
			}
			return func(row tuple.Tuple) (bool, error) {
				if a < len(row) && b < len(row) {
					if cv, ok := compare(&row[a], &row[b]); ok {
						return op.holds(cv), nil
					}
				}
				return EvalBool(c, row)
			}
		case *Const:
			k := &r.V
			return func(row tuple.Tuple) (bool, error) {
				if a < len(row) {
					if cv, ok := compare(&row[a], k); ok {
						return op.holds(cv), nil
					}
				}
				return EvalBool(c, row)
			}
		}
	case *Func:
		if l.impl() != funcAbs || len(l.Args) != 1 {
			return nil
		}
		col, isCol := l.Args[0].(*ColRef)
		r, isConst := c.R.(*Const)
		if !isCol || !isConst || col.Index < 0 {
			return nil
		}
		a, k := col.Index, &r.V
		return func(row tuple.Tuple) (bool, error) {
			if a < len(row) {
				if x, ok := absolute(&row[a]); ok {
					if cv, ok := compare(&x, k); ok {
						return op.holds(cv), nil
					}
				}
			}
			return EvalBool(c, row)
		}
	}
	return nil
}

// compare is l.Compare(*r) with the Int–Int case decided in place, no
// Value copied; ok is false where Compare returns an error.
func compare(l, r *tuple.Value) (cv int, ok bool) {
	if l.Kind == tuple.Int && r.Kind == tuple.Int {
		return cmp.Compare(l.I, r.I), true
	}
	cv, err := l.Compare(*r)
	return cv, err == nil
}
