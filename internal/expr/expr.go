// Package expr implements scalar expressions over tuples: column
// references, constants, comparisons, conjunctions, arithmetic, and
// function calls.
//
// The function-call node matters to the reproduction: the paper's queries
// Q2 and Q4 use predicates like absolute(l.partkey) > 0 precisely because
// PostgreSQL's optimizer cannot estimate the selectivity of a predicate
// over a function result and falls back to a default of 1/3. Our
// selectivity estimator (internal/stats) does the same, which is what
// creates the estimation error the progress indicator must correct.
package expr

import (
	"fmt"
	"math"
	"strings"

	"progressdb/internal/tuple"
)

// CmpOp is a comparison operator.
type CmpOp int

const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String renders the operator in SQL syntax.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Expr is a scalar expression evaluated against a row. Boolean results are
// Int values 0/1.
type Expr interface {
	// Eval computes the expression over row.
	Eval(row tuple.Tuple) (tuple.Value, error)
	// String renders the expression in SQL-ish syntax.
	String() string
}

// ColRef references a column of the input row by position. Name is kept
// for display only.
type ColRef struct {
	Index int
	Name  string
}

// Eval implements Expr.
func (c *ColRef) Eval(row tuple.Tuple) (tuple.Value, error) {
	if c.Index < 0 || c.Index >= len(row) {
		return tuple.Value{}, fmt.Errorf("expr: column index %d out of range (row arity %d)", c.Index, len(row))
	}
	return row[c.Index], nil
}

func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Index)
}

// Const is a literal value.
type Const struct {
	V tuple.Value
}

// Eval implements Expr.
func (c *Const) Eval(tuple.Tuple) (tuple.Value, error) { return c.V, nil }

func (c *Const) String() string {
	if c.V.Kind == tuple.String {
		return "'" + c.V.S + "'"
	}
	return c.V.String()
}

// Cmp compares two subexpressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c *Cmp) Eval(row tuple.Tuple) (tuple.Value, error) {
	l, err := c.L.Eval(row)
	if err != nil {
		return tuple.Value{}, err
	}
	r, err := c.R.Eval(row)
	if err != nil {
		return tuple.Value{}, err
	}
	cv, err := l.Compare(r)
	if err != nil {
		return tuple.Value{}, fmt.Errorf("expr: %s: %w", c, err)
	}
	if c.Op.holds(cv) {
		return tuple.NewInt(1), nil
	}
	return tuple.NewInt(0), nil
}

// holds reports whether a comparison result cv (-1, 0, +1) satisfies op.
func (op CmpOp) holds(cv int) bool {
	switch op {
	case EQ:
		return cv == 0
	case NE:
		return cv != 0
	case LT:
		return cv < 0
	case LE:
		return cv <= 0
	case GT:
		return cv > 0
	case GE:
		return cv >= 0
	default:
		return false
	}
}

func (c *Cmp) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// And is a conjunction of one or more terms.
type And struct {
	Terms []Expr
}

// Eval implements Expr; short-circuits on the first false term.
func (a *And) Eval(row tuple.Tuple) (tuple.Value, error) {
	for _, t := range a.Terms {
		v, err := t.Eval(row)
		if err != nil {
			return tuple.Value{}, err
		}
		if !Truthy(v) {
			return tuple.NewInt(0), nil
		}
	}
	return tuple.NewInt(1), nil
}

func (a *And) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " AND ")
}

// Func is a scalar function call. Supported: absolute(x), mod(x, y).
// Build it with NewFunc so the name is resolved once; a literal-built
// node evaluates the same but resolves the name on every Eval.
type Func struct {
	Name string
	Args []Expr
	kind funcKind
}

// funcKind is a function name resolved to its implementation.
type funcKind uint8

const (
	funcUnresolved funcKind = iota // literal-built node
	funcUnknown
	funcAbs
	funcMod
)

func resolveFunc(name string) funcKind {
	switch strings.ToLower(name) {
	case "absolute", "abs":
		return funcAbs
	case "mod":
		return funcMod
	default:
		return funcUnknown
	}
}

// NewFunc returns a call node with its implementation resolved. An
// unknown name is not rejected here: it is an error of Eval.
func NewFunc(name string, args []Expr) *Func {
	return &Func{Name: name, Args: args, kind: resolveFunc(name)}
}

// impl returns the node's implementation, resolving a literal-built
// node's name.
func (f *Func) impl() funcKind {
	if f.kind == funcUnresolved {
		return resolveFunc(f.Name)
	}
	return f.kind
}

// Eval implements Expr.
func (f *Func) Eval(row tuple.Tuple) (tuple.Value, error) {
	// No supported function takes more than two arguments; further ones
	// are still evaluated so their errors surface before the arity error.
	var args [2]tuple.Value
	for i, a := range f.Args {
		v, err := a.Eval(row)
		if err != nil {
			return tuple.Value{}, err
		}
		if i < len(args) {
			args[i] = v
		}
	}
	switch f.impl() {
	case funcAbs:
		if len(f.Args) != 1 {
			return tuple.Value{}, fmt.Errorf("expr: %s takes 1 argument", f.Name)
		}
		if v, ok := absolute(&args[0]); ok {
			return v, nil
		}
		return tuple.Value{}, fmt.Errorf("expr: %s of non-numeric value", f.Name)
	case funcMod:
		if len(f.Args) != 2 || args[0].Kind != tuple.Int || args[1].Kind != tuple.Int {
			return tuple.Value{}, fmt.Errorf("expr: mod takes 2 int arguments")
		}
		if args[1].I == 0 {
			return tuple.Value{}, fmt.Errorf("expr: mod by zero")
		}
		return tuple.NewInt(args[0].I % args[1].I), nil
	default:
		return tuple.Value{}, fmt.Errorf("expr: unknown function %q", f.Name)
	}
}

// absolute returns |v|; ok is false for a non-numeric v.
func absolute(v *tuple.Value) (abs tuple.Value, ok bool) {
	switch v.Kind {
	case tuple.Int:
		if v.I < 0 {
			return tuple.NewInt(-v.I), true
		}
		return tuple.NewInt(v.I), true
	case tuple.Float:
		return tuple.NewFloat(math.Abs(v.F)), true
	default:
		return tuple.Value{}, false
	}
}

func (f *Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// Truthy reports whether v counts as true (non-zero numeric).
func Truthy(v tuple.Value) bool {
	switch v.Kind {
	case tuple.Int:
		return v.I != 0
	case tuple.Float:
		return v.F != 0
	default:
		return v.S != ""
	}
}

// EvalBool evaluates e and interprets the result as a boolean.
func EvalBool(e Expr, row tuple.Tuple) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	return Truthy(v), nil
}

// Conjuncts flattens nested ANDs into a list of terms. A nil expression
// yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*And); ok {
		var out []Expr
		for _, t := range a.Terms {
			out = append(out, Conjuncts(t)...)
		}
		return out
	}
	return []Expr{e}
}

// Conjoin combines terms into a single expression: nil for empty, the term
// itself for one, an And for more.
func Conjoin(terms []Expr) Expr {
	switch len(terms) {
	case 0:
		return nil
	case 1:
		return terms[0]
	default:
		return &And{Terms: terms}
	}
}

// ColumnsUsed returns the sorted set of column indexes referenced by e.
func ColumnsUsed(e Expr) []int {
	set := map[int]bool{}
	var walk func(Expr)
	walk = func(x Expr) {
		switch n := x.(type) {
		case *ColRef:
			set[n.Index] = true
		case *Cmp:
			walk(n.L)
			walk(n.R)
		case *And:
			for _, t := range n.Terms {
				walk(t)
			}
		case *Func:
			for _, a := range n.Args {
				walk(a)
			}
		}
	}
	walk(e)
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	for i := 1; i < len(out); i++ { // insertion sort; sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ContainsFunc reports whether e contains any function call — the
// condition under which the selectivity estimator falls back to its
// default guess, per the paper's PostgreSQL behaviour.
func ContainsFunc(e Expr) bool {
	switch n := e.(type) {
	case *Func:
		return true
	case *Cmp:
		return ContainsFunc(n.L) || ContainsFunc(n.R)
	case *And:
		for _, t := range n.Terms {
			if ContainsFunc(t) {
				return true
			}
		}
	}
	return false
}

// Remap returns a copy of e with every column index i replaced by m[i].
// Indexes absent from m are an error (the caller failed to push the
// predicate to an input that provides all its columns).
func Remap(e Expr, m map[int]int) (Expr, error) {
	switch n := e.(type) {
	case *ColRef:
		ni, ok := m[n.Index]
		if !ok {
			return nil, fmt.Errorf("expr: column %d not available after remap", n.Index)
		}
		return &ColRef{Index: ni, Name: n.Name}, nil
	case *Const:
		return n, nil
	case *Cmp:
		l, err := Remap(n.L, m)
		if err != nil {
			return nil, err
		}
		r, err := Remap(n.R, m)
		if err != nil {
			return nil, err
		}
		return &Cmp{Op: n.Op, L: l, R: r}, nil
	case *And:
		terms := make([]Expr, len(n.Terms))
		for i, t := range n.Terms {
			nt, err := Remap(t, m)
			if err != nil {
				return nil, err
			}
			terms[i] = nt
		}
		return &And{Terms: terms}, nil
	case *Func:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			na, err := Remap(a, m)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return NewFunc(n.Name, args), nil
	default:
		return nil, fmt.Errorf("expr: unknown node %T", e)
	}
}

// EquiJoinCols reports whether e is a simple equality between two bare
// column references, returning their indexes if so. The optimizer uses
// this to recognize hash- and merge-joinable predicates.
func EquiJoinCols(e Expr) (l, r int, ok bool) {
	c, isCmp := e.(*Cmp)
	if !isCmp || c.Op != EQ {
		return 0, 0, false
	}
	lc, lok := c.L.(*ColRef)
	rc, rok := c.R.(*ColRef)
	if !lok || !rok {
		return 0, 0, false
	}
	return lc.Index, rc.Index, true
}
