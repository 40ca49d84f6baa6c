// Package plan defines physical query plans: the operator trees produced
// by the optimizer and consumed by the executor and by the progress
// indicator's segment decomposition.
//
// Every node carries the optimizer's output estimate (cardinality and
// average tuple width) plus the local selectivity parameters the estimate
// was derived from. The progress indicator re-derives segment costs from
// these same parameters with refined input estimates — re-invoking "the
// optimizer's cost estimation module", as the paper puts it.
package plan

import (
	"fmt"
	"strings"

	"progressdb/internal/catalog"
	"progressdb/internal/expr"
	"progressdb/internal/tuple"
)

// Est is an optimizer estimate of an operator's output: row count and
// average encoded tuple width in bytes.
type Est struct {
	Card  float64
	Width float64
}

// Bytes returns the estimated output size in bytes.
func (e Est) Bytes() float64 { return e.Card * e.Width }

// Node is a physical plan operator.
type Node interface {
	// Schema is the operator's output schema.
	Schema() *tuple.Schema
	// Children returns input operators, left to right.
	Children() []Node
	// Label is a one-line description for EXPLAIN output.
	Label() string
	// Est returns the optimizer's output estimate.
	Est() Est
}

// SeqScan reads an entire base relation in storage order.
type SeqScan struct {
	Table *catalog.Table
	// Alias is the binding name used in the query ("c", "o1", ...).
	Alias  string
	OutEst Est
}

func (s *SeqScan) Schema() *tuple.Schema { return s.Table.Schema }
func (s *SeqScan) Children() []Node      { return nil }
func (s *SeqScan) Est() Est              { return s.OutEst }
func (s *SeqScan) Label() string {
	return fmt.Sprintf("SeqScan %s%s", s.Table.Name, aliasSuffix(s.Alias, s.Table.Name))
}

// IndexScan reads tuples whose key column lies in [Lo, Hi] via a B+-tree,
// fetching each matching heap tuple.
type IndexScan struct {
	Table *catalog.Table
	Alias string
	Index *catalog.Index
	// Lo and Hi bound the key range; nil means unbounded.
	Lo, Hi *int64
	// Sel is the estimated fraction of the relation read.
	Sel    float64
	OutEst Est
}

func (s *IndexScan) Schema() *tuple.Schema { return s.Table.Schema }
func (s *IndexScan) Children() []Node      { return nil }
func (s *IndexScan) Est() Est              { return s.OutEst }
func (s *IndexScan) Label() string {
	var rng []string
	if s.Lo != nil {
		rng = append(rng, fmt.Sprintf("%s >= %d", s.Index.Column, *s.Lo))
	}
	if s.Hi != nil {
		rng = append(rng, fmt.Sprintf("%s <= %d", s.Index.Column, *s.Hi))
	}
	return fmt.Sprintf("IndexScan %s%s using %s (%s)",
		s.Table.Name, aliasSuffix(s.Alias, s.Table.Name), s.Index.Name, strings.Join(rng, " AND "))
}

// Filter drops tuples failing Pred (bound to the child schema).
type Filter struct {
	Child Node
	Pred  expr.Expr
	// Sel is the estimated selectivity of Pred.
	Sel    float64
	OutEst Est
}

func (f *Filter) Schema() *tuple.Schema { return f.Child.Schema() }
func (f *Filter) Children() []Node      { return []Node{f.Child} }
func (f *Filter) Est() Est              { return f.OutEst }
func (f *Filter) Label() string         { return fmt.Sprintf("Filter (%s)", f.Pred) }

// Project keeps the child columns listed in Cols, in order.
type Project struct {
	Child  Node
	Cols   []int
	Sch    *tuple.Schema
	OutEst Est
}

func (p *Project) Schema() *tuple.Schema { return p.Sch }
func (p *Project) Children() []Node      { return []Node{p.Child} }
func (p *Project) Est() Est              { return p.OutEst }
func (p *Project) Label() string {
	names := make([]string, len(p.Cols))
	for i, c := range p.Sch.Cols {
		names[i] = c.Name
	}
	return fmt.Sprintf("Project (%s)", strings.Join(names, ", "))
}

// Partition hash-partitions its input into batches on disk — the "hash"
// operators of the paper's Figures 3 and 8. It is blocking: partitioning
// terminates its segment, and the partitions (PA, PB, ...) are inputs of
// the consuming Grace hash-join segment. Partition appears only as a
// direct child of a HashJoin with Grace set.
type Partition struct {
	Child Node
	// Key is the partitioning column in the child schema.
	Key    int
	OutEst Est
}

func (p *Partition) Schema() *tuple.Schema { return p.Child.Schema() }
func (p *Partition) Children() []Node      { return []Node{p.Child} }
func (p *Partition) Est() Est              { return p.OutEst }
func (p *Partition) Label() string {
	return fmt.Sprintf("HashPartition (%s)", p.Child.Schema().Cols[p.Key].Name)
}

// HashJoin is a hash join.
//
// With Grace false it is the in-memory hybrid form: Build (left child) is
// consumed fully into a hash table — the blocking boundary that ends the
// build side's segment — then Probe (right child) streams. Per the
// paper's rules the probe input is the segment's dominant input.
//
// With Grace true (chosen when the build side exceeds working memory, as
// on the paper's 2004-era PostgreSQL with sub-megabyte sort_mem), both
// children are Partition nodes; the join reads partition pairs batch by
// batch, and both partition sets are segment inputs of the join's
// segment, the probe partitions being dominant (the paper's S3 with
// dominant input PB).
type HashJoin struct {
	Build, Probe Node
	// Grace selects the partitioned form; Build and Probe are then
	// *Partition nodes.
	Grace bool
	// BuildKey and ProbeKey are the equijoin column positions in the
	// respective child schemas.
	BuildKey, ProbeKey int
	// ExtraPred is an optional residual predicate over the concatenated
	// (build ++ probe) schema.
	ExtraPred expr.Expr
	// Sel is the estimated combined join selectivity (equijoin × residual).
	Sel    float64
	Sch    *tuple.Schema
	OutEst Est
}

func (j *HashJoin) Schema() *tuple.Schema { return j.Sch }
func (j *HashJoin) Children() []Node      { return []Node{j.Build, j.Probe} }
func (j *HashJoin) Est() Est              { return j.OutEst }
func (j *HashJoin) Label() string {
	kind := "HashJoin"
	if j.Grace {
		kind = "GraceHashJoin"
	}
	l := fmt.Sprintf("%s (build.%s = probe.%s)", kind,
		j.Build.Schema().Cols[j.BuildKey].Name, j.Probe.Schema().Cols[j.ProbeKey].Name)
	if j.ExtraPred != nil {
		l += fmt.Sprintf(" AND (%s)", j.ExtraPred)
	}
	return l
}

// NLJoin is a nested-loops join: for each Outer (left) tuple, Inner
// (right) is rescanned and Pred evaluated over the concatenated schema.
// The outer is the segment's dominant input.
type NLJoin struct {
	Outer, Inner Node
	// Pred may be nil (cross product).
	Pred expr.Expr
	// Sel is the estimated selectivity of Pred over the cross product.
	Sel    float64
	Sch    *tuple.Schema
	OutEst Est
}

func (j *NLJoin) Schema() *tuple.Schema { return j.Sch }
func (j *NLJoin) Children() []Node      { return []Node{j.Outer, j.Inner} }
func (j *NLJoin) Est() Est              { return j.OutEst }
func (j *NLJoin) Label() string {
	if j.Pred == nil {
		return "NestedLoopJoin (cross)"
	}
	return fmt.Sprintf("NestedLoopJoin (%s)", j.Pred)
}

// SortKey orders by the given output column.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort is an external merge sort — a blocking operator that ends its
// segment, producing sorted runs consumed by the parent segment (the
// paper's Figure 3: S3/S4 sort into runs; S5 merges them).
type Sort struct {
	Child  Node
	Keys   []SortKey
	OutEst Est
}

func (s *Sort) Schema() *tuple.Schema { return s.Child.Schema() }
func (s *Sort) Children() []Node      { return []Node{s.Child} }
func (s *Sort) Est() Est              { return s.OutEst }
func (s *Sort) Label() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		dir := ""
		if k.Desc {
			dir = " DESC"
		}
		parts[i] = fmt.Sprintf("%s%s", s.Child.Schema().Cols[k.Col].Name, dir)
	}
	return fmt.Sprintf("Sort (%s)", strings.Join(parts, ", "))
}

// MergeJoin joins two inputs that are already sorted on the join keys
// (each typically under a Sort). Both inputs are dominant: per the paper,
// p = max(qA, qB), because the join ends when either input is exhausted.
type MergeJoin struct {
	Left, Right       Node
	LeftKey, RightKey int
	ExtraPred         expr.Expr
	Sel               float64
	Sch               *tuple.Schema
	OutEst            Est
}

func (j *MergeJoin) Schema() *tuple.Schema { return j.Sch }
func (j *MergeJoin) Children() []Node      { return []Node{j.Left, j.Right} }
func (j *MergeJoin) Est() Est              { return j.OutEst }
func (j *MergeJoin) Label() string {
	return fmt.Sprintf("MergeJoin (left.%s = right.%s)",
		j.Left.Schema().Cols[j.LeftKey].Name, j.Right.Schema().Cols[j.RightKey].Name)
}

// Materialize buffers its child's output so it can be rescanned (the
// inner of a nested-loops join over a non-scan subtree). Blocking.
type Materialize struct {
	Child  Node
	OutEst Est
}

func (m *Materialize) Schema() *tuple.Schema { return m.Child.Schema() }
func (m *Materialize) Children() []Node      { return []Node{m.Child} }
func (m *Materialize) Est() Est              { return m.OutEst }
func (m *Materialize) Label() string         { return "Materialize" }

// Format renders the plan tree with indentation and estimates, in the
// style of EXPLAIN.
func Format(n Node) string {
	var b strings.Builder
	var walk func(Node, int)
	walk = func(x Node, depth int) {
		e := x.Est()
		fmt.Fprintf(&b, "%s%s  (rows=%.0f width=%.0f)\n",
			strings.Repeat("  ", depth), x.Label(), e.Card, e.Width)
		for _, c := range x.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

func aliasSuffix(alias, table string) string {
	if alias == "" || alias == table {
		return ""
	}
	return " " + alias
}
