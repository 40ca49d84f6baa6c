// Package optimizer turns parsed SPJ statements into physical plans: it
// binds names against the catalog, estimates selectivities and
// cardinalities from statistics, enumerates left-deep join orders with
// dynamic programming, and chooses join algorithms and access paths by
// estimated cost measured in U (bytes processed at segment boundaries —
// the same unit the progress indicator tracks).
package optimizer

import (
	"fmt"
	"strings"

	"progressdb/internal/catalog"
	"progressdb/internal/expr"
	"progressdb/internal/sqlparser"
	"progressdb/internal/stats"
	"progressdb/internal/tuple"
)

// tableSource is one bound FROM entry.
type tableSource struct {
	ref    sqlparser.TableRef
	tbl    *catalog.Table
	idx    int // position in FROM list
	offset int // first global column index
}

func (t *tableSource) binding() string { return t.ref.Binding() }

// conjunct is one bound WHERE term.
type conjunct struct {
	e      expr.Expr // over global column indexes
	tables uint32    // bitmask of referenced table positions
}

// boundItem is one bound select-list entry.
type boundItem struct {
	agg     string // "" for a plain column
	aggStar bool   // count(*)
	col     int    // global column index; -1 for count(*)
	name    string // output column name
}

// boundOrder is one bound ORDER BY key.
type boundOrder struct {
	col  int // global column index
	desc bool
}

// boundQuery is the binder's output.
type boundQuery struct {
	tables    []*tableSource
	conjuncts []*conjunct
	// items are the select-list entries (empty means SELECT *).
	items []boundItem
	// selectCols are the global columns the join phase must deliver: the
	// plain item columns, grouping columns, and aggregate arguments.
	selectCols []int
	groupBy    []int
	orderBy    []boundOrder
	limit      *int64
	hasAgg     bool
	subqueries []*subquerySpec
	global     *tuple.Schema
}

// numTables in a conjunct's bitmask.
func bits(m uint32) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

// bind resolves stmt against the catalog.
func bind(cat *catalog.Catalog, stmt *sqlparser.SelectStmt) (*boundQuery, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("optimizer: empty FROM list")
	}
	if len(stmt.From) > 31 {
		return nil, fmt.Errorf("optimizer: too many tables (%d > 31)", len(stmt.From))
	}
	bq := &boundQuery{global: &tuple.Schema{}}
	if err := bq.bindFrom(cat, stmt.From, 0); err != nil {
		return nil, err
	}

	// GROUP BY columns.
	for _, g := range stmt.GroupBy {
		gi, _, err := bq.resolveColumn(g)
		if err != nil {
			return nil, err
		}
		bq.groupBy = append(bq.groupBy, gi)
	}
	bq.hasAgg = len(stmt.GroupBy) > 0

	// Select list.
	if stmt.Star {
		if len(stmt.GroupBy) > 0 {
			return nil, fmt.Errorf("optimizer: SELECT * cannot be combined with GROUP BY")
		}
		for i := range bq.global.Cols {
			bq.selectCols = append(bq.selectCols, i)
		}
	} else {
		for _, item := range stmt.Items {
			bi := boundItem{agg: item.Agg, aggStar: item.AggStar, col: -1, name: item.String()}
			if !item.AggStar {
				g, _, err := bq.resolveColumn(item.Col)
				if err != nil {
					return nil, err
				}
				bi.col = g
			}
			if bi.agg != "" {
				bq.hasAgg = true
			}
			bq.items = append(bq.items, bi)
		}
		// With aggregation, plain columns must be grouping columns.
		if bq.hasAgg {
			for _, bi := range bq.items {
				if bi.agg == "" && !containsInt(bq.groupBy, bi.col) {
					return nil, fmt.Errorf("optimizer: column %s must appear in GROUP BY or inside an aggregate",
						bq.global.Cols[bi.col].Name)
				}
			}
		}
		// selectCols: what the join phase must deliver.
		seen := map[int]bool{}
		add := func(g int) {
			if g >= 0 && !seen[g] {
				seen[g] = true
				bq.selectCols = append(bq.selectCols, g)
			}
		}
		if bq.hasAgg {
			for _, g := range bq.groupBy {
				add(g)
			}
			for _, bi := range bq.items {
				add(bi.col)
			}
		} else {
			for _, bi := range bq.items {
				// Preserve select-list order including duplicates for
				// plain projections.
				bq.selectCols = append(bq.selectCols, bi.col)
			}
		}
	}

	// WHERE conjuncts; EXISTS/IN subqueries become semi-join specs.
	if stmt.Where != nil {
		for _, t := range splitAnd(stmt.Where) {
			switch n := t.(type) {
			case sqlparser.ExistsExpr:
				spec, err := bindSubquery(cat, bq, n.Sub, n.Not, -1)
				if err != nil {
					return nil, err
				}
				bq.subqueries = append(bq.subqueries, spec)
			case sqlparser.InExpr:
				g, _, err := bq.resolveColumn(n.Col)
				if err != nil {
					return nil, err
				}
				spec, err := bindSubquery(cat, bq, n.Sub, n.Not, g)
				if err != nil {
					return nil, err
				}
				bq.subqueries = append(bq.subqueries, spec)
			default:
				e, mask, err := bq.bindExpr(t)
				if err != nil {
					return nil, err
				}
				bq.conjuncts = append(bq.conjuncts, &conjunct{e: e, tables: mask})
			}
		}
	}

	// ORDER BY and LIMIT.
	for _, o := range stmt.OrderBy {
		gi, _, err := bq.resolveColumn(o.Col)
		if err != nil {
			return nil, err
		}
		bq.orderBy = append(bq.orderBy, boundOrder{col: gi, desc: o.Desc})
	}
	bq.limit = stmt.Limit
	return bq, nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func splitAnd(e sqlparser.Expr) []sqlparser.Expr {
	if a, ok := e.(sqlparser.AndExpr); ok {
		return append(splitAnd(a.L), splitAnd(a.R)...)
	}
	return []sqlparser.Expr{e}
}

// bindFrom binds a FROM list: each table becomes a tableSource, and
// the global schema, whose first outer columns bq already holds, gains
// every table's columns, named "binding.column" with the column in
// lower case. An unaliased table's names are the catalog's own; only an
// alias makes new ones.
func (bq *boundQuery) bindFrom(cat *catalog.Catalog, from []sqlparser.TableRef, outer int) error {
	bq.tables = make([]*tableSource, len(from))
	arity := outer
	for i, ref := range from {
		tbl, err := cat.Table(ref.Table)
		if err != nil {
			return err
		}
		for _, ts := range bq.tables[:i] {
			if ts.binding() == ref.Binding() {
				return fmt.Errorf("optimizer: duplicate table binding %q", ref.Binding())
			}
		}
		bq.tables[i] = &tableSource{ref: ref, tbl: tbl, idx: i, offset: arity}
		arity += tbl.Schema.Arity()
	}
	cols := make([]tuple.Column, arity)
	copy(cols, bq.global.Cols)
	for _, ts := range bq.tables {
		for ci, c := range ts.tbl.Schema.Cols {
			name := ts.tbl.QualifiedCols[ci]
			if b := ts.binding(); b != ts.tbl.Name {
				name = b + "." + strings.ToLower(c.Name)
			}
			cols[ts.offset+ci] = tuple.Column{Name: name, Type: c.Type}
		}
	}
	bq.global.Cols = cols
	return nil
}

// resolveColumn finds the global index of a column reference.
func (bq *boundQuery) resolveColumn(ref sqlparser.ColumnRef) (global int, table int, err error) {
	if ref.Qualifier != "" {
		for _, ts := range bq.tables {
			if ts.binding() == ref.Qualifier {
				ci := ts.tbl.Schema.ColIndex(ref.Column)
				if ci < 0 {
					return 0, 0, fmt.Errorf("optimizer: table %q has no column %q", ref.Qualifier, ref.Column)
				}
				return ts.offset + ci, ts.idx, nil
			}
		}
		return 0, 0, fmt.Errorf("optimizer: unknown table %q", ref.Qualifier)
	}
	found := -1
	foundTable := -1
	for _, ts := range bq.tables {
		if ci := ts.tbl.Schema.ColIndex(ref.Column); ci >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("optimizer: ambiguous column %q", ref.Column)
			}
			found = ts.offset + ci
			foundTable = ts.idx
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("optimizer: unknown column %q", ref.Column)
	}
	return found, foundTable, nil
}

// bindExpr converts a source expression to a bound expr.Expr plus the
// bitmask of tables it references.
func (bq *boundQuery) bindExpr(e sqlparser.Expr) (expr.Expr, uint32, error) {
	switch n := e.(type) {
	case sqlparser.ColumnRef:
		g, tbl, err := bq.resolveColumn(n)
		if err != nil {
			return nil, 0, err
		}
		return &expr.ColRef{Index: g, Name: bq.global.Cols[g].Name}, 1 << uint(tbl), nil
	case sqlparser.IntLit:
		return &expr.Const{V: tuple.NewInt(n.V)}, 0, nil
	case sqlparser.FloatLit:
		return &expr.Const{V: tuple.NewFloat(n.V)}, 0, nil
	case sqlparser.StrLit:
		return &expr.Const{V: tuple.NewString(n.V)}, 0, nil
	case sqlparser.FuncCall:
		var args []expr.Expr
		var mask uint32
		for _, a := range n.Args {
			ba, m, err := bq.bindExpr(a)
			if err != nil {
				return nil, 0, err
			}
			args = append(args, ba)
			mask |= m
		}
		return expr.NewFunc(n.Name, args), mask, nil
	case sqlparser.Comparison:
		l, ml, err := bq.bindExpr(n.L)
		if err != nil {
			return nil, 0, err
		}
		r, mr, err := bq.bindExpr(n.R)
		if err != nil {
			return nil, 0, err
		}
		op, err := cmpOp(n.Op)
		if err != nil {
			return nil, 0, err
		}
		return &expr.Cmp{Op: op, L: l, R: r}, ml | mr, nil
	case sqlparser.AndExpr:
		l, ml, err := bq.bindExpr(n.L)
		if err != nil {
			return nil, 0, err
		}
		r, mr, err := bq.bindExpr(n.R)
		if err != nil {
			return nil, 0, err
		}
		return &expr.And{Terms: []expr.Expr{l, r}}, ml | mr, nil
	default:
		return nil, 0, fmt.Errorf("optimizer: unsupported expression %T", e)
	}
}

func cmpOp(op string) (expr.CmpOp, error) {
	switch op {
	case "=":
		return expr.EQ, nil
	case "<>":
		return expr.NE, nil
	case "<":
		return expr.LT, nil
	case "<=":
		return expr.LE, nil
	case ">":
		return expr.GT, nil
	case ">=":
		return expr.GE, nil
	default:
		return 0, fmt.Errorf("optimizer: unknown operator %q", op)
	}
}

// colStatsFor returns the column statistics behind a global column index.
func (bq *boundQuery) colStatsFor(global int) *stats.ColStats {
	ts := bq.tableOf(global)
	if ts == nil || ts.tbl.Stats == nil {
		return nil
	}
	return ts.tbl.Stats.Col(ts.tbl.Schema.Cols[global-ts.offset].Name)
}

// tableOf returns the table source providing a global column.
func (bq *boundQuery) tableOf(global int) *tableSource {
	for _, ts := range bq.tables {
		if global >= ts.offset && global < ts.offset+ts.tbl.Schema.Arity() {
			return ts
		}
	}
	return nil
}

// colWidth estimates the encoded width of a global column.
func (bq *boundQuery) colWidth(global int) float64 {
	if cs := bq.colStatsFor(global); cs != nil && cs.AvgWidth > 0 {
		return cs.AvgWidth
	}
	if bq.global.Cols[global].Type == tuple.String {
		return 20 // default guess for unanalyzed strings
	}
	return 9
}
