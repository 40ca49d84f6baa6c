// Result merging: union and ordered k-way merge for the pass-through
// path, partial-aggregate recombination for the aggregate path.
package fleet

import (
	"sort"
	"strings"

	"progressdb"
	"progressdb/internal/sqlparser"
	"progressdb/internal/tuple"
)

// aggQueryPlan drives the re-aggregation path. The shard subquery's
// output layout is the GROUP BY columns (nGroup of them, in GROUP BY
// order) followed by one column per partial-aggregate entry.
type aggQueryPlan struct {
	nGroup int
	// entries[i] is how shard output column nGroup+i recombines:
	// "count"/"sum" add, "min"/"max" fold.
	entries []string
	// outputs maps the original select list to merged state.
	outputs []outputRef
	// columns are the final output column names, matching what a single
	// engine would have produced for the original query.
	columns []string
}

// outputRef is one original select-list item's source in merged state.
type outputRef struct {
	kind byte // 'g' group key, 'a' single entry, 'v' avg = sum/count
	a, b int  // 'g': group index; 'a': entry index; 'v': sum, count entries
}

// rewriteAggregate splits an aggregate query into shard-local partial
// aggregates plus a coordinator recombination plan. avg(x) is the one
// non-trivial split: shards return sum(x) and count(*) (the engine has
// no NULLs, so count(*) equals count(x)), and the coordinator divides
// the merged sums — the textbook algebraic-aggregate decomposition.
func rewriteAggregate(stmt *sqlparser.SelectStmt) (*queryPlan, error) {
	shard := &sqlparser.SelectStmt{From: stmt.From, Where: stmt.Where, GroupBy: stmt.GroupBy}
	for _, g := range stmt.GroupBy {
		shard.Items = append(shard.Items, sqlparser.SelectItem{Col: g})
	}

	p := &aggQueryPlan{nGroup: len(stmt.GroupBy)}
	entryIdx := map[string]int{}
	addEntry := func(it sqlparser.SelectItem, kind string) int {
		k := it.String()
		if i, ok := entryIdx[k]; ok {
			return i
		}
		shard.Items = append(shard.Items, it)
		p.entries = append(p.entries, kind)
		entryIdx[k] = len(p.entries) - 1
		return len(p.entries) - 1
	}

	for _, it := range stmt.Items {
		switch it.Agg {
		case "":
			gi := -1
			for i, g := range stmt.GroupBy {
				if strings.EqualFold(g.Column, it.Col.Column) &&
					(g.Qualifier == "" || it.Col.Qualifier == "" || strings.EqualFold(g.Qualifier, it.Col.Qualifier)) {
					gi = i
					break
				}
			}
			if gi < 0 {
				return nil, unsupportedf("column %s must appear in GROUP BY", it.Col)
			}
			name, err := qualifiedOutName(stmt, it.Col)
			if err != nil {
				return nil, err
			}
			p.outputs = append(p.outputs, outputRef{kind: 'g', a: gi})
			p.columns = append(p.columns, name)
		case "count", "sum", "min", "max":
			idx := addEntry(it, it.Agg)
			p.outputs = append(p.outputs, outputRef{kind: 'a', a: idx})
			p.columns = append(p.columns, it.String())
		case "avg":
			sumIdx := addEntry(sqlparser.SelectItem{Agg: "sum", Col: it.Col}, "sum")
			cntIdx := addEntry(sqlparser.SelectItem{Agg: "count", AggStar: true}, "count")
			p.outputs = append(p.outputs, outputRef{kind: 'v', a: sumIdx, b: cntIdx})
			p.columns = append(p.columns, it.String())
		default:
			return nil, unsupportedf("aggregate %q cannot be recombined across shards", it.Agg)
		}
	}

	if len(stmt.OrderBy) > 0 {
		for _, o := range stmt.OrderBy {
			if findColumnIndex(p.columns, o.Col) < 0 {
				return nil, unsupportedf("ORDER BY column %s must appear in the select list for a merged fleet query", o.Col)
			}
		}
	}
	return &queryPlan{shardSQL: shard.String(), agg: p, orderBy: stmt.OrderBy, limit: stmt.Limit}, nil
}

// qualifiedOutName reproduces the engine's output naming for a plain
// column: binding.column, both lowercased, with an unqualified reference
// resolved against the sole FROM table.
func qualifiedOutName(stmt *sqlparser.SelectStmt, col sqlparser.ColumnRef) (string, error) {
	q := col.Qualifier
	if q == "" {
		if len(stmt.From) != 1 {
			return "", unsupportedf("unqualified column %s is ambiguous in a multi-table fleet query", col)
		}
		q = stmt.From[0].Binding()
	}
	return strings.ToLower(q) + "." + strings.ToLower(col.Column), nil
}

// mergeResults fills out.Columns and (when keepRows) out.Rows from the
// per-shard results according to the plan.
func mergeResults(out *Result, results []*progressdb.Result, qp *queryPlan, keepRows bool) error {
	if qp.agg != nil {
		out.Columns = qp.agg.columns
	} else if len(results) > 0 {
		out.Columns = results[0].Columns
	}
	if !keepRows {
		return nil
	}

	var rows [][]interface{}
	if qp.agg != nil {
		rows = mergeAggregate(results, qp.agg)
	} else if len(qp.orderBy) > 0 {
		var err error
		rows, err = mergeOrdered(results, qp.orderBy, out.Columns)
		if err != nil {
			return err
		}
	} else {
		for _, res := range results {
			rows = append(rows, res.Rows...)
		}
	}

	if qp.agg != nil && len(qp.orderBy) > 0 {
		if err := sortRows(rows, qp.orderBy, out.Columns); err != nil {
			return err
		}
	}
	if qp.limit != nil && int64(len(rows)) > *qp.limit {
		rows = rows[:*qp.limit]
	}
	out.Rows = rows
	return nil
}

// mergeAggregate recombines partial aggregates by group key. Group order
// is first-seen in shard order — deterministic, though generally
// different from any single shard's order (multiset-stable, like the
// engine's own hash aggregation).
func mergeAggregate(results []*progressdb.Result, p *aggQueryPlan) [][]interface{} {
	type groupAcc struct {
		groupVals []interface{}
		aggs      []interface{}
	}
	accs := map[string]*groupAcc{}
	var order []string
	for _, res := range results {
		for _, row := range res.Rows {
			key := groupKey(row[:p.nGroup])
			a, ok := accs[key]
			if !ok {
				a = &groupAcc{groupVals: row[:p.nGroup], aggs: make([]interface{}, len(p.entries))}
				accs[key] = a
				order = append(order, key)
			}
			for i, kind := range p.entries {
				a.aggs[i] = combine(kind, a.aggs[i], row[p.nGroup+i])
			}
		}
	}

	rows := make([][]interface{}, 0, len(order))
	for _, key := range order {
		a := accs[key]
		rowOut := make([]interface{}, len(p.outputs))
		for i, o := range p.outputs {
			switch o.kind {
			case 'g':
				rowOut[i] = a.groupVals[o.a]
			case 'a':
				rowOut[i] = a.aggs[o.a]
			case 'v':
				rowOut[i] = a.aggs[o.a].(float64) / float64(a.aggs[o.b].(int64))
			}
		}
		rows = append(rows, rowOut)
	}
	return rows
}

// combine folds one shard's partial aggregate value into the running
// accumulator. Engine typing: count emits int64, sum/avg float64,
// min/max the column's own type.
func combine(kind string, acc, v interface{}) interface{} {
	if acc == nil {
		return v
	}
	switch kind {
	case "count":
		return acc.(int64) + v.(int64)
	case "sum":
		return acc.(float64) + v.(float64)
	case "min":
		if compareCells(v, acc) < 0 {
			return v
		}
		return acc
	default: // max
		if compareCells(acc, v) < 0 {
			return v
		}
		return acc
	}
}

// groupKey encodes group-by values into a map key: the record encoding
// of their Canonical forms, so two rows share a group exactly when
// Value.Compare calls their keys equal — as in the engine's hash tables.
func groupKey(vals []interface{}) string {
	var key []byte
	for _, v := range vals {
		tv, _ := cellValue(v)
		key = tv.Canonical().Encode(key)
	}
	return string(key)
}

// cellValue converts a result cell or an inserted Go value back to the
// engine's tuple.Value, reporting false for a type the engine does not
// store. The merge orders and keys cells through it, so the value order
// is tuple's alone.
func cellValue(v interface{}) (tuple.Value, bool) {
	switch x := v.(type) {
	case int64:
		return tuple.NewInt(x), true
	case int:
		return tuple.NewInt(int64(x)), true
	case float64:
		return tuple.NewFloat(x), true
	case string:
		return tuple.NewString(x), true
	}
	return tuple.Value{}, false
}

// compareCells orders two cells of one output column by Value.Compare.
// The engine types every column, so the string-vs-number error cannot
// arise.
func compareCells(a, b interface{}) int {
	av, _ := cellValue(a)
	bv, _ := cellValue(b)
	c, _ := av.Compare(bv)
	return c
}

// mergeOrdered k-way-merges the per-shard sorted streams. Ties take the
// lowest shard id, keeping the merge deterministic.
func mergeOrdered(results []*progressdb.Result, orderBy []sqlparser.OrderItem, columns []string) ([][]interface{}, error) {
	keys, err := orderKeyIndexes(orderBy, columns)
	if err != nil {
		return nil, err
	}
	total := 0
	pos := make([]int, len(results))
	for _, res := range results {
		total += len(res.Rows)
	}
	rows := make([][]interface{}, 0, total)
	for len(rows) < total {
		best := -1
		for s, res := range results {
			if pos[s] >= len(res.Rows) {
				continue
			}
			if best < 0 || rowLess(res.Rows[pos[s]], results[best].Rows[pos[best]], keys, orderBy) {
				best = s
			}
		}
		rows = append(rows, results[best].Rows[pos[best]])
		pos[best]++
	}
	return rows, nil
}

// sortRows sorts merged rows globally (aggregate path — shard output
// arrives grouped, not ordered).
func sortRows(rows [][]interface{}, orderBy []sqlparser.OrderItem, columns []string) error {
	keys, err := orderKeyIndexes(orderBy, columns)
	if err != nil {
		return err
	}
	sort.SliceStable(rows, func(i, j int) bool { return rowLess(rows[i], rows[j], keys, orderBy) })
	return nil
}

// orderKeyIndexes resolves ORDER BY columns against output column names.
func orderKeyIndexes(orderBy []sqlparser.OrderItem, columns []string) ([]int, error) {
	keys := make([]int, len(orderBy))
	for i, o := range orderBy {
		idx := findColumnIndex(columns, o.Col)
		if idx < 0 {
			return nil, unsupportedf("ORDER BY column %s not present in merged output columns %v", o.Col, columns)
		}
		keys[i] = idx
	}
	return keys, nil
}

// findColumnIndex matches a column reference against output column
// names. The engine emits plain columns as "binding.column", so an
// exact (qualified) match is tried first, then the bare column name,
// then a ".column" suffix match against qualified names.
func findColumnIndex(columns []string, col sqlparser.ColumnRef) int {
	for i, c := range columns {
		if strings.EqualFold(c, col.String()) {
			return i
		}
	}
	for i, c := range columns {
		if strings.EqualFold(c, col.Column) {
			return i
		}
	}
	if col.Qualifier == "" {
		suffix := "." + strings.ToLower(col.Column)
		for i, c := range columns {
			if strings.HasSuffix(strings.ToLower(c), suffix) {
				return i
			}
		}
	}
	return -1
}

// rowLess compares two rows on the order keys.
func rowLess(a, b []interface{}, keys []int, orderBy []sqlparser.OrderItem) bool {
	for i, k := range keys {
		if c := compareCells(a[k], b[k]); c != 0 {
			return (c < 0) != orderBy[i].Desc
		}
	}
	return false
}
