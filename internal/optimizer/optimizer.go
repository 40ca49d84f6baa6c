package optimizer

import (
	"fmt"
	"math"

	"progressdb/internal/catalog"
	"progressdb/internal/expr"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/stats"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
)

// Options control plan selection.
type Options struct {
	// WorkMemPages is the per-operator memory budget in pages, used by
	// the cost model to predict hash-join spills and sort runs. Default
	// 2048 (16 MiB).
	WorkMemPages int
	// ForceJoinAlgo forces every join to one algorithm where valid:
	// "hash", "nl", or "merge". Empty means cost-based choice. Used by
	// tests and by the sort-merge-join experiment (the paper describes
	// SMJ progress handling but left it out of its prototype).
	ForceJoinAlgo string
	// DisableIndexScan restricts base access to table scans.
	DisableIndexScan bool
	// RandFactor is the assumed cost ratio of random to sequential page
	// I/O for access-path choice. Default 8.
	RandFactor float64
}

func (o Options) withDefaults() Options {
	if o.WorkMemPages <= 0 {
		o.WorkMemPages = 2048
	}
	if o.RandFactor <= 0 {
		o.RandFactor = 8
	}
	return o
}

// workMemBytes is the memory budget in bytes.
func (o Options) workMemBytes() float64 {
	return float64(o.WorkMemPages) * storage.PageSize
}

// Plan compiles stmt into a physical plan.
func Plan(cat *catalog.Catalog, stmt *sqlparser.SelectStmt, opt Options) (plan.Node, error) {
	opt = opt.withDefaults()
	bq, err := bind(cat, stmt)
	if err != nil {
		return nil, err
	}
	o := &planner{bq: bq, opt: opt}
	return o.run()
}

// dpEntry is one memoized subplan: the plan node, the global column index
// behind each schema position, and the choice cost: the subplan's U in
// bytes, summed from the internal/segment calls the indicator re-costs its
// segments with — except under an index scan (see indexPath).
type dpEntry struct {
	node plan.Node
	cols []int
	cost float64
}

func (e *dpEntry) posOf(global int) int {
	for i, g := range e.cols {
		if g == global {
			return i
		}
	}
	return -1
}

// remap rewrites a global-index expression to this entry's schema positions.
func (e *dpEntry) remap(x expr.Expr) (expr.Expr, error) {
	m := make(map[int]int, len(e.cols))
	for i, g := range e.cols {
		m[g] = i
	}
	return expr.Remap(x, m)
}

type planner struct {
	bq  *boundQuery
	opt Options
	// priced, nil outside TestCostClosure, sees every entry priced: each
	// access path, join candidate and semi-join.
	priced func(*dpEntry)
}

func (p *planner) note(e *dpEntry) {
	if p.priced != nil {
		p.priced(e)
	}
}

func (p *planner) run() (plan.Node, error) {
	best, err := p.joinDP()
	if err != nil {
		return nil, err
	}
	// Apply semi-joins for subqueries before projection/aggregation:
	// EXISTS/IN filter rows, so they act at the joined-row level.
	for _, spec := range p.bq.subqueries {
		best, err = p.applySemiJoin(best, spec)
		if err != nil {
			return nil, err
		}
		p.note(best)
	}
	var node plan.Node
	if p.bq.hasAgg {
		node, err = p.buildAggregate(best)
	} else {
		node, err = p.finalize(best)
	}
	if err != nil {
		return nil, err
	}
	return p.orderLimit(node)
}

// joinDP enumerates left-deep join orders over the query's tables and
// returns the cheapest full plan entry.
func (p *planner) joinDP() (*dpEntry, error) {
	n := len(p.bq.tables)
	full := uint32(1<<uint(n)) - 1

	// Columns needed above the base level: the select list, every column
	// referenced by a multi-table conjunct, and any outer columns that
	// correlated subqueries compare against.
	need := map[int]bool{}
	for _, g := range p.bq.selectCols {
		need[g] = true
	}
	for _, c := range p.bq.conjuncts {
		if bits(c.tables) >= 2 {
			for _, g := range expr.ColumnsUsed(c.e) {
				need[g] = true
			}
		}
	}
	for _, g := range p.bq.subqueryOuterCols() {
		need[g] = true
	}

	dp := make(map[uint32]*dpEntry)
	for i, ts := range p.bq.tables {
		e, err := p.accessPath(ts, need)
		if err != nil {
			return nil, err
		}
		p.note(e)
		dp[1<<uint(i)] = e
	}

	// Left-deep enumeration: extend each subset with one base table.
	// Subsets are visited in numeric order so that cost ties always break
	// the same way — plan choice must be deterministic (the virtual clock
	// makes whole experiments reproducible only if plans are).
	for size := 1; size < n; size++ {
		for s := uint32(1); s <= full; s++ {
			left, ok := dp[s]
			if !ok || bits(s) != size {
				continue
			}
			for r := 0; r < n; r++ {
				rm := uint32(1 << uint(r))
				if s&rm != 0 {
					continue
				}
				right := dp[rm]
				cand, err := p.joinCandidates(s, left, rm, right)
				if err != nil {
					return nil, err
				}
				key := s | rm
				for _, c := range cand {
					p.note(c)
					if best, ok := dp[key]; !ok || c.cost < best.cost {
						dp[key] = c
					}
				}
			}
		}
	}

	best, ok := dp[full]
	if !ok {
		return nil, fmt.Errorf("optimizer: no plan found (unsupported join structure)")
	}
	return best, nil
}

// outputPos returns the position of a global column in the final output,
// or -1 (aggregate outputs have no global column).
func (p *planner) outputPos(global int) int {
	if len(p.bq.items) == 0 { // SELECT *
		return global
	}
	for i, it := range p.bq.items {
		if it.agg == "" && it.col == global {
			return i
		}
	}
	return -1
}

// orderLimit applies ORDER BY (a top-level Sort — one more blocking
// segment, handled by the progress indicator like any other) and LIMIT.
func (p *planner) orderLimit(node plan.Node) (plan.Node, error) {
	if len(p.bq.orderBy) > 0 {
		keys := make([]plan.SortKey, len(p.bq.orderBy))
		for i, o := range p.bq.orderBy {
			pos := p.outputPos(o.col)
			if pos < 0 {
				return nil, fmt.Errorf("optimizer: ORDER BY column %s must appear in the select list",
					p.bq.global.Cols[o.col].Name)
			}
			keys[i] = plan.SortKey{Col: pos, Desc: o.desc}
		}
		node = &plan.Sort{Child: node, Keys: keys, OutEst: node.Est()}
	}
	if p.bq.limit != nil {
		n := *p.bq.limit
		card := math.Min(node.Est().Card, float64(n))
		node = &plan.Limit{Child: node, N: n, OutEst: plan.Est{Card: card, Width: node.Est().Width}}
	}
	return node, nil
}

// buildAggregate wraps the join result in a HashAgg and reorders its
// output to the select list.
func (p *planner) buildAggregate(e *dpEntry) (plan.Node, error) {
	bq := p.bq
	// Project the join output to [group columns..., aggregate args...]
	// (bq.selectCols is already deduplicated in that order).
	child, err := p.projectTo(e, bq.selectCols)
	if err != nil {
		return nil, err
	}

	groupPos := make([]int, len(bq.groupBy))
	for i, g := range bq.groupBy {
		groupPos[i] = child.posOf(g)
	}
	var aggs []plan.AggSpec
	var aggItems []boundItem
	for _, it := range bq.items {
		if it.agg == "" {
			continue
		}
		col := -1
		if !it.aggStar {
			col = child.posOf(it.col)
		}
		aggs = append(aggs, plan.AggSpec{Kind: plan.AggKind(it.agg), Col: col})
		aggItems = append(aggItems, it)
	}

	// Estimated group count: product of grouping-column NDVs, capped by
	// the input cardinality (1 for a global aggregate).
	groups := 1.0
	for _, g := range bq.groupBy {
		if cs := bq.colStatsFor(g); cs != nil && cs.NDV > 0 {
			groups *= float64(cs.NDV)
		} else {
			groups *= 100
		}
	}
	groups = math.Min(groups, math.Max(1, child.node.Est().Card))

	// Output schema: group columns then aggregates.
	sch := &tuple.Schema{}
	width := 0.0
	for _, g := range bq.groupBy {
		sch.Cols = append(sch.Cols, bq.global.Cols[g])
		width += bq.colWidth(g)
	}
	for i, sp := range aggs {
		typ := tuple.Float
		switch sp.Kind {
		case plan.AggCount:
			typ = tuple.Int
		case plan.AggMin, plan.AggMax:
			if sp.Col >= 0 {
				typ = child.node.Schema().Cols[sp.Col].Type
			}
		}
		sch.Cols = append(sch.Cols, tuple.Column{Name: aggItems[i].name, Type: typ})
		width += 9
	}

	agg := &plan.HashAgg{
		Child:     child.node,
		GroupCols: groupPos,
		Aggs:      aggs,
		GroupsEst: groups,
		Sch:       sch,
		OutEst:    plan.Est{Card: groups, Width: width},
	}

	// Reorder to the select list: position of each item in agg output.
	keep := make([]int, len(bq.items))
	outSch := &tuple.Schema{Cols: make([]tuple.Column, len(bq.items))}
	identity := true
	aggIdx := 0
	for i, it := range bq.items {
		if it.agg == "" {
			pos := -1
			for gi, g := range bq.groupBy {
				if g == it.col {
					pos = gi
					break
				}
			}
			keep[i] = pos
		} else {
			keep[i] = len(bq.groupBy) + aggIdx
			aggIdx++
		}
		outSch.Cols[i] = sch.Cols[keep[i]]
		if keep[i] != i {
			identity = false
		}
	}
	if identity && len(bq.items) == sch.Arity() {
		return agg, nil
	}
	return &plan.Project{
		Child:  agg,
		Cols:   keep,
		Sch:    outSch,
		OutEst: plan.Est{Card: groups, Width: width},
	}, nil
}

// accessPath builds the best base access for one table, applying its
// single-table predicates and projecting to needed columns.
func (p *planner) accessPath(ts *tableSource, need map[int]bool) (*dpEntry, error) {
	rows := float64(ts.tbl.Heap.Len())
	width := 64.0
	if ts.tbl.Stats != nil {
		rows = float64(ts.tbl.Stats.RowCount)
		width = ts.tbl.Stats.AvgWidth
	}
	cols := make([]int, ts.tbl.Schema.Arity())
	for i := range cols {
		cols[i] = ts.offset + i
	}

	// Single-table conjuncts for this table.
	var preds []*conjunct
	for _, c := range p.bq.conjuncts {
		if c.tables == 1<<uint(ts.idx) {
			preds = append(preds, c)
		}
	}

	// Default: sequential scan.
	scan := &plan.SeqScan{
		Table:  ts.tbl,
		Alias:  ts.binding(),
		OutEst: plan.Est{Card: rows, Width: width},
	}
	// A base input is read once: its bytes, as EvalSegment charges them.
	entry := &dpEntry{node: scan, cols: cols, cost: scan.OutEst.Bytes()}

	// Index-scan alternative: a range or equality predicate on an
	// indexed column, costed with the random-I/O penalty.
	var ranged *conjunct // the predicate the index range enforces
	if !p.opt.DisableIndexScan {
		if alt, c := p.indexPath(ts, preds, cols, rows, width); alt != nil && alt.cost < entry.cost {
			entry, ranged = alt, c
		}
	}

	// Apply filters. The Filter still evaluates the index range's
	// predicate, but the IndexScan's estimate already holds its
	// selectivity, so the Filter's Sel leaves it out: counted twice, it
	// would shrink every estimate above the scan, and EvalSegment's too.
	if len(preds) > 0 {
		terms := make([]expr.Expr, 0, len(preds))
		sel := 1.0
		for _, c := range preds {
			t, err := entry.remap(c.e)
			if err != nil {
				return nil, err
			}
			terms = append(terms, t)
			if c != ranged {
				sel *= p.singleTableSel(ts, c)
			}
		}
		f := &plan.Filter{
			Child: entry.node,
			Pred:  expr.Conjoin(terms),
			Sel:   sel,
			OutEst: plan.Est{
				Card:  entry.node.Est().Card * sel,
				Width: entry.node.Est().Width,
			},
		}
		entry = &dpEntry{node: f, cols: entry.cols, cost: entry.cost}
	}

	return p.project(entry, need), nil
}

// indexPath returns an index-scan entry, and the predicate its range
// enforces, if one of the predicates is a col-op-const range on an
// indexed column.
func (p *planner) indexPath(ts *tableSource, preds []*conjunct, cols []int, rows, width float64) (*dpEntry, *conjunct) {
	for _, c := range preds {
		cmp, ok := c.e.(*expr.Cmp)
		if !ok || expr.ContainsFunc(c.e) {
			continue
		}
		col, cnst, op := matchColConst(cmp)
		if col == nil || cnst.Kind != tuple.Int {
			continue
		}
		ci := col.Index - ts.offset
		if ci < 0 || ci >= ts.tbl.Schema.Arity() {
			continue
		}
		ix := ts.tbl.IndexOn(ts.tbl.Schema.Cols[ci].Name)
		if ix == nil {
			continue
		}
		var lo, hi *int64
		v := cnst.I
		switch op {
		case expr.EQ:
			lo, hi = &v, &v
		case expr.LT:
			if v == math.MinInt64 {
				continue // unsatisfiable: v-1 would wrap to a full scan
			}
			x := v - 1
			hi = &x
		case expr.LE:
			hi = &v
		case expr.GT:
			if v == math.MaxInt64 {
				continue
			}
			x := v + 1
			lo = &x
		case expr.GE:
			lo = &v
		default:
			continue
		}
		var sel float64 = stats.DefaultIneqSel
		if ts.tbl.Stats != nil {
			local, err := expr.Remap(c.e, offsetMap(ts))
			if err == nil {
				sel = stats.PredicateSelectivity(local, ts.tbl.Schema, ts.tbl.Stats)
			}
		}
		scan := &plan.IndexScan{
			Table:  ts.tbl,
			Alias:  ts.binding(),
			Index:  ix,
			Lo:     lo,
			Hi:     hi,
			Sel:    sel,
			OutEst: plan.Est{Card: rows * sel, Width: width},
		}
		// The one cost term that is a choice heuristic and not U (the
		// indicator counts the matching bytes): a random page fetch per
		// matching tuple, so an index wins where it saves time, not bytes.
		cost := rows * sel * storage.PageSize * p.opt.RandFactor
		return &dpEntry{node: scan, cols: cols, cost: cost}, c
	}
	return nil, nil
}

func offsetMap(ts *tableSource) map[int]int {
	m := make(map[int]int, ts.tbl.Schema.Arity())
	for i := 0; i < ts.tbl.Schema.Arity(); i++ {
		m[ts.offset+i] = i
	}
	return m
}

func matchColConst(c *expr.Cmp) (*expr.ColRef, tuple.Value, expr.CmpOp) {
	if col, ok := c.L.(*expr.ColRef); ok {
		if k, ok2 := c.R.(*expr.Const); ok2 {
			return col, k.V, c.Op
		}
	}
	if col, ok := c.R.(*expr.ColRef); ok {
		if k, ok2 := c.L.(*expr.Const); ok2 {
			op := c.Op
			switch c.Op {
			case expr.LT:
				op = expr.GT
			case expr.LE:
				op = expr.GE
			case expr.GT:
				op = expr.LT
			case expr.GE:
				op = expr.LE
			}
			return col, k.V, op
		}
	}
	return nil, tuple.Value{}, 0
}

// singleTableSel estimates a single-table conjunct's selectivity.
func (p *planner) singleTableSel(ts *tableSource, c *conjunct) float64 {
	local, err := expr.Remap(c.e, offsetMap(ts))
	if err != nil {
		return stats.DefaultIneqSel
	}
	var tstats *stats.TableStats
	if ts.tbl.Stats != nil {
		tstats = ts.tbl.Stats
	}
	return stats.PredicateSelectivity(local, ts.tbl.Schema, tstats)
}

// joinSel estimates the selectivity of a multi-table conjunct.
func (p *planner) joinSel(c *conjunct) float64 {
	if expr.ContainsFunc(c.e) {
		return stats.DefaultFuncSel
	}
	cmp, ok := c.e.(*expr.Cmp)
	if !ok {
		return stats.DefaultIneqSel
	}
	lc, lok := cmp.L.(*expr.ColRef)
	rc, rok := cmp.R.(*expr.ColRef)
	if !lok || !rok {
		return stats.DefaultIneqSel
	}
	return stats.JoinSelectivity(cmp.Op, p.bq.colStatsFor(lc.Index), p.bq.colStatsFor(rc.Index))
}

// project narrows an entry to needed columns (keeping entry order). Never
// drops everything: if no column is needed (SELECT count-free cross
// products do not occur in this dialect) the entry is returned unchanged.
func (p *planner) project(e *dpEntry, need map[int]bool) *dpEntry {
	var keep []int
	for pos, g := range e.cols {
		if need[g] {
			keep = append(keep, pos)
		}
	}
	if len(keep) == 0 || len(keep) == len(e.cols) {
		return e
	}
	newCols := make([]int, len(keep))
	sch := &tuple.Schema{Cols: make([]tuple.Column, len(keep))}
	width := 0.0
	for i, pos := range keep {
		newCols[i] = e.cols[pos]
		sch.Cols[i] = tuple.Column{Name: p.bq.global.Cols[e.cols[pos]].Name, Type: p.bq.global.Cols[e.cols[pos]].Type}
		width += p.bq.colWidth(e.cols[pos])
	}
	proj := &plan.Project{
		Child:  e.node,
		Cols:   keep,
		Sch:    sch,
		OutEst: plan.Est{Card: e.node.Est().Card, Width: width},
	}
	return &dpEntry{node: proj, cols: newCols, cost: e.cost}
}

// joinCandidates builds all legal joins of left (covering subset s) with
// the single table entry right (mask rm).
func (p *planner) joinCandidates(s uint32, left *dpEntry, rm uint32, right *dpEntry) ([]*dpEntry, error) {
	// Conjuncts newly applicable at this join.
	var applied []*conjunct
	for _, c := range p.bq.conjuncts {
		if bits(c.tables) < 2 && c.tables != 0 {
			continue // single-table, applied at base
		}
		if c.tables&^(s|rm) != 0 {
			continue // references tables outside this subset
		}
		if c.tables&s == 0 || c.tables&rm == 0 {
			continue // does not connect left and right
		}
		applied = append(applied, c)
	}

	selProduct := 1.0
	for _, c := range applied {
		selProduct *= p.joinSel(c)
	}

	// Locate an equijoin predicate usable by hash/merge join.
	var eqConj *conjunct
	eqL, eqR := -1, -1 // global column indexes, eqL on left side
	for _, c := range applied {
		l, r, ok := expr.EquiJoinCols(c.e)
		if !ok {
			continue
		}
		switch {
		case left.posOf(l) >= 0 && right.posOf(r) >= 0:
			eqConj, eqL, eqR = c, l, r
		case left.posOf(r) >= 0 && right.posOf(l) >= 0:
			eqConj, eqL, eqR = c, r, l
		}
		if eqConj != nil {
			break
		}
	}

	outCard := selProduct * left.node.Est().Card * right.node.Est().Card
	algo := p.opt.ForceJoinAlgo

	var out []*dpEntry
	add := func(e *dpEntry, err error) error {
		if err != nil {
			return err
		}
		if e != nil {
			out = append(out, p.project(e, p.upstreamNeed(s|rm)))
		}
		return nil
	}

	if eqConj != nil && (algo == "" || algo == "hash") {
		// Left-deep convention (and the shape of the paper's Figure 8):
		// the accumulated side is hashed (build), the new base relation
		// streams as the probe. Orders that want the new relation hashed
		// are reachable by enumerating it earlier in the join order.
		if err := add(p.hashJoin(left, right, eqConj, eqL, eqR, applied, outCard)); err != nil {
			return nil, err
		}
	}
	if eqConj != nil && (algo == "" || algo == "merge") {
		if err := add(p.mergeJoin(left, right, eqConj, eqL, eqR, applied, outCard)); err != nil {
			return nil, err
		}
	}
	if algo == "" || algo == "nl" || len(out) == 0 {
		if err := add(p.nlJoin(left, right, applied, selProduct, outCard)); err != nil {
			return nil, err
		}
		if err := add(p.nlJoin(right, left, applied, selProduct, outCard)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// upstreamNeed is the set of columns needed above a subset: select-list
// columns plus columns of conjuncts not yet fully applied.
func (p *planner) upstreamNeed(covered uint32) map[int]bool {
	need := map[int]bool{}
	for _, g := range p.bq.selectCols {
		need[g] = true
	}
	for _, c := range p.bq.conjuncts {
		if c.tables&^covered != 0 { // not yet applied
			for _, g := range expr.ColumnsUsed(c.e) {
				need[g] = true
			}
		}
	}
	for _, g := range p.bq.subqueryOuterCols() {
		need[g] = true
	}
	return need
}

// concatEntry builds the joined entry metadata: schema = a ++ b.
func concatEntry(bq *boundQuery, a, b *dpEntry) (cols []int, sch *tuple.Schema) {
	cols = append(append([]int{}, a.cols...), b.cols...)
	sch = a.node.Schema().Concat(b.node.Schema())
	// Rename to global names for readability.
	out := &tuple.Schema{Cols: make([]tuple.Column, len(cols))}
	for i, g := range cols {
		out.Cols[i] = tuple.Column{Name: bq.global.Cols[g].Name, Type: sch.Cols[i].Type}
	}
	return cols, out
}

func remapOverConcat(cols []int, x expr.Expr) (expr.Expr, error) {
	m := make(map[int]int, len(cols))
	for i, g := range cols {
		m[g] = i
	}
	return expr.Remap(x, m)
}

func (p *planner) widthOf(cols []int) float64 {
	w := 0.0
	for _, g := range cols {
		w += p.bq.colWidth(g)
	}
	return w
}

func (p *planner) hashJoin(build, probe *dpEntry, eq *conjunct, eqBuildCol, eqProbeCol int, applied []*conjunct, outCard float64) (*dpEntry, error) {
	cols, sch := concatEntry(p.bq, build, probe)
	var extras []expr.Expr
	for _, c := range applied {
		if c == eq {
			continue
		}
		e, err := remapOverConcat(cols, c.e)
		if err != nil {
			return nil, err
		}
		extras = append(extras, e)
	}
	sel := outCard / math.Max(1, build.node.Est().Card*probe.node.Est().Card)
	buildBytes := build.node.Est().Bytes()
	probeBytes := probe.node.Est().Bytes()
	grace := buildBytes > p.opt.workMemBytes()

	buildNode, probeNode := build.node, probe.node
	buildKey, probeKey := build.posOf(eqBuildCol), probe.posOf(eqProbeCol)
	if grace {
		// Both sides are hash-partitioned to disk first (the paper's
		// Figure 3/8 shape on a machine whose work_mem cannot hold the
		// build side).
		buildNode = &plan.Partition{Child: build.node, Key: buildKey, OutEst: build.node.Est()}
		probeNode = &plan.Partition{Child: probe.node, Key: probeKey, OutEst: probe.node.Est()}
	}
	j := &plan.HashJoin{
		Build:     buildNode,
		Probe:     probeNode,
		Grace:     grace,
		BuildKey:  buildKey,
		ProbeKey:  probeKey,
		ExtraPred: expr.Conjoin(extras),
		Sel:       sel,
		Sch:       sch,
		OutEst:    plan.Est{Card: outCard, Width: p.widthOf(cols)},
	}
	// The hash table is a boundary; under Grace both partition sets are.
	local := segment.BoundaryBytes(buildBytes)
	if grace {
		local += segment.BoundaryBytes(probeBytes)
	}
	return &dpEntry{node: j, cols: cols, cost: build.cost + probe.cost + local}, nil
}

func (p *planner) mergeJoin(left, right *dpEntry, eq *conjunct, eqLeftCol, eqRightCol int, applied []*conjunct, outCard float64) (*dpEntry, error) {
	lSort := &plan.Sort{
		Child:  left.node,
		Keys:   []plan.SortKey{{Col: left.posOf(eqLeftCol)}},
		OutEst: left.node.Est(),
	}
	rSort := &plan.Sort{
		Child:  right.node,
		Keys:   []plan.SortKey{{Col: right.posOf(eqRightCol)}},
		OutEst: right.node.Est(),
	}
	lEntry := &dpEntry{node: lSort, cols: left.cols}
	rEntry := &dpEntry{node: rSort, cols: right.cols}
	cols, sch := concatEntry(p.bq, lEntry, rEntry)
	var extras []expr.Expr
	for _, c := range applied {
		if c == eq {
			continue
		}
		e, err := remapOverConcat(cols, c.e)
		if err != nil {
			return nil, err
		}
		extras = append(extras, e)
	}
	sel := outCard / math.Max(1, left.node.Est().Card*right.node.Est().Card)
	j := &plan.MergeJoin{
		Left:      lSort,
		Right:     rSort,
		LeftKey:   left.posOf(eqLeftCol),
		RightKey:  right.posOf(eqRightCol),
		ExtraPred: expr.Conjoin(extras),
		Sel:       sel,
		Sch:       sch,
		OutEst:    plan.Est{Card: outCard, Width: p.widthOf(cols)},
	}
	// Each side's sorted runs are a boundary, plus any intermediate merges.
	mem := p.opt.workMemBytes()
	lBytes, rBytes := left.node.Est().Bytes(), right.node.Est().Bytes()
	cost := left.cost + right.cost +
		(segment.BoundaryBytes(lBytes) + segment.SortMergeBytes(lBytes, mem)) +
		(segment.BoundaryBytes(rBytes) + segment.SortMergeBytes(rBytes, mem))
	return &dpEntry{node: j, cols: cols, cost: cost}, nil
}

func (p *planner) nlJoin(outer, inner *dpEntry, applied []*conjunct, selProduct, outCard float64) (*dpEntry, error) {
	innerEntry := inner
	innerCost := inner.cost
	// A non-scan inner must be materialized to be rescanned.
	if !isScan(inner.node) {
		m := &plan.Materialize{Child: inner.node, OutEst: inner.node.Est()}
		innerEntry = &dpEntry{node: m, cols: inner.cols}
		innerCost += segment.BoundaryBytes(inner.node.Est().Bytes())
	}
	cols, sch := concatEntry(p.bq, outer, innerEntry)
	var terms []expr.Expr
	for _, c := range applied {
		e, err := remapOverConcat(cols, c.e)
		if err != nil {
			return nil, err
		}
		terms = append(terms, e)
	}
	j := &plan.NLJoin{
		Outer:  outer.node,
		Inner:  innerEntry.node,
		Pred:   expr.Conjoin(terms),
		Sel:    selProduct,
		Sch:    sch,
		OutEst: plan.Est{Card: outCard, Width: p.widthOf(cols)},
	}
	cost := outer.cost + innerCost + segment.RescanBytes(outer.node.Est().Card, innerEntry.node.Est().Bytes())
	return &dpEntry{node: j, cols: cols, cost: cost}, nil
}

func isScan(n plan.Node) bool {
	switch n.(type) {
	case *plan.SeqScan, *plan.IndexScan:
		return true
	default:
		return false
	}
}

// finalize applies the final projection to the select list.
func (p *planner) finalize(e *dpEntry) (plan.Node, error) {
	out, err := p.projectTo(e, p.bq.selectCols)
	if err != nil {
		return nil, err
	}
	return out.node, nil
}

// projectTo narrows an entry to exactly the given global columns, in
// order (identity projections are elided).
func (p *planner) projectTo(e *dpEntry, globals []int) (*dpEntry, error) {
	identity := len(globals) == len(e.cols)
	if identity {
		for i, g := range globals {
			if e.cols[i] != g {
				identity = false
				break
			}
		}
	}
	if identity {
		return e, nil
	}
	keep := make([]int, len(globals))
	sch := &tuple.Schema{Cols: make([]tuple.Column, len(globals))}
	width := 0.0
	for i, g := range globals {
		pos := e.posOf(g)
		if pos < 0 {
			return nil, fmt.Errorf("optimizer: column %s lost during planning", p.bq.global.Cols[g].Name)
		}
		keep[i] = pos
		sch.Cols[i] = p.bq.global.Cols[g]
		width += p.bq.colWidth(g)
	}
	node := &plan.Project{
		Child:  e.node,
		Cols:   keep,
		Sch:    sch,
		OutEst: plan.Est{Card: e.node.Est().Card, Width: width},
	}
	return &dpEntry{node: node, cols: append([]int(nil), globals...), cost: e.cost}, nil
}
