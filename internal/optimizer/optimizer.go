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

// dpEntry is one memoized subplan: the query tables it covers, the
// global column index behind each output position, its output estimate,
// and the choice cost: the subplan's U in bytes, summed from the
// internal/segment calls the indicator re-costs its segments with —
// except under an index scan (see indexPath). Access paths and semi-joins
// carry their plan node from the start. A join candidate is priced from
// its sides' estimates alone and carries only its recipe, step; build
// turns the chosen tree's recipes into nodes.
type dpEntry struct {
	node   plan.Node
	tables uint32
	cols   []int
	est    plan.Est
	cost   float64
	step   joinStep
}

// joinStep is a join candidate's recipe: the algorithm, its two sides in
// the order the plan node takes them (build and probe, left and right,
// outer and inner), and for hash and merge joins the equality predicate
// and its global column on each side.
type joinStep struct {
	algo     joinAlgo
	a, b     *dpEntry
	eq       *conjunct
	eqA, eqB int
	sel      float64 // the applied conjuncts' selectivity product
}

type joinAlgo uint8

const (
	noJoin joinAlgo = iota
	hashAlgo
	mergeAlgo
	nlAlgo
)

// built returns the entry of an already-built node.
func built(node plan.Node, cols []int, cost float64) dpEntry {
	return dpEntry{node: node, cols: cols, est: node.Est(), cost: cost}
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
	// conjCols holds each conjunct's columns, in bq.conjuncts order.
	conjCols [][]int
	// cands is joinCandidates' result buffer, reused for every pair.
	cands []dpEntry
	// priced, nil outside TestCostClosure, sees every entry priced: each
	// access path, join candidate and semi-join, built.
	priced func(*dpEntry)
}

// note hands a priced entry to p.priced, building it first, so that the
// closure test holds every candidate's price to its tree's segment cost.
func (p *planner) note(e *dpEntry) error {
	if p.priced == nil {
		return nil
	}
	if e.node == nil {
		p.settle(e)
		if err := p.build(e); err != nil {
			return err
		}
	}
	p.priced(e)
	return nil
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

// joinDP enumerates left-deep join orders over the query's tables,
// pricing each candidate from its sides' estimates, and returns the
// cheapest full plan entry, built.
func (p *planner) joinDP() (dpEntry, error) {
	n := len(p.bq.tables)
	full := uint32(1<<uint(n)) - 1
	p.conjCols = make([][]int, len(p.bq.conjuncts))

	dp := make([]dpEntry, full+1) // by covered-table mask; tables 0 is unset
	var buf [64]bool
	for i, ts := range p.bq.tables {
		m := uint32(1) << uint(i)
		e, err := p.accessPath(ts, p.upstreamNeed(buf[:], m))
		if err != nil {
			return dpEntry{}, err
		}
		e.tables = m
		dp[m] = e
		if err := p.note(&dp[m]); err != nil {
			return dpEntry{}, err
		}
	}

	// Left-deep enumeration: extend each subset with one base table.
	// Subsets are visited in numeric order so that cost ties always break
	// the same way — plan choice must be deterministic (the virtual clock
	// makes whole experiments reproducible only if plans are).
	for size := 1; size < n; size++ {
		for s := uint32(1); s <= full; s++ {
			left := &dp[s]
			if left.tables == 0 || bits(s) != size {
				continue
			}
			for r := 0; r < n; r++ {
				rm := uint32(1 << uint(r))
				if s&rm != 0 {
					continue
				}
				best := &dp[s|rm]
				cands := p.joinCandidates(left, &dp[rm])
				for i := range cands {
					c := &cands[i]
					if err := p.note(c); err != nil {
						return dpEntry{}, err
					}
					if best.tables == 0 || c.cost < best.cost {
						*best = *c
					}
				}
			}
		}
		// This level's winners are final: give them their columns and
		// widths before the next level prices joins over them.
		for key := range dp {
			if bits(uint32(key)) == size+1 && dp[key].tables != 0 {
				p.settle(&dp[key])
			}
		}
	}

	best := &dp[full]
	if best.tables == 0 {
		return dpEntry{}, fmt.Errorf("optimizer: no plan found (unsupported join structure)")
	}
	if err := p.build(best); err != nil {
		return dpEntry{}, err
	}
	return *best, nil
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
func (p *planner) buildAggregate(e dpEntry) (plan.Node, error) {
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
func (p *planner) accessPath(ts *tableSource, need []bool) (dpEntry, error) {
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
	entry := built(scan, cols, scan.OutEst.Bytes())

	// Index-scan alternative: a range or equality predicate on an
	// indexed column, costed with the random-I/O penalty.
	var ranged *conjunct // the predicate the index range enforces
	if !p.opt.DisableIndexScan {
		if alt, c := p.indexPath(ts, preds, cols, rows, width); c != nil && alt.cost < entry.cost {
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
				return dpEntry{}, err
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
		entry = built(f, entry.cols, entry.cost)
	}

	return p.project(entry, need), nil
}

// indexPath returns an index-scan entry, and the predicate its range
// enforces, if one of the predicates is a col-op-const range on an
// indexed column.
func (p *planner) indexPath(ts *tableSource, preds []*conjunct, cols []int, rows, width float64) (dpEntry, *conjunct) {
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
		return built(scan, cols, cost), c
	}
	return dpEntry{}, nil
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
func (p *planner) project(e dpEntry, need []bool) dpEntry {
	keep := make([]int, 0, len(e.cols))
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
		sch.Cols[i] = p.bq.global.Cols[e.cols[pos]]
		width += p.bq.colWidth(e.cols[pos])
	}
	proj := &plan.Project{
		Child:  e.node,
		Cols:   keep,
		Sch:    sch,
		OutEst: plan.Est{Card: e.node.Est().Card, Width: width},
	}
	return built(proj, newCols, e.cost)
}

// connects reports whether conjunct c is applied at the join of the
// disjoint table sets s and r: it references both and nothing else.
func connects(c *conjunct, s, r uint32) bool {
	return c.tables&^(s|r) == 0 && c.tables&s != 0 && c.tables&r != 0
}

// joinCandidates prices every legal join of left with the single-table
// entry right, from their estimates alone, in the order joinDP compares
// them: hash, merge, nl(left, right), nl(right, left). The result is
// p.cands, valid until the next call.
func (p *planner) joinCandidates(left, right *dpEntry) []dpEntry {
	// The conjuncts newly applicable at this join: their selectivity
	// product, and the first equijoin usable by hash/merge join.
	selProduct := 1.0
	var eqConj *conjunct
	eqL, eqR := -1, -1 // global column indexes, eqL on left side
	for _, c := range p.bq.conjuncts {
		if !connects(c, left.tables, right.tables) {
			continue
		}
		selProduct *= p.joinSel(c)
		if eqConj != nil {
			continue
		}
		if l, r, ok := expr.EquiJoinCols(c.e); ok {
			switch {
			case left.posOf(l) >= 0 && right.posOf(r) >= 0:
				eqConj, eqL, eqR = c, l, r
			case left.posOf(r) >= 0 && right.posOf(l) >= 0:
				eqConj, eqL, eqR = c, r, l
			}
		}
	}

	outCard := selProduct * left.est.Card * right.est.Card
	algo := p.opt.ForceJoinAlgo
	out := p.cands[:0]
	if out == nil {
		out = make([]dpEntry, 0, 4) // hash, merge and the two nested-loops orders
	}
	if eqConj != nil && (algo == "" || algo == "hash") {
		// Left-deep convention (and the shape of the paper's Figure 8):
		// the accumulated side is hashed (build), the new base relation
		// streams as the probe. Orders that want the new relation hashed
		// are reachable by enumerating it earlier in the join order.
		out = append(out, p.hashJoin(left, right, eqConj, eqL, eqR, outCard))
	}
	if eqConj != nil && (algo == "" || algo == "merge") {
		out = append(out, p.mergeJoin(left, right, eqConj, eqL, eqR, outCard))
	}
	if algo == "" || algo == "nl" || len(out) == 0 {
		out = append(out, p.nlJoin(left, right, selProduct, outCard), p.nlJoin(right, left, selProduct, outCard))
	}
	p.cands = out
	return out
}

// upstreamNeed is the set of columns needed above a subset, by global
// index: select-list columns, columns of conjuncts not yet fully applied,
// and the outer columns that correlated subqueries compare against. It
// fills buf when buf is long enough, so that a caller's array keeps it
// off the heap.
func (p *planner) upstreamNeed(buf []bool, covered uint32) []bool {
	var need []bool
	if n := p.bq.global.Arity(); n <= len(buf) {
		need = buf[:n]
		clear(need)
	} else {
		need = make([]bool, n)
	}
	for _, g := range p.bq.selectCols {
		need[g] = true
	}
	for i, c := range p.bq.conjuncts {
		if c.tables&^covered != 0 { // not yet applied
			if p.conjCols[i] == nil {
				p.conjCols[i] = expr.ColumnsUsed(c.e)
			}
			for _, g := range p.conjCols[i] {
				need[g] = true
			}
		}
	}
	for _, s := range p.bq.subqueries {
		for _, c := range s.corr {
			need[c.outerCol] = true
		}
	}
	return need
}

func (p *planner) widthOf(cols []int) float64 {
	w := 0.0
	for _, g := range cols {
		w += p.bq.colWidth(g)
	}
	return w
}

// join is a candidate entry over sides a and b with output cardinality
// card; settle gives it columns and a width.
func join(st joinStep, card, cost float64) dpEntry {
	return dpEntry{tables: st.a.tables | st.b.tables, est: plan.Est{Card: card}, cost: cost, step: st}
}

func (p *planner) hashJoin(build, probe *dpEntry, eq *conjunct, eqBuildCol, eqProbeCol int, outCard float64) dpEntry {
	buildBytes := build.est.Bytes()
	// The hash table is a boundary; under Grace both partition sets are.
	local := segment.BoundaryBytes(buildBytes)
	if buildBytes > p.opt.workMemBytes() {
		local += segment.BoundaryBytes(probe.est.Bytes())
	}
	return join(joinStep{algo: hashAlgo, a: build, b: probe, eq: eq, eqA: eqBuildCol, eqB: eqProbeCol},
		outCard, build.cost+probe.cost+local)
}

func (p *planner) mergeJoin(left, right *dpEntry, eq *conjunct, eqLeftCol, eqRightCol int, outCard float64) dpEntry {
	// Each side's sorted runs are a boundary, plus any intermediate merges.
	mem := p.opt.workMemBytes()
	lBytes, rBytes := left.est.Bytes(), right.est.Bytes()
	cost := left.cost + right.cost +
		(segment.BoundaryBytes(lBytes) + segment.SortMergeBytes(lBytes, mem)) +
		(segment.BoundaryBytes(rBytes) + segment.SortMergeBytes(rBytes, mem))
	return join(joinStep{algo: mergeAlgo, a: left, b: right, eq: eq, eqA: eqLeftCol, eqB: eqRightCol}, outCard, cost)
}

func (p *planner) nlJoin(outer, inner *dpEntry, selProduct, outCard float64) dpEntry {
	innerCost := inner.cost
	// A non-scan inner must be materialized to be rescanned.
	if !isScan(inner.node) {
		innerCost += segment.BoundaryBytes(inner.est.Bytes())
	}
	cost := outer.cost + innerCost + segment.RescanBytes(outer.est.Card, inner.est.Bytes())
	return join(joinStep{algo: nlAlgo, a: outer, b: inner, sel: selProduct}, outCard, cost)
}

// settle gives a join entry the columns that its Project keeps, in join
// order (all of them when upstream needs none), and their width.
func (p *planner) settle(e *dpEntry) {
	a, b := e.step.a.cols, e.step.b.cols
	var buf [64]bool
	need := p.upstreamNeed(buf[:], e.tables)
	e.cols = make([]int, 0, len(a)+len(b))
	for _, cols := range [2][]int{a, b} {
		for _, g := range cols {
			if need[g] {
				e.cols = append(e.cols, g)
			}
		}
	}
	if len(e.cols) == 0 {
		e.cols = append(append(e.cols, a...), b...)
	}
	e.est.Width = p.widthOf(e.cols)
}

// build turns a join entry's recipe into plan nodes, its sides' first:
// the join over the two sides (through a Partition pair, a Sort pair or
// a Materialize as the algorithm needs), with the applied conjuncts
// remapped to the join's schema, and the Project to the columns upstream
// needs. Entries that have a node are left alone.
func (p *planner) build(e *dpEntry) error {
	if e.node != nil {
		return nil
	}
	st := e.step
	if err := p.build(st.a); err != nil {
		return err
	}
	if err := p.build(st.b); err != nil {
		return err
	}
	a, b := st.a, st.b
	cols := append(append(make([]int, 0, len(a.cols)+len(b.cols)), a.cols...), b.cols...)
	sch := &tuple.Schema{Cols: make([]tuple.Column, len(cols))}
	for i, g := range cols {
		sch.Cols[i] = p.bq.global.Cols[g]
	}
	j := dpEntry{cols: cols, cost: e.cost}
	var terms []expr.Expr // every applied conjunct but the hash or merge key
	for _, c := range p.bq.conjuncts {
		if c == st.eq || !connects(c, a.tables, b.tables) {
			continue
		}
		t, err := j.remap(c.e)
		if err != nil {
			return err
		}
		terms = append(terms, t)
	}
	outEst := plan.Est{Card: e.est.Card, Width: p.widthOf(cols)}
	aEst, bEst := a.node.Est(), b.node.Est()
	switch st.algo {
	case hashAlgo:
		buildNode, probeNode := a.node, b.node
		buildKey, probeKey := a.posOf(st.eqA), b.posOf(st.eqB)
		grace := aEst.Bytes() > p.opt.workMemBytes()
		if grace {
			// Both sides are hash-partitioned to disk first (the paper's
			// Figure 3/8 shape on a machine whose work_mem cannot hold the
			// build side).
			buildNode = &plan.Partition{Child: a.node, Key: buildKey, OutEst: aEst}
			probeNode = &plan.Partition{Child: b.node, Key: probeKey, OutEst: bEst}
		}
		j.node = &plan.HashJoin{
			Build:     buildNode,
			Probe:     probeNode,
			Grace:     grace,
			BuildKey:  buildKey,
			ProbeKey:  probeKey,
			ExtraPred: expr.Conjoin(terms),
			Sel:       e.est.Card / math.Max(1, aEst.Card*bEst.Card),
			Sch:       sch,
			OutEst:    outEst,
		}
	case mergeAlgo:
		j.node = &plan.MergeJoin{
			Left:      &plan.Sort{Child: a.node, Keys: []plan.SortKey{{Col: a.posOf(st.eqA)}}, OutEst: aEst},
			Right:     &plan.Sort{Child: b.node, Keys: []plan.SortKey{{Col: b.posOf(st.eqB)}}, OutEst: bEst},
			LeftKey:   a.posOf(st.eqA),
			RightKey:  b.posOf(st.eqB),
			ExtraPred: expr.Conjoin(terms),
			Sel:       e.est.Card / math.Max(1, aEst.Card*bEst.Card),
			Sch:       sch,
			OutEst:    outEst,
		}
	case nlAlgo:
		inner := b.node
		if !isScan(inner) {
			inner = &plan.Materialize{Child: inner, OutEst: bEst}
		}
		j.node = &plan.NLJoin{
			Outer:  a.node,
			Inner:  inner,
			Pred:   expr.Conjoin(terms),
			Sel:    st.sel,
			Sch:    sch,
			OutEst: outEst,
		}
	default:
		return fmt.Errorf("optimizer: entry over tables %b has neither a plan nor a join recipe", e.tables)
	}
	var buf [64]bool
	e.node = p.project(j, p.upstreamNeed(buf[:], e.tables)).node
	return nil
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
func (p *planner) finalize(e dpEntry) (plan.Node, error) {
	out, err := p.projectTo(e, p.bq.selectCols)
	if err != nil {
		return nil, err
	}
	return out.node, nil
}

// projectTo narrows an entry to exactly the given global columns, in
// order (identity projections are elided).
func (p *planner) projectTo(e dpEntry, globals []int) (dpEntry, error) {
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
			return dpEntry{}, fmt.Errorf("optimizer: column %s lost during planning", p.bq.global.Cols[g].Name)
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
	return built(node, append([]int(nil), globals...), e.cost), nil
}
