package progressdb_test

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"progressdb"
	"progressdb/internal/btree"
	"progressdb/internal/fleet"
	"progressdb/internal/optimizer"
	"progressdb/internal/sqlparser"
	"progressdb/internal/tuple"
	"progressdb/internal/workload"
)

// The equivalence harness: a seeded query runs through every distinct plan
// the optimizer can be made to produce — work_mem 2 and 2048 ×
// ForceJoinAlgo × DisableIndexScan, deduplicated by plan text — and
// through a 4-shard fleet. Every run must return the reference rows (the
// cost-based plan at work_mem 2048), keep the indicator's contract and
// leave no leaks; SPJ and semi-join queries must also split exactly,
// Q = (Q AND p) ⊎ (Q AND ¬p), and Q AND p, whose p the optimizer pushes
// into a scan, must equal its unoptimised twin, p in a Filter over the
// whole query. FuzzEquivalence runs any seed.

// The tier-1 seeds are 1..equivSeeds and equivRareSeeds: 260 and 373 draw
// the rarest pairs, 260 and 2615 an index bound past an int64 end, 232 a
// hash aggregate whose Int keys end in the mixed layout. equivRequired is
// every operator × segment kind pair, run-time event and operator × Int
// key layout that 20× as many seeds drew. adv has advPerKey rows to each
// ix key.
const (
	equivSeeds = 200
	advRows    = 2000
	advPerKey  = 50
)

var (
	equivRareSeeds = []int64{232, 260, 373, 2615}
	equivRequired  = strings.Fields(`
	AntiHashSemiJoin×aggregate AntiHashSemiJoin×final AntiHashSemiJoin×sort Filter×aggregate Filter×build
	Filter×final Filter×materialize Filter×partition Filter×sort GraceHashJoin×aggregate GraceHashJoin×build
	GraceHashJoin×final GraceHashJoin×partition GraceHashJoin×sort HashAggregate×aggregate HashJoin×aggregate
	HashJoin×build HashJoin×final HashJoin×partition HashJoin×runtime-spill HashJoin×sort HashPartition×partition
	HashSemiJoin×aggregate HashSemiJoin×final HashSemiJoin×sort IndexScan×aggregate IndexScan×build IndexScan×final
	IndexScan×materialize IndexScan×sort Limit×final Materialize×materialize MergeJoin×aggregate MergeJoin×final
	MergeJoin×sort NestedLoopJoin×aggregate NestedLoopJoin×build NestedLoopJoin×final NestedLoopJoin×sort
	Project×aggregate Project×build Project×final Project×materialize Project×partition Project×sort
	SeqScan×aggregate SeqScan×build SeqScan×final SeqScan×materialize SeqScan×partition SeqScan×sort
	Sort×merge-pass Sort×sort
	AntiHashSemiJoin×direct AntiHashSemiJoin×mixed GraceHashJoin×direct GraceHashJoin×mixed HashAggregate×direct
	HashAggregate×mixed HashJoin×direct HashJoin×mixed HashSemiJoin×direct HashSemiJoin×mixed`)
)

// The adversarial table adv(k, f, s, ix, pad): Int edges around 2^53 and
// at both ends of int64, NaNs and signed zeros, equal strings (one with a
// quote), and an indexed ix, whose wide rows make an equality lookup an
// IndexScan while its runs of equal keys cross btree leaves. The fleet
// partitions it on k.
var (
	edgeInts   = []int64{1<<53 - 1, 1 << 53, 1<<53 + 1, math.MinInt64, math.MaxInt64}
	edgeFloats = []float64{math.NaN(), 0, math.Copysign(0, -1), 1<<53 - 1, 1<<53 + 1}
	advPad     = strings.Repeat("x", 1800)
	advCols    = []progressdb.Column{progressdb.Col("k", progressdb.Int), progressdb.Col("f", progressdb.Float),
		progressdb.Col("s", progressdb.Text), progressdb.Col("ix", progressdb.Int), progressdb.Col("pad", progressdb.Text)}
)

// advRow is row i of adv. Each block of 400 rows holds every Int edge
// twice at its start and every Float edge twice at its middle, so the
// edges spread over ix keys, k values and fleet shards.
func advRow(i int) []interface{} {
	k, f, s := int64(i), float64(i%1000)/2-50, fmt.Sprintf("s%04d", i/2)
	if j := i % 400; j < 2*len(edgeInts) {
		k = edgeInts[j/2]
	} else if j -= 200; j >= 0 && j < 2*len(edgeFloats) {
		f = edgeFloats[j/2]
	}
	if i < 4 {
		s = []string{"", "it's"}[i/2]
	}
	return []interface{}{k, f, s, int64(i / advPerKey), advPad}
}

// The generator's vocabulary: the table behind each alias; the columns
// drawn from each table (never the padding); those with repeated values,
// which GROUP BY draws; the numbers sum and avg draw (not k, whose edges
// would cancel); and the equi-joins.
var (
	genAlias = map[string]string{"c": "customer", "o": "orders", "l": "lineitem", "a": "adv", "b": "adv", "d": "adv"}
	genCols  = map[string][]string{
		"customer": {"custkey", "name", "nationkey", "acctbal", "mktsegment"},
		"orders":   {"orderkey", "custkey", "orderstatus", "totalprice", "shippriority"},
		"lineitem": {"orderkey", "partkey", "quantity", "extendedprice", "discount", "returnflag"},
		"adv":      {"k", "f", "s", "ix"},
	}
	genGroups = map[string][]string{"customer": {"nationkey", "mktsegment"}, "orders": {"orderstatus", "shippriority"},
		"lineitem": {"quantity", "discount", "returnflag"}, "adv": {"f", "s", "ix"}}
	genSums = map[string][]string{"customer": {"nationkey", "acctbal"}, "orders": {"totalprice", "shippriority"},
		"lineitem": {"quantity", "extendedprice", "discount"}, "adv": {"f", "ix"}}
	genEdges = strings.Fields(`c.custkey=o.custkey o.orderkey=l.orderkey c.custkey=a.k l.orderkey=a.ix
		a.k=b.k a.f=b.f a.s=b.s b.k=d.k b.f=d.f b.s=d.s`)
	genOps = []string{"=", "=", "=", "<>", "<", "<=", ">", ">="} // = is the one an IndexScan lookup uses
	negOp  = map[string]string{"=": "<>", "<>": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}
)

// equivFixture holds the two engines by work_mem (2 and 2048), the fleet,
// and the drawn columns' values by table; loadFixture builds it once. keep
// and discard are twins of the 2048 engine that run only the discard
// relation's pair of runs, one each, so every pair starts at the same
// virtual instant on engines in the same state.
type equivFixture struct {
	dbs           map[int]*progressdb.DB
	keep, discard *progressdb.DB
	fleet         *fleet.Fleet
	vals          map[string][][]interface{} // table → rows of genCols[table]
}

var loadFixture = sync.OnceValues(func() (*equivFixture, error) {
	fx := &equivFixture{dbs: map[int]*progressdb.DB{}, vals: map[string][][]interface{}{}}
	return fx, fx.build()
})

func (fx *equivFixture) build() (err error) {
	cfg := progressdb.Collecting(progressdb.Config{ProgressUpdateSeconds: 0.02})
	open := func(wm int) *progressdb.DB {
		cfg.WorkMemPages = wm
		db := progressdb.Open(cfg)
		err = errors.Join(err, db.LoadPaperWorkload(0.002, false), db.CreateTable("adv", advCols...))
		for r := range advRows {
			err = errors.Join(err, db.Insert("adv", advRow(r)...))
		}
		err = errors.Join(err, db.CreateIndex("lineitem", "orderkey"), db.CreateIndex("adv", "ix"), db.Analyze())
		return db
	}
	fx.dbs[2], fx.dbs[2048], fx.keep, fx.discard = open(2), open(2048), open(2048), open(2048)
	cfg.WorkMemPages = 0
	if fx.fleet, err = fleet.New(fleet.Config{Shards: 4, Shard: cfg}); err != nil {
		return err
	}
	err = errors.Join(fx.fleet.LoadPaperWorkload(0.002, false), fx.fleet.CreateTable("adv", "k", advCols...))
	for r := range advRows {
		err = errors.Join(err, fx.fleet.Insert("adv", advRow(r)...))
	}
	err = errors.Join(err, fx.fleet.Analyze())
	for table, cols := range genCols {
		res, e := fx.dbs[2048].Exec("select "+strings.Join(cols, ", ")+" from "+table, nil)
		if err = errors.Join(err, e); err != nil {
			return err
		}
		fx.vals[table] = res.Rows
	}
	return nil
}

// constant draws a literal for column ci of table: a value the column
// holds, or an edge of its type; for adv.ix, a key whose run of equal keys
// straddles two btree leaves (a bulk load fills leaves 9/10 full).
func (fx *equivFixture) constant(r *rand.Rand, table string, ci int) sqlparser.Expr {
	switch v := fx.vals[table][r.Intn(len(fx.vals[table]))][ci].(type) {
	case int64:
		if r.Intn(5) == 0 {
			v = edgeInts[r.Intn(len(edgeInts))]
		} else if genCols[table][ci] == "ix" {
			leaf := btree.MaxLeafEntries * 9 / 10
			v = int64(leaf * (1 + r.Intn((advRows-1)/leaf)) / advPerKey)
		}
		return sqlparser.IntLit{V: v}
	case float64:
		if r.Intn(5) == 0 {
			v = edgeFloats[r.Intn(len(edgeFloats))]
		}
		if math.IsNaN(v) { // SQL has no NaN literal
			v = math.Copysign(0, -1)
		}
		return sqlparser.FloatLit{V: v}
	default:
		return sqlparser.StrLit{V: v.(string)}
	}
}

// filter draws `alias.col op const` or `absolute(alias.col) op const`.
func (fx *equivFixture) filter(r *rand.Rand, alias, table string) sqlparser.Comparison {
	ci := r.Intn(len(genCols[table]))
	k := fx.constant(r, table, ci)
	var l sqlparser.Expr = sqlparser.ColumnRef{Qualifier: alias, Column: genCols[table][ci]}
	if _, str := k.(sqlparser.StrLit); !str && r.Intn(4) == 0 {
		l = sqlparser.FuncCall{Name: "absolute", Args: []sqlparser.Expr{l}}
	}
	return sqlparser.Comparison{Op: genOps[r.Intn(len(genOps))], L: l, R: k}
}

func and(a, b sqlparser.Expr) sqlparser.Expr {
	if a == nil {
		return b
	}
	return sqlparser.AndExpr{L: a, R: b}
}

// joins lists the genEdges from an alias in from, as (near, far) column
// pairs: to any alias (all), or only to one not yet in from (!all).
func joins(from []string, all bool) (out [][2]sqlparser.ColumnRef) {
	for _, e := range genEdges {
		l, r, _ := strings.Cut(e, "=")
		for _, xy := range [][2]string{{l, r}, {r, l}} {
			x, xc, _ := strings.Cut(xy[0], ".")
			y, yc, _ := strings.Cut(xy[1], ".")
			if slices.Contains(from, x) && (all || !slices.Contains(from, y)) {
				out = append(out, [2]sqlparser.ColumnRef{{Qualifier: x, Column: xc}, {Qualifier: y, Column: yc}})
			}
		}
	}
	return out
}

// genQuery draws one query: 1–3 tables joined along genEdges, 0–2
// filters, sometimes a [NOT] EXISTS semi-join, then a GROUP BY, a SELECT *
// or a projection, and ORDER BY with an optional LIMIT.
func (fx *equivFixture) genQuery(r *rand.Rand) *sqlparser.SelectStmt {
	st := &sqlparser.SelectStmt{}
	from := []string{[]string{"c", "o", "l", "a", "a", "a"}[r.Intn(6)]}
	for n := r.Intn(3); n > 0; n-- {
		js := joins(from, false)
		j := js[r.Intn(len(js))]
		from = append(from, j[1].Qualifier)
		st.Where = and(st.Where, sqlparser.Comparison{Op: "=", L: j[0], R: j[1]})
	}
	for _, x := range from {
		st.From = append(st.From, sqlparser.TableRef{Table: genAlias[x], Alias: x})
	}
	for n := r.Intn(3); n > 0; n-- {
		x := from[r.Intn(len(from))]
		st.Where = and(st.Where, fx.filter(r, x, genAlias[x]))
	}
	if r.Intn(4) == 0 { // the subquery reads a join's far table as x
		js := joins(from, true)
		j := js[r.Intn(len(js))]
		table := genAlias[j[1].Qualifier]
		j[1].Qualifier = "x"
		sub := &sqlparser.SelectStmt{Star: true, From: []sqlparser.TableRef{{Table: table, Alias: "x"}}, Where: sqlparser.Comparison{Op: "=", L: j[1], R: j[0]}}
		if r.Intn(2) == 0 {
			sub.Where = and(sub.Where, fx.filter(r, "x", sub.From[0].Table))
		}
		st.Where = and(st.Where, sqlparser.ExistsExpr{Not: r.Intn(2) == 0, Sub: sub})
	}
	pick := func(cols map[string][]string) sqlparser.ColumnRef {
		x := from[r.Intn(len(from))]
		c := cols[genAlias[x]]
		return sqlparser.ColumnRef{Qualifier: x, Column: c[r.Intn(len(c))]}
	}
	var keys []sqlparser.ColumnRef // what ORDER BY may name
	switch mode := r.Intn(8); {
	case mode < 4:
		for n := []int{0, 1, 1, 2}[r.Intn(4)]; n > 0; n-- {
			if c := pick(genGroups); len(st.GroupBy) == 0 || st.GroupBy[0] != c {
				st.GroupBy = append(st.GroupBy, c)
				st.Items = append(st.Items, sqlparser.SelectItem{Col: c})
			}
		}
		keys = st.GroupBy
		for n := 1 + r.Intn(3); n > 0; n-- {
			it := sqlparser.SelectItem{Agg: []string{"count", "min", "max", "sum", "avg"}[r.Intn(5)], Col: pick(genCols)}
			if it.Agg == "sum" || it.Agg == "avg" {
				it.Col = pick(genSums)
			} else if it.Agg == "count" && r.Intn(2) == 0 {
				it = sqlparser.SelectItem{Agg: "count", AggStar: true}
			}
			st.Items = append(st.Items, it)
		}
	case mode < 5 && !slices.Contains(from, "a"): // no padding in the output
		st.Star = true
		keys = []sqlparser.ColumnRef{pick(genCols), pick(genCols), pick(genCols)}
	default:
		for n := 1 + r.Intn(4); n > 0; n-- {
			keys = append(keys, pick(genCols))
			st.Items = append(st.Items, sqlparser.SelectItem{Col: keys[len(keys)-1]})
		}
	}
	if len(keys) > 0 && r.Intn(5) < 2 {
		for n := 1 + r.Intn(2); n > 0; n-- {
			st.OrderBy = append(st.OrderBy, sqlparser.OrderItem{Col: keys[r.Intn(len(keys))], Desc: r.Intn(2) == 0})
		}
		if r.Intn(2) == 0 {
			n := int64(1 + r.Intn(40))
			st.Limit = &n
		}
	}
	return st
}

// appendCell renders one result cell onto b; floats that Compare calls
// equal (−0 and +0, any two NaNs) render alike through Canonical.
func appendCell(b []byte, v interface{}) []byte {
	switch x := v.(type) {
	case float64:
		return strconv.AppendFloat(append(b, 'f'), tuple.NewFloat(x).Canonical().F(), 'g', -1, 64)
	case int64:
		return strconv.AppendInt(append(b, 'i'), x, 10)
	}
	return append(append(b, 's'), v.(string)...)
}

func cell(v interface{}) string { return string(appendCell(nil, v)) }

// sameRows reports how got differs from want. Column names must match;
// sum and avg cells must agree within 1e-9 relative (summation order
// differs between join algorithms and between shards), every other cell
// exactly. ORDER BY keys must match position by position, and without a
// LIMIT the rows as multisets.
func sameRows(st *sqlparser.SelectStmt, cols []string, want [][]interface{}, gotCols []string, got [][]interface{}) error {
	if !slices.Equal(cols, gotCols) || len(want) != len(got) {
		return fmt.Errorf("columns %v and %d rows, want %v and %d", gotCols, len(got), cols, len(want))
	}
	for _, o := range st.OrderBy { // a one-table SELECT * names its columns bare
		k := slices.IndexFunc(cols, func(c string) bool { return c == o.Col.String() || c == o.Col.Column })
		for i := range want {
			if cell(want[i][k]) != cell(got[i][k]) {
				return fmt.Errorf("row %d: ORDER BY %s is %v, want %v", i, o.Col, got[i][k], want[i][k])
			}
		}
	}
	if st.Limit != nil {
		return nil
	}
	approx := make([]bool, len(cols))
	for i, it := range st.Items {
		approx[i] = it.Agg == "sum" || it.Agg == "avg"
	}
	key := func(row []interface{}) string {
		var k []byte
		for j, v := range row {
			if !approx[j] {
				k = append(appendCell(k, v), 0)
			}
		}
		return string(k)
	}
	left := map[string][][]interface{}{} // want's rows by their exact cells
	for _, row := range want {
		left[key(row)] = append(left[key(row)], row)
	}
	for _, row := range got {
		k := key(row)
		ws := left[k]
		if len(ws) == 0 {
			return fmt.Errorf("row %v is not among the reference rows", row)
		}
		left[k] = ws[1:]
		for j, a := range approx {
			if x, y := ws[0][j], row[j]; a && cell(x) != cell(y) &&
				!(math.Abs(x.(float64)-y.(float64)) <= 1e-9*math.Max(1, math.Abs(x.(float64)))) {
				return fmt.Errorf("row %v: %s is %v, want %v", ws[0], st.Items[j], y, x)
			}
		}
	}
	return nil
}

// sameButRows reports how a discarding run of a query differs from its
// keep-rows run in anything but keeping the rows: the count, the virtual
// time, every report and the plan report (every segment, and every
// operator's rows, loops, U, times and notes) must be equal.
func sameButRows(keep, disc *progressdb.Result) error {
	if disc.Rows != nil || disc.RowCount() != keep.RowCount() {
		return fmt.Errorf("kept %d rows and counted %d, want none kept and %d counted", len(disc.Rows), disc.RowCount(), keep.RowCount())
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"columns", disc.Columns, keep.Columns},
		{"virtual seconds", disc.VirtualSeconds, keep.VirtualSeconds},
		{"history", disc.History, keep.History},
		{"plan report", disc.Plan, keep.Plan},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			return fmt.Errorf("not keeping the rows changed the %s:\n%v\nwant\n%v", c.what, c.got, c.want)
		}
	}
	return nil
}

// equivStats is what a set of seeds drew.
type equivStats struct {
	pairs                          map[string]int
	fleet, unsupported, nls, twins int
}

// labelOps maps the first word of an operator's plan label to the kind
// the executor counts it as.
var labelOps = map[string]string{
	"SeqScan": "seqscan", "IndexScan": "indexscan", "Filter": "filter", "Project": "project",
	"HashJoin": "hashjoin", "GraceHashJoin": "gracehashjoin", "HashPartition": "partition",
	"NestedLoopJoin": "nljoin", "MergeJoin": "mergejoin", "HashSemiJoin": "semijoin",
	"NestedLoopSemiJoin": "semijoin", "AntiHashSemiJoin": "semijoin", "AntiNestedLoopSemiJoin": "semijoin",
	"Sort": "sort", "Materialize": "materialize", "HashAggregate": "hashagg", "Limit": "limit",
}

// draw records a run's operator × segment-kind pairs from its plan report,
// and from the operators' notes a hash join spilled at run time, an
// external sort's merge pass and the layouts an operator's Int key tables
// ended in (HashJoin×direct, GraceHashJoin×mixed, ...). It fails when an
// operator's kind, which the build wrote at its slot's index, is not the
// kind of the plan node the pre-order walk labeled it with: the slots and
// the walk disagree on the order.
func (s *equivStats) draw(res *progressdb.Result) error {
	for i, op := range res.Plan.Operators {
		name := strings.Fields(op.Label)[0]
		if labelOps[name] != op.Op.String() {
			return fmt.Errorf("operator %d: the build made it a %s, the plan walk labels it %q", i, op.Op, op.Label)
		}
		s.pairs[name+"×"+res.Plan.Segments[op.Segment].Kind.String()]++
		for _, note := range op.Notes {
			switch {
			case strings.HasPrefix(note, "build exceeded work_mem"):
				s.pairs["HashJoin×runtime-spill"]++
			case strings.HasPrefix(note, "intermediate merge"):
				s.pairs["Sort×merge-pass"]++
			case strings.HasPrefix(note, "int keys: "):
				for _, layout := range intKeyLayouts(note) {
					s.pairs[name+"×"+layout]++
				}
			}
		}
	}
	return nil
}

// intKeyLayouts reads the layouts an Int key table note names: "int keys:
// direct window", "int keys: mixed hash", or a Grace join's "int keys:
// direct window in d of n partitions".
func intKeyLayouts(note string) (layouts []string) {
	var direct, tables int
	if _, err := fmt.Sscanf(note, "int keys: direct window in %d of %d partitions", &direct, &tables); err != nil {
		direct, tables = 0, 1
		if strings.HasSuffix(note, "direct window") {
			direct = 1
		}
	}
	if direct > 0 {
		layouts = append(layouts, "direct")
	}
	if direct < tables {
		layouts = append(layouts, "mixed")
	}
	return layouts
}

// equivSeed runs seed's query through the matrix, the fleet and the partitioning relation.
func equivSeed(t *testing.T, seed int64, s *equivStats) {
	fx, err := loadFixture()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	st := fx.genQuery(r)
	sql := st.String()
	if again, err := sqlparser.Parse(sql); err != nil || again.String() != sql {
		t.Fatalf("seed %d: %s does not parse back to itself: %v", seed, sql, err)
	}
	product := 1.0
	for _, tr := range st.From {
		product *= float64(len(fx.vals[tr.Table]))
	}
	seen := map[string]bool{}
	// run executes sql at work_mem wm under opt — unless that engine ran the
	// plan already or it forces NL over > 10^6 base-row pairs — and checks all but rows.
	run := func(wm int, sql string, opt optimizer.Options) (*progressdb.Result, string) {
		res, text, err := fx.dbs[wm].ExecPlan(sql, opt, func(text string) bool {
			again := seen[fmt.Sprint(wm, text)]
			seen[fmt.Sprint(wm, text)] = true
			if !again && opt.ForceJoinAlgo == "nl" && product > 1e6 {
				s.nls++
				return false
			}
			return !again
		})
		if err == nil && res != nil {
			err = errors.Join(s.draw(res), progressdb.CheckReports(res.History, true, res.Plan.Segments))
		}
		if err = errors.Join(err, fx.dbs[wm].CheckLeaks()); err != nil {
			t.Errorf("seed %d: %s\nwork_mem %d %+v: %v\n%s", seed, sql, wm, opt, err, text)
			return nil, text
		}
		return res, text
	}
	ref, refPlan := run(2048, sql, optimizer.Options{})
	if ref == nil {
		return
	}
	keep, err := fx.keep.Exec(sql, nil)
	disc, derr := fx.discard.ExecDiscard(sql, nil)
	if err = errors.Join(err, derr); err == nil {
		err = sameButRows(keep, disc)
	}
	if err = errors.Join(err, fx.keep.CheckLeaks(), fx.discard.CheckLeaks()); err != nil {
		t.Errorf("seed %d: %s\ndiscard path: %v", seed, sql, err)
	}
	check := func(what, text string, cols []string, rows [][]interface{}) {
		if err := sameRows(st, ref.Columns, ref.Rows, cols, rows); err != nil {
			t.Errorf("seed %d: %s\n%s: %v\nreference plan:\n%s%s plan:\n%s", seed, sql, what, err, refPlan, what, text)
		}
	}
	for i := range 16 { // work_mem × ForceJoinAlgo × DisableIndexScan
		opt := optimizer.Options{ForceJoinAlgo: []string{"", "hash", "nl", "merge"}[i/2%4], DisableIndexScan: i%2 == 1}
		wm := []int{2, 2048}[i/8]
		if res, text := run(wm, sql, opt); res != nil {
			check(fmt.Sprintf("work_mem %d %+v", wm, opt), text, res.Columns, res.Rows)
		}
	}
	switch fres, err := fx.fleet.Exec(sql, nil); {
	case errors.Is(err, fleet.ErrUnsupported):
		s.unsupported++
	case err != nil:
		t.Errorf("seed %d: %s\nfleet: %v", seed, sql, err)
	default:
		s.fleet++
		check("fleet", "(4 shards)\n", fres.Columns, fres.Rows)
		reps := make([]progressdb.Report, len(fres.History))
		for i, h := range fres.History {
			reps[i] = h.Report
		}
		if err := errors.Join(progressdb.CheckReports(reps, true, nil), fx.fleet.CheckLeaks()); err != nil {
			t.Errorf("seed %d: %s\nfleet: %v", seed, sql, err)
		}
	}
	if st.Limit != nil || slices.ContainsFunc(st.Items, func(it sqlparser.SelectItem) bool { return it.Agg != "" }) {
		return // the partitioning relation is for SPJ and semi-join queries
	}
	x := st.From[r.Intn(len(st.From))]
	p := fx.filter(r, x.Alias, x.Table)
	var union [][]interface{}
	var pushed *progressdb.Result // Q AND p
	for _, op := range []string{p.Op, negOp[p.Op]} {
		part, pp := *st, p
		pp.Op = op
		part.Where = and(st.Where, pp)
		res, _ := run(2048, part.String(), optimizer.Options{})
		if res == nil {
			return
		}
		pushed = cmp.Or(pushed, res)
		union = append(union, res.Rows...)
	}
	if err := sameRows(&sqlparser.SelectStmt{}, ref.Columns, ref.Rows, ref.Columns, union); err != nil {
		t.Errorf("seed %d: %s\n(Q AND %s) ⊎ (Q AND %s %s %s): %v", seed, sql, p, p.L, negOp[p.Op], p.R, err)
	}
	// The unoptimised twin: p pushed into x's scan ≡ p in a Filter over
	// the whole query.
	unordered := *st
	unordered.OrderBy = nil
	twin, err := fx.dbs[2048].ExecTopFilter(&unordered, p)
	if err == nil {
		s.twins++
		err = sameRows(&sqlparser.SelectStmt{}, pushed.Columns, pushed.Rows, twin.Columns, twin.Rows)
	}
	if err = errors.Join(err, fx.dbs[2048].CheckLeaks()); err != nil {
		t.Errorf("seed %d: %s\nQ AND %s, with %s in a top Filter: %v", seed, sql, p, p, err)
	}
}

func TestEquivalence(t *testing.T) {
	s := &equivStats{pairs: map[string]int{}}
	for seed := range int64(equivSeeds) {
		equivSeed(t, seed+1, s)
	}
	for _, seed := range equivRareSeeds {
		equivSeed(t, seed, s)
	}
	t.Logf("%d seeds; fleet ran %d, rejected %d; %d forced NL plans skipped; %d top-Filter twins; operator × segment kind: %v",
		equivSeeds+len(equivRareSeeds), s.fleet, s.unsupported, s.nls, s.twins, s.pairs)
	for _, p := range equivRequired {
		if s.pairs[p] == 0 {
			t.Errorf("the tier-1 seeds never drew %s", p)
		}
	}
	if s.fleet < 15 {
		t.Errorf("only %d queries ran on the fleet, want at least 15", s.fleet)
	}
	if s.twins < 50 {
		t.Errorf("only %d queries ran their top-Filter twin, want at least 50", s.twins)
	}
}

// TestDiscardMatchesKeepOnBenchmarkStatements holds the discard relation
// on the benchmark's statements — the paper's Q1–Q4, a sort, a small and a
// large aggregate, a semi-join — and its progress-only scan of
// customer_subset1, whose strings all differ, on twin engines that spill
// (work_mem 16) and that do not (2048). Q5 is left out: its nine million
// rows cannot be kept. So are the two indexed lookups, which need indexes
// these engines do not build.
func TestDiscardMatchesKeepOnBenchmarkStatements(t *testing.T) {
	var stmts []string
	for _, st := range workload.BenchStatements {
		if st.Name != "q5" && st.Name != "point" && st.Name != "orders" {
			stmts = append(stmts, st.SQL)
		}
	}
	for _, wm := range []int{16, 2048} {
		open := func() *progressdb.DB {
			db := progressdb.Open(progressdb.Collecting(progressdb.Config{WorkMemPages: wm, ProgressUpdateSeconds: 0.02}))
			if err := db.LoadPaperWorkload(0.002, false); err != nil {
				t.Fatal(err)
			}
			return db
		}
		keep, discard := open(), open()
		for _, sql := range stmts {
			kept, err := keep.Exec(sql, nil)
			disc, derr := discard.ExecDiscard(sql, nil)
			if err = errors.Join(err, derr); err == nil {
				err = sameButRows(kept, disc)
			}
			if err != nil {
				t.Fatalf("work_mem %d: %s\ndiscard path: %v", wm, sql, err)
			}
			if kept.RowCount() == 0 {
				t.Fatalf("work_mem %d: %s returned no rows", wm, sql)
			}
		}
	}
}

// TestDiscardedScanAllocationsFlat: a discarded SELECT * reads none of the
// scan's columns, so a table whose strings all differ costs no allocation
// per row.
func TestDiscardedScanAllocationsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		db := progressdb.Open(progressdb.Config{ProgressUpdateSeconds: 1e9})
		db.MustCreateTable("t", progressdb.Col("k", progressdb.Int), progressdb.Col("s", progressdb.Text))
		for i := range n {
			db.MustInsert("t", int64(i), fmt.Sprintf("row-%06d", i))
		}
		if err := db.Analyze(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := db.ExecDiscard("select * from t", nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Equal but for the few that -race's sync.Pool drops at random; a
	// decoded string column costs 1 500 more here.
	if a1, a4 := allocs(500), allocs(2000); a4 > a1+4 {
		t.Fatalf("a discarded scan allocated %.0f times over 500 rows and %.0f over 2000", a1, a4)
	}
}

func FuzzEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) { equivSeed(t, seed, &equivStats{pairs: map[string]int{}}) })
}
