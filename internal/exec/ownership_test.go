package exec

import (
	"slices"
	"strings"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/expr"
	"progressdb/internal/optimizer"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
	"progressdb/internal/workload"
)

// poisonIter enforces the row-ownership contract from the consumer's
// side: the tuple an operator hands out is the operator's again at its
// next Next or Close. The wrapper hands up a copy of each row and, before
// forwarding either call, overwrites every Value of the copy it handed
// out last. A consumer that kept that tuple without copying it then reads
// poison, and the query's result changes. It is the copy that is
// scribbled on, never the producer's slot: a producer's slot is its own
// (nlJoin relies on the outer half of its slot staying as written), and a
// consumer may not write to a row it was handed.
type poisonIter struct {
	inner Iterator
	last  tuple.Tuple
}

var poison = tuple.NewString("\x00poisoned")

func (p *poisonIter) scribble() {
	for i := range p.last {
		p.last[i] = poison
	}
	p.last = nil
}

func (p *poisonIter) Open() error { return p.inner.Open() }

func (p *poisonIter) Next() (tuple.Tuple, bool, error) {
	p.scribble()
	t, ok, err := p.inner.Next()
	if ok {
		t = t.Clone()
		p.last = t
	}
	return t, ok, err
}

func (p *poisonIter) Close() error {
	p.scribble()
	return p.inner.Close()
}

// lastRowBytes keeps the wrapper transparent to statsIter.
func (p *poisonIter) lastRowBytes() int {
	if rs, ok := p.inner.(rowSizer); ok {
		return rs.lastRowBytes()
	}
	return p.last.EncodedSize()
}

// execRows runs p and returns its rows rendered in output order. With
// poisoned set, a poisonIter sits under every operator and under Run.
func execRows(t *testing.T, cat *catalog.Catalog, clock *vclock.Clock, p plan.Node,
	workMem int, rep segment.WorkReporter, poisoned bool) []string {
	t.Helper()
	env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: workMem, Reporter: rep,
		Decomp: segment.Decompose(p, workMem)}
	if poisoned {
		env.wrap = func(it Iterator) Iterator { return &poisonIter{inner: it} }
	}
	var rows []string
	if _, err := Run(env, p, func(tp tuple.Tuple) error {
		rows = append(rows, tp.String())
		return nil
	}); err != nil {
		t.Fatalf("Run (poisoned=%v): %v\n%s", poisoned, err, plan.Format(p))
	}
	return rows
}

// execChecked runs p for its rows (in output order), then again with
// every handed-out tuple poisoned, and requires the same rows in the same
// order. runSQL and runAlgo go through it, so every query the package's
// tests run — spills, Grace, external sorts and merge joins included —
// also checks that no operator keeps a row it does not own.
func execChecked(t *testing.T, cat *catalog.Catalog, clock *vclock.Clock, p plan.Node,
	workMem int, rep segment.WorkReporter) []string {
	t.Helper()
	rows := execRows(t, cat, clock, p, workMem, rep, false)
	got := execRows(t, cat, clock, p, workMem, nil, true)
	if len(got) != len(rows) {
		t.Fatalf("poisoned run returned %d rows, want %d\n%s", len(got), len(rows), plan.Format(p))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("poisoned run row %d = %s, want %s: an operator kept a row it does not own\n%s",
				i, got[i], rows[i], plan.Format(p))
		}
	}
	return rows
}

// forcedPlans are the plans no runSQL caller reaches: a planned Grace
// join, a sort whose runs need intermediate merge passes, a top-N, a
// keyless semi join, a pruned index scan and a grouped aggregate; then
// the layouts a Project passes down through a merge and a nested-loops
// join that must add their predicate's columns, through a Grace join
// under stacked Projects, and past a repeated column.
var forcedPlans = []struct {
	sql     string
	opt     optimizer.Options
	workMem int
}{
	{`select c.custkey, o.orderkey, l.partkey from customer c, orders o, lineitem l
	  where c.custkey = o.custkey and o.orderkey = l.orderkey`, optimizer.Options{WorkMemPages: 1}, 1},
	{"select orderkey, partkey from lineitem order by partkey", optimizer.Options{WorkMemPages: 1}, 1},
	{"select orderkey, totalprice from orders order by totalprice desc limit 3", optimizer.Options{}, 512},
	{"select c.custkey from customer c where exists (select * from orders o where o.orderkey < c.custkey and o.totalprice > 100)", optimizer.Options{}, 512},
	{"select totalprice from orders where orderkey <= 5 and absolute(custkey) > 0", optimizer.Options{RandFactor: 0.01}, 512},
	{"select nationkey, count(*), min(name), max(custkey) from customer group by nationkey", optimizer.Options{}, 512},
	{"select c.name, o.orderkey from customer c, orders o where c.custkey = o.custkey and o.totalprice > c.nationkey",
		optimizer.Options{ForceJoinAlgo: "merge"}, 512},
	{"select c.name, o.orderkey from customer c, orders o where c.custkey = o.custkey and o.totalprice > c.nationkey",
		optimizer.Options{ForceJoinAlgo: "nl"}, 512},
	{`select l.partkey, c.custkey, o.orderkey from customer c, orders o, lineitem l
	  where c.custkey = o.custkey and o.orderkey = l.orderkey`, optimizer.Options{ForceJoinAlgo: "hash", WorkMemPages: 1}, 1},
	{"select custkey, custkey from customer where nationkey < 10", optimizer.Options{}, 512},
}

func TestOwnershipContractOnForcedPlans(t *testing.T) {
	cat, clock := testDB(t)
	orders, _ := cat.Table("orders")
	if _, err := cat.CreateIndex(orders, "orderkey"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range forcedPlans {
		stmt, err := sqlparser.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := optimizer.Plan(cat, stmt, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if rows := execChecked(t, cat, clock, p, tc.workMem, nil); len(rows) == 0 {
			t.Fatalf("%q returned no rows", tc.sql)
		}
	}
}

// A Project hands up its child's row without copying it, except over an
// operator that keeps whole rows — HashAgg, Sort, Limit, Materialize or
// SemiJoin, seen through any Filters — or when it repeats a column. That
// holds for every Project of the benchmark's nine statements, spilling
// and not, and of the forced plans, with a sink above the root and
// without one.
func TestProjectsDoNotCopy(t *testing.T) {
	type built struct {
		name    string
		cat     *catalog.Catalog
		clock   *vclock.Clock
		p       plan.Node
		workMem int
	}
	var plans []built
	plan1 := func(cat *catalog.Catalog, sql string, opt optimizer.Options) plan.Node {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := optimizer.Plan(cat, stmt, opt)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sweep := newUnwindSweep(t)
	for _, st := range unwindStatements[:workload.Mix9] {
		for _, wm := range unwindWorkMem {
			p := plan1(sweep.cat, st.sql, optimizer.Options{WorkMemPages: wm})
			plans = append(plans, built{st.name, sweep.cat, sweep.clock, p, wm})
		}
	}
	cat, clock := testDB(t)
	for _, tc := range forcedPlans {
		plans = append(plans, built{tc.sql, cat, clock, plan1(cat, tc.sql, tc.opt), tc.workMem})
	}

	inPlace, copying := 0, 0
	for _, b := range plans {
		for _, lay := range [][]int{nil, noColumns[:b.p.Schema().Arity()]} {
			var projects []*projectIter
			env := &Env{Pool: b.cat.Pool(), Clock: b.clock, WorkMemPages: b.workMem,
				Decomp: segment.Decompose(b.p, b.workMem)}
			env.wrap = func(it Iterator) Iterator {
				if p, ok := it.(*projectIter); ok {
					projects = append(projects, p)
				}
				return it
			}
			if _, err := build(b.p, env, lay); err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			for _, p := range projects {
				under := p.node.Child
				for f, ok := under.(*plan.Filter); ok; f, ok = under.(*plan.Filter) {
					under = f.Child
				}
				var whole bool
				switch under.(type) {
				case *plan.HashAgg, *plan.Sort, *plan.Limit, *plan.Materialize, *plan.SemiJoin:
					whole = true
				}
				cols := slices.Clone(p.node.Cols)
				slices.Sort(cols)
				repeats := len(slices.Compact(cols)) != len(p.node.Cols)
				if copies := p.src != nil; copies != (whole || repeats) {
					t.Fatalf("%s (sink=%v): %s over %s copies=%v, want %v\n%s",
						b.name, lay == nil, p.node.Label(), under.Label(), copies, whole || repeats, plan.Format(b.p))
				}
				if p.src == nil {
					inPlace++
				} else {
					copying++
				}
			}
		}
	}
	if inPlace == 0 || copying == 0 {
		t.Fatalf("saw %d in-place and %d copying Projects: the check covers nothing", inPlace, copying)
	}
}

// The wrapper must catch the mistake it exists for: a consumer that keeps
// a handed-out tuple across the producer's next Next reads poison.
func TestPoisonIterCatchesAKeptRow(t *testing.T) {
	cat, clock := testDB(t)
	stmt, _ := sqlparser.Parse("select custkey from customer")
	p, err := optimizer.Plan(cat, stmt, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: 512, Decomp: segment.Decompose(p, 512)}
	env.wrap = func(it Iterator) Iterator { return &poisonIter{inner: it} }
	var kept []tuple.Tuple
	if _, err := Run(env, p, func(tp tuple.Tuple) error {
		kept = append(kept, tp) // the bug: no copy
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range kept {
		if r[0] != poison {
			t.Fatalf("kept row reads %v, want poison", r)
		}
	}
}

// nodeCount is one node's expected EXPLAIN ANALYZE actuals.
type nodeCount struct {
	rows  int64
	bytes float64
}

// wholeRows evaluates n the way the plan defines it — whole decoded rows,
// joins as concatenations, no layouts and no slots — and records every
// node's row count and encoded bytes in want.
func wholeRows(t *testing.T, n plan.Node, want map[plan.Node]nodeCount) []tuple.Tuple {
	t.Helper()
	var rows []tuple.Tuple
	pass := func(pred expr.Expr, row tuple.Tuple) bool {
		if pred == nil {
			return true
		}
		ok, err := expr.EvalBool(pred, row)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	// join pairs every l with every r whose keys are equal (lk < 0: every
	// r) and keeps the concatenations pred passes.
	join := func(l, r []tuple.Tuple, lk, rk int, pred expr.Expr) {
		byKey := map[tuple.Value][]tuple.Tuple{}
		for _, b := range r {
			var k tuple.Value
			if rk >= 0 {
				k = b[rk].Canonical()
			}
			byKey[k] = append(byKey[k], b)
		}
		for _, a := range l {
			var k tuple.Value
			if lk >= 0 {
				k = a[lk].Canonical()
			}
			for _, b := range byKey[k] {
				if row := a.Concat(b); pass(pred, row) {
					rows = append(rows, row)
				}
			}
		}
	}
	switch n := n.(type) {
	case *plan.SeqScan:
		sc := n.Table.Heap.NewScanner()
		for {
			rec, _, ok := sc.Next()
			if !ok {
				break
			}
			row, err := tuple.Decode(rec, n.Table.Schema.Arity())
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
	case *plan.Filter:
		for _, r := range wholeRows(t, n.Child, want) {
			if pass(n.Pred, r) {
				rows = append(rows, r)
			}
		}
	case *plan.Project:
		for _, r := range wholeRows(t, n.Child, want) {
			out := make(tuple.Tuple, len(n.Cols))
			for j, c := range n.Cols {
				out[j] = r[c]
			}
			rows = append(rows, out)
		}
	case *plan.Sort, *plan.Materialize, *plan.Partition:
		rows = wholeRows(t, n.Children()[0], want)
	case *plan.HashJoin:
		join(wholeRows(t, n.Build, want), wholeRows(t, n.Probe, want), n.BuildKey, n.ProbeKey, n.ExtraPred)
	case *plan.MergeJoin:
		join(wholeRows(t, n.Left, want), wholeRows(t, n.Right, want), n.LeftKey, n.RightKey, n.ExtraPred)
	case *plan.NLJoin:
		join(wholeRows(t, n.Outer, want), wholeRows(t, n.Inner, want), -1, -1, n.Pred)
	default:
		t.Fatalf("wholeRows: no reference for %s", n.Label())
	}
	c := nodeCount{rows: int64(len(rows))}
	for _, r := range rows {
		c.bytes += float64(r.EncodedSize())
	}
	want[n] = c
	return rows
}

// EXPLAIN ANALYZE's Rows/Bytes do not depend on layouts: a pruned scan,
// a Filter whose column is not projected, every join kind writing only
// what its Project reads (with and without a join predicate to add) and
// stacked Projects report, at every node, what whole rows would. Each
// plan runs with a sink and without (the root placing no columns), and
// with and without poisoned rows.
func TestNodeStatsBytesOfPrunedScan(t *testing.T) {
	cat, clock := testDB(t)
	const (
		co      = "select c.name, o.orderkey from customer c, orders o where c.custkey = o.custkey"
		coExtra = co + " and o.totalprice > c.nationkey"
		ol      = "select o.totalprice, l.quantity from orders o, lineitem l where o.orderkey = l.orderkey"
		olExtra = ol + " and o.totalprice > l.partkey"
		col     = `select l.partkey, c.custkey, o.orderkey from customer c, orders o, lineitem l
		           where c.custkey = o.custkey and o.orderkey = l.orderkey`
	)
	for _, tc := range []struct {
		sql     string
		algo    string
		workMem int
		join    string // the label's first word of the join under the top Project, "" for none
		extra   bool   // that join has a predicate beyond its equijoin key
	}{
		{"select custkey from customer where nationkey < 10", "", 512, "", false},
		{co, "hash", 512, "HashJoin", false},
		{coExtra, "hash", 512, "HashJoin", true},
		{ol, "hash", 1, "GraceHashJoin", false},
		{olExtra, "hash", 1, "GraceHashJoin", true},
		{co, "merge", 512, "MergeJoin", false},
		{coExtra, "merge", 512, "MergeJoin", true},
		{co, "nl", 512, "NestedLoopJoin", false},
		{coExtra, "nl", 512, "NestedLoopJoin", true},
		{col, "hash", 512, "HashJoin", false},
		{col, "hash", 1, "GraceHashJoin", false},
	} {
		stmt, err := sqlparser.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := optimizer.Plan(cat, stmt, optimizer.Options{ForceJoinAlgo: tc.algo, WorkMemPages: tc.workMem})
		if err != nil {
			t.Fatal(err)
		}
		j := p.(*plan.Project).Child
		for q, ok := j.(*plan.Project); ok; q, ok = j.(*plan.Project) {
			j = q.Child
		}
		var extra bool
		switch j := j.(type) {
		case *plan.HashJoin:
			extra = j.ExtraPred != nil
		case *plan.MergeJoin:
			extra = j.ExtraPred != nil
		case *plan.NLJoin:
			extra = len(expr.Conjuncts(j.Pred)) > 1
		}
		if tc.join != "" && (strings.Fields(j.Label())[0] != tc.join || extra != tc.extra) {
			t.Fatalf("%q: top join is %s (extra predicate %v), want %s (%v)\n%s",
				tc.sql, j.Label(), extra, tc.join, tc.extra, plan.Format(p))
		}

		want := map[plan.Node]nodeCount{}
		wholeRows(t, p, want)
		for _, poisoned := range []bool{false, true} {
			for _, sink := range []func(tuple.Tuple) error{nil, func(tuple.Tuple) error { return nil }} {
				env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: tc.workMem,
					Decomp: segment.Decompose(p, tc.workMem), Collect: NewCollector(clock)}
				if poisoned {
					env.wrap = func(it Iterator) Iterator { return &poisonIter{inner: it} }
				}
				if _, err := Run(env, p, sink); err != nil {
					t.Fatal(err)
				}
				for n, w := range want {
					st := env.Collect.Get(n)
					if st == nil || st.Rows != w.rows || st.Bytes != w.bytes {
						t.Fatalf("%q poisoned=%v sink=%v %s: stats %+v, want rows=%d bytes=%g\n%s",
							tc.sql, poisoned, sink != nil, n.Label(), st, w.rows, w.bytes, plan.Format(p))
					}
				}
			}
		}
	}
}
