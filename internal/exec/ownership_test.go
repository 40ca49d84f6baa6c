package exec

import (
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/optimizer"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
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

// The plans no runSQL caller reaches: a planned Grace join, a sort whose
// runs need intermediate merge passes, a top-N, a keyless semi join and a
// pruned index scan.
func TestOwnershipContractOnForcedPlans(t *testing.T) {
	cat, clock := testDB(t)
	orders, _ := cat.Table("orders")
	if _, err := cat.CreateIndex(orders, "orderkey"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
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
	} {
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

// EXPLAIN ANALYZE's Rows/Bytes do not change with pruning: a pruned scan
// and the filter above it report the encoded size of the records read,
// not of the slot with its pruned columns zeroed.
func TestNodeStatsBytesOfPrunedScan(t *testing.T) {
	cat, clock := testDB(t)
	stmt, _ := sqlparser.Parse("select custkey from customer where nationkey < 10")
	p, err := optimizer.Plan(cat, stmt, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	proj := p.(*plan.Project)
	filter := proj.Child.(*plan.Filter)
	scan := filter.Child.(*plan.SeqScan)

	var scanBytes, filterBytes float64
	var scanRows, filterRows int64
	sc := scan.Table.Heap.NewScanner()
	for {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		row, err := tuple.Decode(rec, 3)
		if err != nil {
			t.Fatal(err)
		}
		scanRows++
		scanBytes += float64(len(rec))
		if row[1].I < 10 {
			filterRows++
			filterBytes += float64(len(rec))
		}
	}

	for _, poisoned := range []bool{false, true} {
		env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: 512,
			Decomp: segment.Decompose(p, 512), Collect: NewCollector(clock)}
		if poisoned {
			env.wrap = func(it Iterator) Iterator { return &poisonIter{inner: it} }
		}
		if _, err := Run(env, p, nil); err != nil {
			t.Fatal(err)
		}
		for _, want := range []struct {
			n     plan.Node
			rows  int64
			bytes float64
		}{
			{scan, scanRows, scanBytes},
			{filter, filterRows, filterBytes},
			{proj, filterRows, 9 * float64(filterRows)},
		} {
			st := env.Collect.Get(want.n)
			if st == nil || st.Rows != want.rows || st.Bytes != want.bytes {
				t.Fatalf("poisoned=%v %s: stats %+v, want rows=%d bytes=%g", poisoned, want.n.Label(), st, want.rows, want.bytes)
			}
		}
	}
}
