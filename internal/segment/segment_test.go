package segment_test

import (
	"math"
	"strings"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/optimizer"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// buildCatalog makes a small customer/orders/lineitem catalog with
// Table 1-like relative sizes.
func buildCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	clock := vclock.New(vclock.DefaultCosts(), nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 4096))
	mk := func(name string, sch *tuple.Schema, n int, row func(i int) tuple.Tuple) {
		tb, err := cat.CreateTable(name, sch)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := cat.Insert(tb, row(i)); err != nil {
				t.Fatal(err)
			}
		}
		tb.Heap.Sync()
	}
	mk("customer", tuple.NewSchema(
		tuple.Column{Name: "custkey", Type: tuple.Int},
		tuple.Column{Name: "nationkey", Type: tuple.Int},
	), 200, func(i int) tuple.Tuple {
		return tuple.Tuple{tuple.NewInt(int64(i)), tuple.NewInt(int64(i % 25))}
	})
	mk("orders", tuple.NewSchema(
		tuple.Column{Name: "orderkey", Type: tuple.Int},
		tuple.Column{Name: "custkey", Type: tuple.Int},
	), 2000, func(i int) tuple.Tuple {
		return tuple.Tuple{tuple.NewInt(int64(i)), tuple.NewInt(int64(i % 200))}
	})
	mk("lineitem", tuple.NewSchema(
		tuple.Column{Name: "orderkey", Type: tuple.Int},
		tuple.Column{Name: "partkey", Type: tuple.Int},
	), 8000, func(i int) tuple.Tuple {
		return tuple.Tuple{tuple.NewInt(int64(i % 2000)), tuple.NewInt(int64(i))}
	})
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return cat
}

func planFor(t *testing.T, cat *catalog.Catalog, sql string, opt optimizer.Options) plan.Node {
	t.Helper()
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

func TestSingleSegmentScan(t *testing.T) {
	cat := buildCatalog(t)
	p := planFor(t, cat, "select * from lineitem", optimizer.Options{})
	d := segment.Decompose(p, 2048)
	if len(d.Segments) != 1 {
		t.Fatalf("Q1-style plan must be one segment:\n%s", d)
	}
	s := d.Segments[0]
	if !s.Final || len(s.Inputs) != 1 || !s.Inputs[0].Base {
		t.Fatalf("segment: %s", d)
	}
	if len(s.Dominant) != 1 || s.Dominant[0] != 0 {
		t.Fatalf("dominant: %v", s.Dominant)
	}
	// Final segment output is not counted: cost = input bytes only.
	want := s.Inputs[0].Init.Bytes()
	if math.Abs(s.InitCost-want) > 1 {
		t.Fatalf("cost = %g, want input bytes %g", s.InitCost, want)
	}
}

// The paper's Figure 8 shape: two hybrid hash joins → three segments.
func TestQ2StyleThreeSegments(t *testing.T) {
	cat := buildCatalog(t)
	p := planFor(t, cat, `
		select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey`, optimizer.Options{})
	d := segment.Decompose(p, 2048)
	if len(d.Segments) != 3 {
		t.Fatalf("want 3 segments, got %d:\n%s", len(d.Segments), d)
	}
	// Execution order: S0 = customer build, S1 = orders probe + build,
	// S2 = lineitem probe (final).
	s0, s1, s2 := d.Segments[0], d.Segments[1], d.Segments[2]
	if s0.Final || s1.Final || !s2.Final {
		t.Fatalf("final flags wrong:\n%s", d)
	}
	if len(s0.Inputs) != 1 || !s0.Inputs[0].Base || s0.Inputs[0].Table.Name != "customer" {
		t.Fatalf("S0 must read customer:\n%s", d)
	}
	// S1: inputs = hash table (from S0) + orders scan; dominant = orders.
	if len(s1.Inputs) != 2 {
		t.Fatalf("S1 inputs: %s", d)
	}
	dom := s1.Inputs[s1.Dominant[0]]
	if !dom.Base || dom.Table.Name != "orders" {
		t.Fatalf("S1 dominant must be the probe (orders):\n%s", d)
	}
	// S2: inputs = hash table (from S1) + lineitem scan; dominant = lineitem.
	dom2 := s2.Inputs[s2.Dominant[0]]
	if !dom2.Base || dom2.Table.Name != "lineitem" {
		t.Fatalf("S2 dominant must be lineitem:\n%s", d)
	}
}

func TestNLJoinDominantIsOuter(t *testing.T) {
	cat := buildCatalog(t)
	p := planFor(t, cat,
		"select * from customer c1, customer c2 where c1.custkey <> c2.custkey",
		optimizer.Options{})
	d := segment.Decompose(p, 2048)
	if len(d.Segments) != 1 {
		t.Fatalf("NL of two scans must be one segment:\n%s", d)
	}
	s := d.Segments[0]
	if len(s.Inputs) != 2 || len(s.Dominant) != 1 {
		t.Fatalf("inputs/dominant: %s", d)
	}
	nl := findNL(p)
	if nl == nil {
		t.Fatal("no NL join in plan")
	}
	domNode := s.Inputs[s.Dominant[0]].Node
	if domNode != nl.Outer && !descendantOf(nl.Outer, domNode) {
		t.Fatalf("dominant input must be the outer:\n%s", d)
	}
	// Cost must include inner rescans: ≈ outer + outerCard × inner + 0 (final).
	outer := s.Inputs[s.Dominant[0]].Init
	innerIdx := 1 - s.Dominant[0]
	inner := s.Inputs[innerIdx].Init
	want := outer.Bytes() + math.Max(1, outer.Card)*inner.Bytes()
	if math.Abs(s.InitCost-want)/want > 0.01 {
		t.Fatalf("NL cost = %g, want %g (with rescans)", s.InitCost, want)
	}
}

func findNL(n plan.Node) *plan.NLJoin {
	if j, ok := n.(*plan.NLJoin); ok {
		return j
	}
	for _, c := range n.Children() {
		if j := findNL(c); j != nil {
			return j
		}
	}
	return nil
}

func descendantOf(root plan.Node, target plan.Node) bool {
	if root == target {
		return true
	}
	for _, c := range root.Children() {
		if descendantOf(c, target) {
			return true
		}
	}
	return false
}

// The paper's two-dominant-input rule for sort-merge joins.
func TestMergeJoinTwoDominantInputs(t *testing.T) {
	cat := buildCatalog(t)
	p := planFor(t, cat,
		"select c.custkey from customer c, orders o where c.custkey = o.custkey",
		optimizer.Options{ForceJoinAlgo: "merge"})
	d := segment.Decompose(p, 2048)
	// Segments: sort(customer), sort(orders), merge (final) = 3.
	if len(d.Segments) != 3 {
		t.Fatalf("want 3 segments:\n%s", d)
	}
	final := d.Segments[2]
	if !final.Final {
		t.Fatalf("last segment must be final:\n%s", d)
	}
	if len(final.Dominant) != 2 {
		t.Fatalf("merge-join segment must have two dominant inputs, got %v:\n%s", final.Dominant, d)
	}
}

func TestEvalSegmentRespondsToRefinedInputs(t *testing.T) {
	cat := buildCatalog(t)
	p := planFor(t, cat, `
		select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey`, optimizer.Options{})
	d := segment.Decompose(p, 2048)
	s1 := d.Segments[1]
	base := make([]segment.Est, len(s1.Inputs))
	for i, in := range s1.Inputs {
		base[i] = in.Init
	}
	out0, cost0 := d.EvalSegment(s1, base)
	// Doubling the probe-side input cardinality roughly doubles the
	// output cardinality and increases the cost.
	refined := make([]segment.Est, len(base))
	copy(refined, base)
	di := s1.Dominant[0]
	refined[di] = segment.Est{Card: base[di].Card * 2, Width: base[di].Width}
	out1, cost1 := d.EvalSegment(s1, refined)
	if out1.Card < out0.Card*1.9 {
		t.Fatalf("refined card %g, want ~2x %g", out1.Card, out0.Card)
	}
	if cost1 <= cost0 {
		t.Fatalf("refined cost %g must exceed %g", cost1, cost0)
	}
}

func TestTotalInitCostIsSumOfSegments(t *testing.T) {
	cat := buildCatalog(t)
	p := planFor(t, cat, `
		select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey`, optimizer.Options{})
	d := segment.Decompose(p, 2048)
	sum := 0.0
	for _, s := range d.Segments {
		sum += s.InitCost
	}
	if math.Abs(sum-d.TotalInitCost()) > 1e-6 {
		t.Fatal("TotalInitCost mismatch")
	}
	if sum <= 0 {
		t.Fatal("cost must be positive")
	}
}

func TestInfoTagsCoverScansAndBoundaries(t *testing.T) {
	cat := buildCatalog(t)
	p := planFor(t, cat, `
		select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey`, optimizer.Options{})
	d := segment.Decompose(p, 2048)
	scans, joins := 0, 0
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		switch n.(type) {
		case *plan.SeqScan, *plan.IndexScan:
			scans++
			if _, ok := d.Info[n]; !ok {
				t.Fatalf("scan %s missing Info tag", n.Label())
			}
		case *plan.HashJoin:
			joins++
			info, ok := d.Info[n]
			if !ok || info.ProducerSeg < 0 {
				t.Fatalf("hash join %s missing producer tag", n.Label())
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p)
	if scans != 3 || joins != 2 {
		t.Fatalf("walked %d scans %d joins", scans, joins)
	}
}

func TestDecompositionStringMentionsDominant(t *testing.T) {
	cat := buildCatalog(t)
	p := planFor(t, cat, "select * from lineitem", optimizer.Options{})
	d := segment.Decompose(p, 2048)
	if !strings.Contains(d.String(), "[dominant]") {
		t.Fatalf("String output: %s", d)
	}
}

func TestSpillCostAppearsWithTinyWorkMem(t *testing.T) {
	cat := buildCatalog(t)
	p := planFor(t, cat,
		"select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey",
		optimizer.Options{})
	big := segment.Decompose(p, 4096)
	small := segment.Decompose(p, 0) // no memory: the build side always spills
	if small.TotalInitCost() <= big.TotalInitCost() {
		t.Fatalf("spill must raise cost: small-mem %g vs big-mem %g",
			small.TotalInitCost(), big.TotalInitCost())
	}
}
