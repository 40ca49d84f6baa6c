package optimizer

import (
	"strings"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/plan"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// testCatalog builds a small customer/orders/lineitem trio with the same
// relative sizes and fanouts as the paper's Table 1 (scaled way down).
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	clock := vclock.New(vclock.DefaultCosts(), nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 4096))

	cust, err := cat.CreateTable("customer", tuple.NewSchema(
		tuple.Column{Name: "custkey", Type: tuple.Int},
		tuple.Column{Name: "name", Type: tuple.String},
		tuple.Column{Name: "nationkey", Type: tuple.Int},
		tuple.Column{Name: "acctbal", Type: tuple.Float},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		cat.Insert(cust, tuple.Tuple{
			tuple.NewInt(int64(i)), tuple.NewString("customer-name-padding"),
			tuple.NewInt(int64(i % 25)), tuple.NewFloat(float64(i)),
		})
	}
	cust.Heap.Sync()

	orders, err := cat.CreateTable("orders", tuple.NewSchema(
		tuple.Column{Name: "orderkey", Type: tuple.Int},
		tuple.Column{Name: "custkey", Type: tuple.Int},
		tuple.Column{Name: "totalprice", Type: tuple.Float},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		cat.Insert(orders, tuple.Tuple{
			tuple.NewInt(int64(i)), tuple.NewInt(int64(i % 300)), tuple.NewFloat(float64(i) * 1.5),
		})
	}
	orders.Heap.Sync()

	line, err := cat.CreateTable("lineitem", tuple.NewSchema(
		tuple.Column{Name: "orderkey", Type: tuple.Int},
		tuple.Column{Name: "partkey", Type: tuple.Int},
		tuple.Column{Name: "extendedprice", Type: tuple.Float},
		tuple.Column{Name: "comment", Type: tuple.String},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12000; i++ {
		cat.Insert(line, tuple.Tuple{
			tuple.NewInt(int64(i % 3000)), tuple.NewInt(int64(i)), tuple.NewFloat(2.5),
			tuple.NewString("padding-padding-padding-padding"),
		})
	}
	line.Heap.Sync()

	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return cat
}

func mustPlan(t *testing.T, cat *catalog.Catalog, sql string, opt Options) plan.Node {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Plan(cat, stmt, opt)
	if err != nil {
		t.Fatalf("Plan(%q): %v", sql, err)
	}
	return p
}

func TestPlanSingleTableScan(t *testing.T) {
	cat := testCatalog(t)
	p := mustPlan(t, cat, "select * from lineitem", Options{})
	scan, ok := p.(*plan.SeqScan)
	if !ok {
		t.Fatalf("Q1-style plan should be a bare SeqScan, got:\n%s", plan.Format(p))
	}
	if scan.Est().Card != 12000 {
		t.Fatalf("card = %g", scan.Est().Card)
	}
}

func TestPlanFilterAndProjection(t *testing.T) {
	cat := testCatalog(t)
	p := mustPlan(t, cat, "select custkey from customer where nationkey < 10", Options{})
	// Expect Project over Filter over SeqScan.
	proj, ok := p.(*plan.Project)
	if !ok {
		t.Fatalf("want Project at root:\n%s", plan.Format(p))
	}
	f, ok := proj.Child.(*plan.Filter)
	if !ok {
		t.Fatalf("want Filter under Project:\n%s", plan.Format(p))
	}
	// nationkey < 10 over uniform 0..24 ≈ 0.4.
	if f.Sel < 0.3 || f.Sel > 0.5 {
		t.Fatalf("filter sel = %g, want ~0.4", f.Sel)
	}
	if card := f.Est().Card; card < 90 || card > 150 {
		t.Fatalf("filtered card = %g, want ~120", card)
	}
}

func TestPlanTwoWayHashJoin(t *testing.T) {
	cat := testCatalog(t)
	p := mustPlan(t, cat,
		"select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey", Options{})
	var join *plan.HashJoin
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if j, ok := n.(*plan.HashJoin); ok {
			join = j
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p)
	if join == nil {
		t.Fatalf("equijoin should pick hash join:\n%s", plan.Format(p))
	}
	// Build side should be the smaller (customer).
	if join.Build.Est().Bytes() > join.Probe.Est().Bytes() {
		t.Fatalf("build side larger than probe:\n%s", plan.Format(p))
	}
	// Estimated output: key/foreign-key join → ~|orders|.
	if c := join.Est().Card; c < 2000 || c > 4500 {
		t.Fatalf("join card = %g, want ~3000", c)
	}
}

func TestPlanThreeWayJoinOrder(t *testing.T) {
	cat := testCatalog(t)
	p := mustPlan(t, cat, `
		select c.custkey, o.orderkey, l.extendedprice
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey`, Options{})
	// The cheapest order joins the two small tables first, with lineitem
	// probing the intermediate result (the paper's Figure 8 shape).
	top, ok := findTopJoin(p).(*plan.HashJoin)
	if !ok {
		t.Fatalf("top join not hash:\n%s", plan.Format(p))
	}
	if !subtreeScans(top.Probe, "lineitem") {
		t.Fatalf("lineitem should be the probe of the top join:\n%s", plan.Format(p))
	}
	if !subtreeScans(top.Build, "customer") || !subtreeScans(top.Build, "orders") {
		t.Fatalf("customer⋈orders should be the build side:\n%s", plan.Format(p))
	}
}

func findTopJoin(n plan.Node) plan.Node {
	switch n.(type) {
	case *plan.HashJoin, *plan.NLJoin, *plan.MergeJoin:
		return n
	}
	for _, c := range n.Children() {
		if j := findTopJoin(c); j != nil {
			return j
		}
	}
	return nil
}

func subtreeScans(n plan.Node, table string) bool {
	switch s := n.(type) {
	case *plan.SeqScan:
		if s.Table.Name == table {
			return true
		}
	case *plan.IndexScan:
		if s.Table.Name == table {
			return true
		}
	}
	for _, c := range n.Children() {
		if subtreeScans(c, table) {
			return true
		}
	}
	return false
}

func TestPlanNonEquiJoinUsesNL(t *testing.T) {
	cat := testCatalog(t)
	p := mustPlan(t, cat,
		"select * from customer c1, customer c2 where c1.custkey <> c2.custkey", Options{})
	if _, ok := findTopJoin(p).(*plan.NLJoin); !ok {
		t.Fatalf("<> join must use nested loops:\n%s", plan.Format(p))
	}
}

func TestPlanSelfJoinAliases(t *testing.T) {
	cat := testCatalog(t)
	p := mustPlan(t, cat, `
		select c.custkey, o1.orderkey, o2.orderkey
		from customer c, orders o1, orders o2
		where c.custkey = o1.custkey and o1.orderkey = o2.orderkey`, Options{})
	if p == nil {
		t.Fatal("self-join must plan")
	}
	count := 0
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if s, ok := n.(*plan.SeqScan); ok && s.Table.Name == "orders" {
			count++
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p)
	if count != 2 {
		t.Fatalf("self-join must scan orders twice, got %d:\n%s", count, plan.Format(p))
	}
}

func TestForceMergeJoin(t *testing.T) {
	cat := testCatalog(t)
	p := mustPlan(t, cat,
		"select c.custkey from customer c, orders o where c.custkey = o.custkey",
		Options{ForceJoinAlgo: "merge"})
	mj, ok := findTopJoin(p).(*plan.MergeJoin)
	if !ok {
		t.Fatalf("forced merge join not used:\n%s", plan.Format(p))
	}
	if _, ok := mj.Left.(*plan.Sort); !ok {
		t.Fatalf("merge join left must be sorted:\n%s", plan.Format(p))
	}
	if _, ok := mj.Right.(*plan.Sort); !ok {
		t.Fatalf("merge join right must be sorted:\n%s", plan.Format(p))
	}
}

func TestForceNLJoin(t *testing.T) {
	cat := testCatalog(t)
	p := mustPlan(t, cat,
		"select c.custkey from customer c, orders o where c.custkey = o.custkey",
		Options{ForceJoinAlgo: "nl"})
	if _, ok := findTopJoin(p).(*plan.NLJoin); !ok {
		t.Fatalf("forced NL join not used:\n%s", plan.Format(p))
	}
}

func TestIndexScanChosenForSelectivePredicate(t *testing.T) {
	cat := testCatalog(t)
	orders, _ := cat.Table("orders")
	if _, err := cat.CreateIndex(orders, "orderkey"); err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, cat, "select * from orders where orderkey = 17", Options{})
	f, ok := p.(*plan.Filter)
	if !ok {
		t.Fatalf("want Filter at root:\n%s", plan.Format(p))
	}
	if _, ok := f.Child.(*plan.IndexScan); !ok {
		t.Fatalf("equality on indexed key should use index scan:\n%s", plan.Format(p))
	}
	// The range already holds orderkey = 17's selectivity: the Filter
	// above re-checks the predicate but must not count it again.
	if f.Sel != 1 || f.Est().Card != 1 || f.Child.Est().Card != 1 {
		t.Fatalf("want sel 1 and one row at the scan and the filter:\n%s", plan.Format(p))
	}
	// And with index scans disabled it must fall back.
	if subtreeUsesIndex(mustPlan(t, cat, "select * from orders where orderkey = 17", Options{DisableIndexScan: true})) {
		t.Fatal("DisableIndexScan ignored")
	}
}

// A bound no key can meet takes no index path: orderkey < MinInt64 once
// planned IndexScan (orderkey <= MaxInt64), every entry by random I/O
// under an estimate of 0 rows.
func TestIndexBoundsDoNotWrap(t *testing.T) {
	cat := testCatalog(t)
	orders, _ := cat.Table("orders")
	if _, err := cat.CreateIndex(orders, "orderkey"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"select * from orders where orderkey < -9223372036854775808",
		"select * from orders where orderkey > 9223372036854775807",
	} {
		if p := mustPlan(t, cat, sql, Options{}); subtreeUsesIndex(p) {
			t.Errorf("%s: unsatisfiable bound planned an index scan:\n%s", sql, plan.Format(p))
		}
	}
}

func subtreeUsesIndex(n plan.Node) bool {
	if _, ok := n.(*plan.IndexScan); ok {
		return true
	}
	for _, c := range n.Children() {
		if subtreeUsesIndex(c) {
			return true
		}
	}
	return false
}

func TestFunctionPredicateDefaultSelectivity(t *testing.T) {
	cat := testCatalog(t)
	p := mustPlan(t, cat, "select * from lineitem where absolute(partkey) > 0", Options{})
	var f *plan.Filter
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if x, ok := n.(*plan.Filter); ok {
			f = x
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p)
	if f == nil {
		t.Fatalf("no filter:\n%s", plan.Format(p))
	}
	if f.Sel < 0.33 || f.Sel > 0.34 {
		t.Fatalf("function predicate sel = %g, want 1/3 (the PostgreSQL default the paper leans on)", f.Sel)
	}
}

func TestBindErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"select * from nosuchtable",
		"select nosuchcol from customer",
		"select x.custkey from customer c",
		"select custkey from customer c, orders o",  // ambiguous
		"select * from customer c, orders c",        // duplicate binding
		"select * from customer where orderkey = 1", // column of other table
	}
	for _, sql := range bad {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := Plan(cat, stmt, Options{}); err == nil {
			t.Errorf("Plan(%q) succeeded, want error", sql)
		}
	}
}

func TestCrossProductPlans(t *testing.T) {
	cat := testCatalog(t)
	p := mustPlan(t, cat, "select * from customer c1, customer c2", Options{})
	j, ok := findTopJoin(p).(*plan.NLJoin)
	if !ok {
		t.Fatalf("cross product must be NL:\n%s", plan.Format(p))
	}
	if j.Pred != nil {
		t.Fatal("cross product must have nil predicate")
	}
	if c := j.Est().Card; c != 300*300 {
		t.Fatalf("cross card = %g", c)
	}
}

func TestPlanFormatContainsEstimates(t *testing.T) {
	cat := testCatalog(t)
	p := mustPlan(t, cat, "select * from lineitem", Options{})
	s := plan.Format(p)
	if !strings.Contains(s, "rows=12000") {
		t.Fatalf("Format missing estimates: %s", s)
	}
}
