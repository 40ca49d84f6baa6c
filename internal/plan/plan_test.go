package plan

import (
	"strings"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/expr"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

func testTable(t *testing.T, name string, cols ...tuple.Column) *catalog.Table {
	t.Helper()
	clock := vclock.New(vclock.DefaultCosts(), nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 64))
	tb, err := cat.CreateTable(name, tuple.NewSchema(cols...))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestEstBytes(t *testing.T) {
	e := Est{Card: 100, Width: 25}
	if e.Bytes() != 2500 {
		t.Fatalf("Bytes = %g", e.Bytes())
	}
}

func TestScanNodes(t *testing.T) {
	tb := testTable(t, "customer",
		tuple.Column{Name: "custkey", Type: tuple.Int},
		tuple.Column{Name: "name", Type: tuple.String})
	s := &SeqScan{Table: tb, Alias: "c", OutEst: Est{Card: 10, Width: 20}}
	if s.Schema().Arity() != 2 || len(s.Children()) != 0 {
		t.Fatal("seqscan shape")
	}
	if s.Est().Card != 10 {
		t.Fatal("est")
	}
	if got := s.Label(); got != "SeqScan customer c" {
		t.Fatalf("label = %q", got)
	}
	// Alias equal to table name is elided.
	s2 := &SeqScan{Table: tb, Alias: "customer"}
	if got := s2.Label(); got != "SeqScan customer" {
		t.Fatalf("label = %q", got)
	}

	lo, hi := int64(5), int64(10)
	ix := &IndexScan{
		Table: tb, Alias: "c",
		Index: &catalog.Index{Name: "customer_custkey_idx", Column: "custkey"},
		Lo:    &lo, Hi: &hi, Sel: 0.1,
	}
	lbl := ix.Label()
	if !strings.Contains(lbl, "custkey >= 5") || !strings.Contains(lbl, "custkey <= 10") {
		t.Fatalf("index label = %q", lbl)
	}
}

func TestOperatorLabelsAndShapes(t *testing.T) {
	tb := testTable(t, "t",
		tuple.Column{Name: "a", Type: tuple.Int},
		tuple.Column{Name: "b", Type: tuple.Int})
	scan := &SeqScan{Table: tb, Alias: "t"}
	pred := &expr.Cmp{Op: expr.GT, L: &expr.ColRef{Index: 0, Name: "a"}, R: &expr.Const{V: tuple.NewInt(0)}}
	f := &Filter{Child: scan, Pred: pred, Sel: 0.5}
	if len(f.Children()) != 1 || f.Schema() != scan.Schema() {
		t.Fatal("filter shape")
	}
	if !strings.Contains(f.Label(), "a > 0") {
		t.Fatalf("filter label = %q", f.Label())
	}

	proj := &Project{
		Child: f, Cols: []int{1},
		Sch: tuple.NewSchema(tuple.Column{Name: "b", Type: tuple.Int}),
	}
	if proj.Schema().Arity() != 1 || !strings.Contains(proj.Label(), "b") {
		t.Fatalf("project: %q", proj.Label())
	}

	hj := &HashJoin{
		Build: scan, Probe: scan, BuildKey: 0, ProbeKey: 1,
		Sch: scan.Schema().Concat(scan.Schema()),
	}
	if !strings.Contains(hj.Label(), "HashJoin (build.a = probe.b)") {
		t.Fatalf("hash label = %q", hj.Label())
	}
	hj.Grace = true
	if !strings.Contains(hj.Label(), "GraceHashJoin") {
		t.Fatalf("grace label = %q", hj.Label())
	}
	hj.ExtraPred = pred
	if !strings.Contains(hj.Label(), "AND") {
		t.Fatalf("extra-pred label = %q", hj.Label())
	}

	nl := &NLJoin{Outer: scan, Inner: scan, Sch: hj.Sch}
	if nl.Label() != "NestedLoopJoin (cross)" {
		t.Fatalf("cross label = %q", nl.Label())
	}
	nl.Pred = pred
	if !strings.Contains(nl.Label(), "a > 0") {
		t.Fatalf("nl label = %q", nl.Label())
	}

	srt := &Sort{Child: scan, Keys: []SortKey{{Col: 0}, {Col: 1, Desc: true}}}
	if !strings.Contains(srt.Label(), "a") || !strings.Contains(srt.Label(), "b DESC") {
		t.Fatalf("sort label = %q", srt.Label())
	}
	if len(srt.Children()) != 1 {
		t.Fatal("sort children")
	}

	mj := &MergeJoin{Left: scan, Right: scan, LeftKey: 0, RightKey: 1, Sch: hj.Sch}
	if !strings.Contains(mj.Label(), "MergeJoin (left.a = right.b)") {
		t.Fatalf("merge label = %q", mj.Label())
	}

	mat := &Materialize{Child: scan}
	if mat.Label() != "Materialize" || mat.Schema() != scan.Schema() {
		t.Fatal("materialize")
	}

	part := &Partition{Child: scan, Key: 1}
	if !strings.Contains(part.Label(), "HashPartition (b)") {
		t.Fatalf("partition label = %q", part.Label())
	}
}

func TestFormatTree(t *testing.T) {
	tb := testTable(t, "t", tuple.Column{Name: "a", Type: tuple.Int})
	scan := &SeqScan{Table: tb, OutEst: Est{Card: 42, Width: 9}}
	f := &Filter{Child: scan, Pred: &expr.Cmp{Op: expr.GT, L: &expr.ColRef{Index: 0, Name: "a"}, R: &expr.Const{V: tuple.NewInt(1)}}, OutEst: Est{Card: 21, Width: 9}}
	out := Format(f)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("format lines: %v", lines)
	}
	if !strings.Contains(lines[0], "Filter") || !strings.Contains(lines[0], "rows=21") {
		t.Fatalf("line 0: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  SeqScan") || !strings.Contains(lines[1], "rows=42") {
		t.Fatalf("line 1: %q", lines[1])
	}
}

func TestAggLimitSemiJoinNodes(t *testing.T) {
	tb := testTable(t, "t",
		tuple.Column{Name: "a", Type: tuple.Int},
		tuple.Column{Name: "b", Type: tuple.Float})
	scan := &SeqScan{Table: tb, OutEst: Est{Card: 100, Width: 18}}

	agg := &HashAgg{
		Child:     scan,
		GroupCols: []int{0},
		Aggs: []AggSpec{
			{Kind: AggCount, Col: -1},
			{Kind: AggSum, Col: 1},
			{Kind: AggAvg, Col: 1},
			{Kind: AggMin, Col: 1},
			{Kind: AggMax, Col: 1},
		},
		GroupsEst: 10,
		Sch: tuple.NewSchema(
			tuple.Column{Name: "a", Type: tuple.Int},
			tuple.Column{Name: "count(*)", Type: tuple.Int},
			tuple.Column{Name: "sum(b)", Type: tuple.Float},
			tuple.Column{Name: "avg(b)", Type: tuple.Float},
			tuple.Column{Name: "min(b)", Type: tuple.Float},
			tuple.Column{Name: "max(b)", Type: tuple.Float},
		),
		OutEst: Est{Card: 10, Width: 50},
	}
	lbl := agg.Label()
	for _, want := range []string{"HashAggregate", "a", "count(*)", "sum(b)", "avg(b)", "min(b)", "max(b)"} {
		if !strings.Contains(lbl, want) {
			t.Fatalf("agg label %q missing %q", lbl, want)
		}
	}
	if agg.Schema().Arity() != 6 || len(agg.Children()) != 1 || agg.Est().Card != 10 {
		t.Fatal("agg node shape")
	}
	lim := &Limit{Child: scan, N: 5, OutEst: Est{Card: 5, Width: 18}}
	if lim.Label() != "Limit 5" || lim.Schema() != scan.Schema() {
		t.Fatalf("limit node: %q", lim.Label())
	}

	sj := &SemiJoin{
		Outer: scan, Inner: scan,
		OuterKey: 0, InnerKey: 0,
		Sel: 0.5, OutEst: Est{Card: 50, Width: 18},
	}
	if !strings.Contains(sj.Label(), "HashSemiJoin (outer.a = inner.a)") {
		t.Fatalf("semi label %q", sj.Label())
	}
	if sj.Schema() != scan.Schema() || len(sj.Children()) != 2 {
		t.Fatal("semi node shape")
	}
	sj.Anti = true
	if !strings.Contains(sj.Label(), "AntiHashSemiJoin") {
		t.Fatalf("anti label %q", sj.Label())
	}
	nlSemi := &SemiJoin{
		Outer: scan, Inner: scan, OuterKey: -1, InnerKey: -1,
		ExtraPred: &expr.Cmp{Op: expr.LT, L: &expr.ColRef{Index: 0, Name: "a"}, R: &expr.ColRef{Index: 2, Name: "a2"}},
	}
	if !strings.Contains(nlSemi.Label(), "NestedLoopSemiJoin") || !strings.Contains(nlSemi.Label(), "a < a2") {
		t.Fatalf("nl semi label %q", nlSemi.Label())
	}
}
