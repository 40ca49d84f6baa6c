package exec

import (
	"fmt"
	"sort"
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

// recorder captures all WorkReporter events for assertions.
type recorder struct {
	inputBytes  map[[2]int]float64 // (seg, input) -> bytes
	inputTuples map[[2]int]int64
	outputBytes map[int]float64
	outputCount map[int]int64
	extraBytes  map[int]float64
	done        []int
	inputDone   [][2]int
}

func newRecorder() *recorder {
	return &recorder{
		inputBytes:  map[[2]int]float64{},
		inputTuples: map[[2]int]int64{},
		outputBytes: map[int]float64{},
		outputCount: map[int]int64{},
		extraBytes:  map[int]float64{},
	}
}

func (r *recorder) InputTuple(seg, input int, bytes int) {
	r.inputBytes[[2]int{seg, input}] += float64(bytes)
	r.inputTuples[[2]int{seg, input}]++
}

func (r *recorder) InputBulk(seg, input int, tuples int64, bytes float64) {
	r.inputBytes[[2]int{seg, input}] += bytes
	r.inputTuples[[2]int{seg, input}] += tuples
}

func (r *recorder) OutputTuple(seg int, bytes int) {
	r.outputBytes[seg] += float64(bytes)
	r.outputCount[seg]++
}

func (r *recorder) InputRepeat(seg, input int, tuples int64, bytes float64) {
	r.inputBytes[[2]int{seg, input}] += bytes
	r.inputTuples[[2]int{seg, input}] += tuples
}

func (r *recorder) InputDone(seg, input int) {
	r.inputDone = append(r.inputDone, [2]int{seg, input})
}

func (r *recorder) Extra(seg int, bytes float64) { r.extraBytes[seg] += bytes }
func (r *recorder) SegmentDone(seg int)          { r.done = append(r.done, seg) }

// testDB builds the standard small catalog: 100 customers × 10 orders
// each × 3 lineitems per order.
func testDB(t *testing.T) (*catalog.Catalog, *vclock.Clock) {
	t.Helper()
	clock := vclock.New(vclock.Costs{SeqPage: 1e-4, RandPage: 8e-4, CPUTuple: 1e-7}, nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 1024))
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
		if err := tb.Heap.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	mk("customer", tuple.NewSchema(
		tuple.Column{Name: "custkey", Type: tuple.Int},
		tuple.Column{Name: "nationkey", Type: tuple.Int},
		tuple.Column{Name: "name", Type: tuple.String},
	), 100, func(i int) tuple.Tuple {
		return tuple.Tuple{tuple.NewInt(int64(i)), tuple.NewInt(int64(i % 25)),
			tuple.NewString(fmt.Sprintf("Customer#%03d", i))}
	})
	mk("orders", tuple.NewSchema(
		tuple.Column{Name: "orderkey", Type: tuple.Int},
		tuple.Column{Name: "custkey", Type: tuple.Int},
		tuple.Column{Name: "totalprice", Type: tuple.Float},
	), 1000, func(i int) tuple.Tuple {
		return tuple.Tuple{tuple.NewInt(int64(i)), tuple.NewInt(int64(i % 100)),
			tuple.NewFloat(float64(i) * 1.5)}
	})
	mk("lineitem", tuple.NewSchema(
		tuple.Column{Name: "orderkey", Type: tuple.Int},
		tuple.Column{Name: "partkey", Type: tuple.Int},
		tuple.Column{Name: "quantity", Type: tuple.Int},
	), 3000, func(i int) tuple.Tuple {
		return tuple.Tuple{tuple.NewInt(int64(i % 1000)), tuple.NewInt(int64(i - 1500)),
			tuple.NewInt(int64(i % 50))}
	})
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return cat, clock
}

// runSQL plans and executes sql, returning all result rows rendered as
// strings (order-insensitive comparisons sort them).
func runSQL(t *testing.T, cat *catalog.Catalog, clock *vclock.Clock, sql string,
	opt optimizer.Options, workMem int, rep segment.WorkReporter) []string {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.Plan(cat, stmt, opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := execChecked(t, cat, clock, p, workMem, rep)
	sort.Strings(rows)
	return rows
}

func TestSeqScanAllRows(t *testing.T) {
	cat, clock := testDB(t)
	rows := runSQL(t, cat, clock, "select * from customer", optimizer.Options{}, 512, nil)
	if len(rows) != 100 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestFilterCorrectness(t *testing.T) {
	cat, clock := testDB(t)
	rows := runSQL(t, cat, clock, "select custkey from customer where nationkey < 10",
		optimizer.Options{}, 512, nil)
	// nationkey = custkey % 25 < 10 → custkey % 25 in 0..9 → 40 rows.
	if len(rows) != 40 {
		t.Fatalf("got %d rows, want 40", len(rows))
	}
}

func TestFunctionPredicateRuntime(t *testing.T) {
	cat, clock := testDB(t)
	// absolute(partkey) > 0: partkey = i-1500 for i in 0..2999; zero at i=1500.
	rows := runSQL(t, cat, clock, "select partkey from lineitem where absolute(partkey) > 0",
		optimizer.Options{}, 512, nil)
	if len(rows) != 2999 {
		t.Fatalf("got %d rows, want 2999", len(rows))
	}
}

func TestJoinAlgorithmsAgree(t *testing.T) {
	cat, clock := testDB(t)
	sql := "select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey"
	hash := runSQL(t, cat, clock, sql, optimizer.Options{ForceJoinAlgo: "hash"}, 512, nil)
	nl := runSQL(t, cat, clock, sql, optimizer.Options{ForceJoinAlgo: "nl"}, 512, nil)
	merge := runSQL(t, cat, clock, sql, optimizer.Options{ForceJoinAlgo: "merge"}, 512, nil)
	if len(hash) != 1000 {
		t.Fatalf("hash join rows = %d, want 1000", len(hash))
	}
	if len(nl) != len(hash) || len(merge) != len(hash) {
		t.Fatalf("row counts differ: hash=%d nl=%d merge=%d", len(hash), len(nl), len(merge))
	}
	for i := range hash {
		if hash[i] != nl[i] || hash[i] != merge[i] {
			t.Fatalf("row %d differs: hash=%s nl=%s merge=%s", i, hash[i], nl[i], merge[i])
		}
	}
}

func TestThreeWayJoinCardinality(t *testing.T) {
	cat, clock := testDB(t)
	rows := runSQL(t, cat, clock, `
		select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey`,
		optimizer.Options{}, 512, nil)
	// Every order matches exactly 3 lineitems → 3000 rows.
	if len(rows) != 3000 {
		t.Fatalf("got %d rows, want 3000", len(rows))
	}
}

func TestHashJoinSpillAgreesWithInMemory(t *testing.T) {
	cat, clock := testDB(t)
	// The top join's build side (customer⋈orders intermediate, ~18 KB)
	// exceeds one page of work_mem and must spill.
	sql := `select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey`
	inMem := runSQL(t, cat, clock, sql, optimizer.Options{}, 512, nil)
	rec := newRecorder()
	spilled := runSQL(t, cat, clock, sql, optimizer.Options{}, 1, rec)
	if len(spilled) != len(inMem) {
		t.Fatalf("spill changed row count: %d vs %d", len(spilled), len(inMem))
	}
	for i := range inMem {
		if spilled[i] != inMem[i] {
			t.Fatalf("row %d differs under spill", i)
		}
	}
	// Spill traffic must be recorded as multi-stage Extra bytes.
	total := 0.0
	for _, b := range rec.extraBytes {
		total += b
	}
	if total <= 0 {
		t.Fatal("spilled hash join reported no Extra bytes")
	}
}

// When the planner knows memory is tight it emits a Grace hash join:
// both sides partitioned to disk as separate segments. Results must be
// identical and the partition segments must report output bytes.
func TestGraceHashJoinAgreesAndReports(t *testing.T) {
	cat, clock := testDB(t)
	sql := `select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey`
	inMem := runSQL(t, cat, clock, sql, optimizer.Options{}, 512, nil)

	stmt, _ := sqlparser.Parse(sql)
	p, err := optimizer.Plan(cat, stmt, optimizer.Options{WorkMemPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	hasGrace := false
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if j, ok := n.(*plan.HashJoin); ok && j.Grace {
			hasGrace = true
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p)
	if !hasGrace {
		t.Fatalf("tiny work_mem must produce a Grace join:\n%s", plan.Format(p))
	}
	rec := newRecorder()
	d := segment.Decompose(p, 1)
	env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: 1, Reporter: rec, Decomp: d}
	var rows []string
	if _, err := Run(env, p, func(tp tuple.Tuple) error {
		rows = append(rows, tp.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	if len(rows) != len(inMem) {
		t.Fatalf("grace join rows = %d, want %d", len(rows), len(inMem))
	}
	for i := range rows {
		if rows[i] != inMem[i] {
			t.Fatalf("row %d differs under grace join", i)
		}
	}
	// Every partition segment reported output and was consumed equally.
	for _, s := range d.Segments {
		for i, in := range s.Inputs {
			if in.Base {
				continue
			}
			prodOut := rec.outputBytes[in.Child.ID]
			consIn := rec.inputBytes[[2]int{s.ID, i}]
			if prodOut <= 0 || prodOut != consIn {
				t.Errorf("grace: segment %d output %.0fB != consumer input %.0fB (seg %d in %d)",
					in.Child.ID, prodOut, consIn, s.ID, i)
			}
		}
	}
}

func TestExternalSortSpillAgrees(t *testing.T) {
	cat, clock := testDB(t)
	sql := "select c.custkey from customer c, orders o where c.custkey = o.custkey"
	inMem := runSQL(t, cat, clock, sql, optimizer.Options{ForceJoinAlgo: "merge"}, 512, nil)
	spilled := runSQL(t, cat, clock, sql, optimizer.Options{ForceJoinAlgo: "merge"}, 1, nil)
	if len(inMem) != len(spilled) {
		t.Fatalf("external sort changed results: %d vs %d", len(inMem), len(spilled))
	}
	for i := range inMem {
		if inMem[i] != spilled[i] {
			t.Fatalf("row %d differs under external sort", i)
		}
	}
}

func TestNLJoinNotEquals(t *testing.T) {
	cat, clock := testDB(t)
	rows := runSQL(t, cat, clock,
		"select c1.custkey, c2.custkey from customer c1, customer c2 where c1.custkey <> c2.custkey",
		optimizer.Options{}, 512, nil)
	if len(rows) != 100*99 {
		t.Fatalf("got %d rows, want %d", len(rows), 100*99)
	}
}

func TestIndexScanExecution(t *testing.T) {
	cat, clock := testDB(t)
	orders, _ := cat.Table("orders")
	if _, err := cat.CreateIndex(orders, "orderkey"); err != nil {
		t.Fatal(err)
	}
	rows := runSQL(t, cat, clock, "select * from orders where orderkey = 17", optimizer.Options{}, 512, nil)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	// Range scan.
	rows = runSQL(t, cat, clock, "select * from orders where orderkey < 50", optimizer.Options{}, 512, nil)
	if len(rows) != 50 {
		t.Fatalf("range: got %d rows, want 50", len(rows))
	}
}

// The reporter's structural invariants: build-segment output equals the
// consumer's hash-table input; base-input tuple counts equal relation
// cardinalities; segments complete in execution order.
func TestWorkAccountingStructure(t *testing.T) {
	cat, clock := testDB(t)
	rec := newRecorder()
	stmt, _ := sqlparser.Parse(`
		select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey`)
	p, err := optimizer.Plan(cat, stmt, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := segment.Decompose(p, 512)
	env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: 512, Reporter: rec, Decomp: d}
	if _, err := Run(env, p, nil); err != nil {
		t.Fatal(err)
	}

	if len(rec.done) != len(d.Segments) {
		t.Fatalf("done events: %v for %d segments", rec.done, len(d.Segments))
	}
	for i, seg := range rec.done {
		if seg != i {
			t.Fatalf("segments must complete in execution order: %v", rec.done)
		}
	}

	// Base inputs saw exactly the relation cardinalities.
	for _, s := range d.Segments {
		for i, in := range s.Inputs {
			if in.Base {
				got := rec.inputTuples[[2]int{s.ID, i}]
				want := in.Table.Heap.Len()
				if got != want {
					t.Errorf("segment %d input %d (%s): %d tuples, want %d",
						s.ID, i, in.Table.Name, got, want)
				}
			}
		}
	}

	// Each non-final segment's output equals its consumer's input bytes.
	for _, s := range d.Segments {
		for i, in := range s.Inputs {
			if in.Base {
				continue
			}
			prodOut := rec.outputBytes[in.Child.ID]
			consIn := rec.inputBytes[[2]int{s.ID, i}]
			if prodOut <= 0 || prodOut != consIn {
				t.Errorf("segment %d output %.0fB != consumer %d input %.0fB",
					in.Child.ID, prodOut, s.ID, consIn)
			}
		}
	}
}

// Work accounting for NL joins: inner input bytes = cache bytes × outer
// cardinality (one pass per outer tuple).
func TestNLJoinPassAccounting(t *testing.T) {
	cat, clock := testDB(t)
	rec := newRecorder()
	stmt, _ := sqlparser.Parse(
		"select c1.custkey, c2.custkey from customer c1, customer c2 where c1.custkey <> c2.custkey")
	p, err := optimizer.Plan(cat, stmt, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := segment.Decompose(p, 512)
	env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: 512, Reporter: rec, Decomp: d}
	if _, err := Run(env, p, nil); err != nil {
		t.Fatal(err)
	}
	// The projected inner is materialized, so the NL join lives in the
	// final segment with inputs (outer scan, materialized inner).
	s := d.Segments[len(d.Segments)-1]
	if len(s.Inputs) != 2 {
		t.Fatalf("final segment inputs: %s", d)
	}
	domIdx := s.Dominant[0]
	innerIdx := 1 - domIdx
	outerTuples := rec.inputTuples[[2]int{s.ID, domIdx}]
	innerTuples := rec.inputTuples[[2]int{s.ID, innerIdx}]
	if outerTuples != 100 {
		t.Fatalf("outer input = %d tuples", outerTuples)
	}
	// 100 logical passes over 100 cached inner tuples.
	if innerTuples != 100*100 {
		t.Fatalf("inner input = %d tuple-reads, want 10000", innerTuples)
	}
}

func TestRunWithoutReporterMatches(t *testing.T) {
	cat, clock := testDB(t)
	sql := "select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey"
	with := runSQL(t, cat, clock, sql, optimizer.Options{}, 512, newRecorder())
	without := runSQL(t, cat, clock, sql, optimizer.Options{}, 512, nil)
	if len(with) != len(without) {
		t.Fatal("reporter changed results")
	}
}

func TestClockAdvancesDuringExecution(t *testing.T) {
	cat, clock := testDB(t)
	before := clock.Now()
	runSQL(t, cat, clock, "select * from lineitem", optimizer.Options{}, 4, nil)
	if clock.Now() <= before {
		t.Fatal("execution must advance the virtual clock")
	}
}

func TestProjectionSchemaAndValues(t *testing.T) {
	cat, clock := testDB(t)
	rows := runSQL(t, cat, clock, "select name, custkey from customer where custkey = 7",
		optimizer.Options{}, 512, nil)
	if len(rows) != 1 || rows[0] != "(Customer#007, 7)" {
		t.Fatalf("rows = %v", rows)
	}
}

var _ plan.Node = (*plan.SeqScan)(nil) // keep plan import if assertions above change
