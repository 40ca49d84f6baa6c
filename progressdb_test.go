package progressdb

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"progressdb/internal/storage"
	"progressdb/internal/workload"
)

func TestFacadeQuickstart(t *testing.T) {
	db := Open(Config{})
	db.MustCreateTable("t",
		Col("k", Int), Col("x", Float), Col("s", Text))
	for i := 0; i < 100; i++ {
		db.MustInsert("t", int64(i), float64(i)*0.5, "row")
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("select k, s from t where k < 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() != 10 {
		t.Fatalf("rows = %d", res.RowCount())
	}
	if len(res.Columns) != 2 || res.Columns[0] != "t.k" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Rows[0][0].(int64) != 0 || res.Rows[0][1].(string) != "row" {
		t.Fatalf("row 0 = %v", res.Rows[0])
	}
}

func TestFacadeErrors(t *testing.T) {
	db := Open(Config{})
	if err := db.CreateTable("empty"); err == nil {
		t.Fatal("empty table must fail")
	}
	db.MustCreateTable("t", Col("k", Int))
	if err := db.Insert("t", struct{}{}); err == nil {
		t.Fatal("unsupported value type must fail")
	}
	if err := db.Insert("missing", int64(1)); err == nil {
		t.Fatal("insert into missing table must fail")
	}
	if _, err := db.Exec("select * from missing", nil); err == nil {
		t.Fatal("query of missing table must fail")
	}
	if _, err := db.Exec("not sql", nil); err == nil {
		t.Fatal("bad sql must fail")
	}
	if err := db.SetInterference("magnets", 0, 10, 2); err == nil {
		t.Fatal("bad interference kind must fail")
	}
}

// A float = compares by cmp.Compare: NaN equals no number (only NaN),
// and −0 equals +0.
func TestFacadeFloatEquality(t *testing.T) {
	db := Open(Config{})
	db.MustCreateTable("t", Col("x", Float))
	for _, x := range []float64{math.NaN(), 5, math.Copysign(0, -1), 0, 7} {
		db.MustInsert("t", x)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]int{
		"select * from t where x = 5": 1,
		"select * from t where x = 0": 2,
		"select * from t where x < 5": 3, // NaN sorts below every number
	} {
		res, err := db.Exec(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowCount() != want {
			t.Errorf("%s: %d rows %v, want %d", sql, res.RowCount(), res.Rows, want)
		}
	}
}

// Pages are values: the buffer pool hands out the disk's own page
// images, so a query that wrote into a page it read would change the
// table under every later query. Run the benchmark's nine analytic
// statements and an index lookup under its spill configuration — pool
// 128, work_mem 16: misses, evictions, Grace joins, external sorts —
// and require every base page byte-identical afterwards.
func TestQueriesLeaveBasePagesUntouched(t *testing.T) {
	db := Open(Config{BufferPoolPages: 128, WorkMemPages: 16})
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	for _, ix := range workload.BenchIndexes {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	// snapshot copies every base page as the disk holds it: after a cold
	// restart every Get reads through.
	snapshot := func() map[storage.PageID][]byte {
		t.Helper()
		if err := db.ColdRestart(); err != nil {
			t.Fatal(err)
		}
		pool := db.cat.Pool()
		pages := make(map[storage.PageID][]byte)
		for _, f := range pool.Disk().OpenFilesOfClass(storage.ClassBase) {
			n, err := pool.Disk().NumPages(f)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				pid := storage.PageID{File: f, Num: int32(i)}
				page, err := pool.Get(pid)
				if err != nil {
					t.Fatal(err)
				}
				pages[pid] = bytes.Clone(page)
			}
		}
		return pages
	}
	before := snapshot()
	if len(before) < 100 {
		t.Fatalf("only %d base pages: the workload did not load", len(before))
	}

	for _, st := range workload.BenchStatements[:workload.Mix9] {
		if _, err := db.ExecDiscard(st.SQL, nil); err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
	}
	// The index lookup an IndexScan makes (at this scale the optimizer
	// prefers scanning): descend the tree, fetch each matching row.
	orders, err := db.cat.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	rids, err := orders.IndexOn("custkey").Tree.Search(7)
	if err != nil || len(rids) == 0 {
		t.Fatalf("index lookup: %d rows, %v", len(rids), err)
	}
	for _, rid := range rids {
		if _, err := orders.Heap.FetchOn(db.clock, rid); err != nil {
			t.Fatal(err)
		}
	}

	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("%d base pages after the queries, %d before", len(after), len(before))
	}
	for pid, page := range before {
		if !bytes.Equal(after[pid], page) {
			t.Fatalf("base page %v changed under a read-only query", pid)
		}
	}
}

func TestFacadeIntConversion(t *testing.T) {
	db := Open(Config{})
	db.MustCreateTable("t", Col("k", Int))
	db.MustInsert("t", 42) // plain int converts
	db.Analyze()
	res, err := db.Exec("select * from t", nil)
	if err != nil || res.RowCount() != 1 || res.Rows[0][0].(int64) != 42 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestFacadeProgressCallbacks(t *testing.T) {
	db := Open(Config{ProgressUpdateSeconds: 0.5, SpeedWindowSeconds: 1, SeqPageCost: 0.01, RandPageCost: 0.08})
	db.MustCreateTable("big", Col("k", Int), Col("pad", Text))
	pad := strings.Repeat("x", 100)
	for i := 0; i < 20000; i++ {
		db.MustInsert("big", int64(i), pad)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	var reports []Report
	res, err := db.ExecDiscard("select * from big", func(r Report) { reports = append(reports, r) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nil {
		t.Fatal("ExecDiscard must not materialize rows")
	}
	if len(reports) < 2 {
		t.Fatalf("got %d progress reports", len(reports))
	}
	final := reports[len(reports)-1]
	if !final.Finished || final.Percent != 100 {
		t.Fatalf("final report: %+v", final)
	}
	if len(res.History) != len(reports) {
		t.Fatalf("history %d != callbacks %d", len(res.History), len(reports))
	}
	if math.Abs(final.EstimatedCostU-final.DoneU) > 1e-6*final.DoneU {
		t.Fatalf("final estimate %g != done %g", final.EstimatedCostU, final.DoneU)
	}
}

func TestFacadeInterference(t *testing.T) {
	mk := func() *DB {
		db := Open(Config{ProgressUpdateSeconds: 0.5, SeqPageCost: 0.01, RandPageCost: 0.08})
		db.MustCreateTable("big", Col("k", Int), Col("pad", Text))
		pad := strings.Repeat("x", 100)
		for i := 0; i < 20000; i++ {
			db.MustInsert("big", int64(i), pad)
		}
		if err := db.Analyze(); err != nil {
			t.Fatal(err)
		}
		db.ColdRestart()
		return db
	}
	base, err := mk().ExecDiscard("select * from big", nil)
	if err != nil {
		t.Fatal(err)
	}
	db := mk()
	if err := db.SetInterference("io", db.Now(), db.Now()+1e6, 5); err != nil {
		t.Fatal(err)
	}
	slow, err := db.ExecDiscard("select * from big", nil)
	if err != nil {
		t.Fatal(err)
	}
	if slow.VirtualSeconds < base.VirtualSeconds*2 {
		t.Fatalf("5x I/O interference barely slowed the scan: %.2f vs %.2f",
			slow.VirtualSeconds, base.VirtualSeconds)
	}
	db.ClearInterference()
}

func TestFacadePaperWorkload(t *testing.T) {
	db := Open(Config{WorkMemPages: 16})
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	sql, err := PaperQuery(2)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := db.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "SeqScan lineitem") || !strings.Contains(ex, "[dominant]") {
		t.Fatalf("explain:\n%s", ex)
	}
	db.ColdRestart()
	res, err := db.ExecDiscard(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every lineitem row survives (absolute(partkey)>0 is always true):
	// |result| = |lineitem| = 300 customers × 10 × 4.
	if got := len(res.History); got == 0 {
		t.Fatal("no history")
	}
	if res.VirtualSeconds <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestFacadeIndexAndExplain(t *testing.T) {
	db := Open(Config{})
	db.MustCreateTable("t", Col("k", Int), Col("v", Text))
	for i := 0; i < 5000; i++ {
		db.MustInsert("t", int64(i), "v")
	}
	if err := db.CreateIndex("t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	ex, err := db.Explain("select * from t where k = 7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "IndexScan") {
		t.Fatalf("expected index scan:\n%s", ex)
	}
	res, err := db.Exec("select * from t where k = 7", nil)
	if err != nil || res.RowCount() != 1 {
		t.Fatalf("index query: %d rows, %v", res.RowCount(), err)
	}
}

func TestFormatReport(t *testing.T) {
	s := FormatReport("Q2", Report{ElapsedSeconds: 61, RemainingSeconds: 30, Percent: 50, EstimatedCostU: 1000, SpeedU: 10})
	for _, want := range []string{"Q2", "1 min 1 sec", "1000 U", "10 U/Sec"} {
		if !strings.Contains(s, want) {
			t.Fatalf("FormatReport missing %q:\n%s", want, s)
		}
	}
}

func TestFacadeAggregationAndOrderBy(t *testing.T) {
	db := Open(Config{})
	db.MustCreateTable("sales", Col("region", Int), Col("amount", Float))
	for i := 0; i < 1000; i++ {
		db.MustInsert("sales", int64(i%4), float64(i))
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(
		"select region, count(*), sum(amount) from sales group by region order by region limit 3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() != 3 {
		t.Fatalf("rows = %d", res.RowCount())
	}
	if res.Columns[1] != "count(*)" || res.Columns[2] != "sum(amount)" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Rows[0][0].(int64) != 0 || res.Rows[0][1].(int64) != 250 {
		t.Fatalf("row 0 = %v", res.Rows[0])
	}
	// region 0 amounts: 0,4,8,...,996 → sum = 4*(0+1+...+249) = 124500.
	if got := res.Rows[0][2].(float64); got != 124500 {
		t.Fatalf("sum = %g", got)
	}
	// Aggregates of missing columns fail cleanly.
	if _, err := db.Exec("select nosuch, count(*) from sales group by nosuch", nil); err == nil {
		t.Fatal("bad group by must fail")
	}
	if _, err := db.Exec("select amount, count(*) from sales group by region", nil); err == nil {
		t.Fatal("non-grouped plain column must fail")
	}
	if _, err := db.Exec("select region from sales order by amount", nil); err == nil {
		t.Fatal("order by column missing from select list must fail")
	}
}

func TestFacadeSubqueries(t *testing.T) {
	db := Open(Config{WorkMemPages: 64})
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`
		select c.custkey from customer c
		where c.nationkey < 5 and exists (
			select * from orders o where o.custkey = c.custkey)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All 300 customers have orders; nationkey<5 keeps 60.
	if res.RowCount() != 60 {
		t.Fatalf("rows = %d, want 60", res.RowCount())
	}
	ex, err := db.Explain("select custkey from customer where custkey not in (select custkey from orders)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "AntiHashSemiJoin") {
		t.Fatalf("explain:\n%s", ex)
	}
}

// The per-segment estimated-vs-actual table is the tail of
// ExplainAnalyze's text, after the annotated plan tree.
func TestFacadeExplainAnalyze(t *testing.T) {
	db := Open(Config{WorkMemPages: 16})
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	sql, _ := PaperQuery(2)
	res, text, err := db.ExplainAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualSeconds <= 0 {
		t.Fatal("no time elapsed")
	}
	table := text[strings.Index(text, "\n\n")+2:]
	if !strings.Contains(table, "est U") || strings.Count(table, "\n") < 3 {
		t.Fatalf("analyze table:\n%s", table)
	}
	if _, _, err := db.ExplainAnalyze("not sql"); err == nil {
		t.Fatal("bad sql must fail")
	}
}
