package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"progressdb"
)

// shardCfg is the fast-refresh engine config the fleet tests run on.
var shardCfg = progressdb.Config{
	ProgressUpdateSeconds: 0.25,
	SeqPageCost:           0.05,
	BufferPoolPages:       64,
}

// paperFleet loads the paper workload across n shards.
func paperFleet(t *testing.T, n int) *Fleet {
	t.Helper()
	f, err := New(Config{Shards: n, Shard: shardCfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	return f
}

// referenceDB loads the same workload into one unsharded engine.
func referenceDB(t *testing.T) *progressdb.DB {
	t.Helper()
	db := progressdb.Open(shardCfg)
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	return db
}

func rowKey(row []interface{}) string {
	var b strings.Builder
	for _, v := range row {
		fmt.Fprintf(&b, "%T:%v|", v, v)
	}
	return b.String()
}

func multiset(rows [][]interface{}) map[string]int {
	out := map[string]int{}
	for _, r := range rows {
		out[rowKey(r)]++
	}
	return out
}

func assertSameRows(t *testing.T, label string, want, got [][]interface{}, wantCols, gotCols []string) {
	t.Helper()
	if len(wantCols) != len(gotCols) {
		t.Fatalf("%s: columns %v vs fleet %v", label, wantCols, gotCols)
	}
	for i := range wantCols {
		if !strings.EqualFold(wantCols[i], gotCols[i]) {
			t.Fatalf("%s: column %d = %q, fleet %q", label, i, wantCols[i], gotCols[i])
		}
	}
	wm, gm := multiset(want), multiset(got)
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows single-engine, %d rows fleet", label, len(want), len(got))
	}
	for k, n := range wm {
		if gm[k] != n {
			t.Fatalf("%s: row %q count %d single-engine vs %d fleet", label, k, n, gm[k])
		}
	}
}

// The fleet's own part of its progress stream (the root equivalence
// harness checks the indicator's contract on every fleet run): Percent is
// clamped monotone and ends at 100 with work accounted, every report
// carries a per-shard breakdown, and Result.History holds every report the
// callback saw.
func TestFleetProgressMonotone(t *testing.T) {
	f := paperFleet(t, 4)

	var reports []Report
	res, err := f.Exec(`select * from lineitem`, func(r Report) { reports = append(reports, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 2 {
		t.Fatalf("only %d progress reports", len(reports))
	}
	lastPct := -1.0
	for i, r := range reports {
		if r.Percent < lastPct {
			t.Fatalf("report %d: Percent %g < %g — not monotone", i, r.Percent, lastPct)
		}
		lastPct = r.Percent
		if len(r.Shards) == 0 || len(r.Shards) > 4 {
			t.Fatalf("report %d has %d shard entries", i, len(r.Shards))
		}
		for _, sr := range r.Shards {
			if sr.Shard < 0 || sr.Shard >= 4 {
				t.Fatalf("report %d names shard %d", i, sr.Shard)
			}
		}
	}
	if final := reports[len(reports)-1]; final.Percent != 100 || final.DoneU <= 0 {
		t.Fatalf("final report: %.1f%%, DoneU %g", final.Percent, final.DoneU)
	}
	if len(res.History) != len(reports) {
		t.Fatalf("Result.History has %d entries, callback saw %d", len(res.History), len(reports))
	}
	if len(res.Shards) != 4 {
		t.Fatalf("Result.Shards has %d entries", len(res.Shards))
	}
	var shardRows int
	for _, sr := range res.Shards {
		shardRows += sr.Rows
		if sr.VirtualSeconds > res.VirtualSeconds {
			t.Fatalf("shard %d vclock %g exceeds barrier-merged %g", sr.Shard, sr.VirtualSeconds, res.VirtualSeconds)
		}
	}
	if shardRows != len(res.Rows) {
		t.Fatalf("shard contributions sum to %d rows, merged result has %d", shardRows, len(res.Rows))
	}
}

// Queries the coordinator cannot distribute must be rejected with
// ErrUnsupported, naming the reason — never silently wrong.
func TestFleetRejectsUnsupported(t *testing.T) {
	f := paperFleet(t, 4)

	cases := []string{
		// orders is hashed on custkey, lineitem on orderkey: not co-partitioned.
		`select o.orderkey, l.quantity from orders o, lineitem l where o.orderkey = l.orderkey`,
		// non-equi join predicate (the paper's Q5 shape).
		`select * from customer_subset1 c1, customer_subset2 c2 where c1.custkey <> c2.custkey`,
		// subquery.
		`select * from customer c where exists (select * from orders o where o.custkey = c.custkey)`,
		// unregistered table.
		`select * from nosuchtable`,
		// ORDER BY column invisible to the merge.
		`select custkey from customer order by acctbal`,
	}
	for _, q := range cases {
		_, err := f.Exec(q, nil)
		if err == nil {
			t.Fatalf("%q: accepted, want ErrUnsupported", q)
		}
		if !errors.Is(err, ErrUnsupported) {
			t.Fatalf("%q: error %v does not wrap ErrUnsupported", q, err)
		}
	}
	var unsupported float64
	for _, s := range f.Metrics() {
		if s.Name == "fleet_queries_unsupported_total" {
			unsupported = s.Value
		}
	}
	if unsupported != float64(len(cases)) {
		t.Fatalf("fleet_queries_unsupported_total = %g, want %d", unsupported, len(cases))
	}
}

// One shard failing must cancel its siblings and surface a ShardError
// naming the culprit; the fleet stays usable and leak-free.
func TestFleetShardFailureCancelsSiblings(t *testing.T) {
	f := paperFleet(t, 4)
	// Empty the buffer pools so the scan must hit storage, then make
	// shard 2 fail its first post-bootstrap read, once; siblings are clean.
	if err := f.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	if err := f.SetShardFaultSpec(2, "seed=5,nthread=1,max=1"); err != nil {
		t.Fatal(err)
	}

	_, err := f.Exec(`select * from lineitem`, nil)
	if err == nil {
		t.Fatal("query succeeded despite injected shard fault")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a ShardError", err)
	}
	if se.Shard != 2 {
		t.Fatalf("blamed shard %d, want 2", se.Shard)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("root-cause error %v must not read as a cancellation", err)
	}
	if err := f.CheckLeaks(); err != nil {
		t.Fatalf("leaks after failed query: %v", err)
	}

	// max=1 spent the fault; the fleet must recover.
	res, err := f.Exec(`select count(*) from lineitem`, nil)
	if err != nil {
		t.Fatalf("fleet unusable after shard failure: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 12000 {
		t.Fatalf("recovery query returned %v", res.Rows)
	}

	var cancels, failed float64
	for _, s := range f.Metrics() {
		switch s.Name {
		case "fleet_cancels_propagated_total":
			cancels = s.Value
		case "fleet_queries_failed_total":
			failed = s.Value
		}
	}
	if cancels != 1 || failed != 1 {
		t.Fatalf("cancels=%g failed=%g, want 1/1", cancels, failed)
	}
}

// User cancellation reaches every shard and reads as context.Canceled.
func TestFleetUserCancel(t *testing.T) {
	f := paperFleet(t, 4)

	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err := f.ExecContext(ctx, `select * from lineitem`, func(Report) {
		if n++; n == 2 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("canceled query succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not satisfy errors.Is(context.Canceled)", err)
	}
	if err := f.CheckLeaks(); err != nil {
		t.Fatalf("leaks after cancel: %v", err)
	}
	if _, err := f.Exec(`select count(*) from customer`, nil); err != nil {
		t.Fatalf("fleet unusable after cancel: %v", err)
	}
}

// CreateTable/Insert routing: rows land on the shard their key hashes
// to, and queries see all of them.
func TestFleetInsertRouting(t *testing.T) {
	f, err := New(Config{Shards: 3, Shard: shardCfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CreateTable("kv", "k",
		progressdb.Col("k", progressdb.Int), progressdb.Col("v", progressdb.Text)); err != nil {
		t.Fatal(err)
	}
	const rows = 500
	for i := 0; i < rows; i++ {
		if err := f.Insert("kv", int64(i), fmt.Sprintf("v%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Analyze(); err != nil {
		t.Fatal(err)
	}
	res, err := f.Exec(`select * from kv`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != rows {
		t.Fatalf("%d rows back, want %d", len(res.Rows), rows)
	}
	seen := map[int64]bool{}
	for _, r := range res.Rows {
		seen[r[0].(int64)] = true
	}
	if len(seen) != rows {
		t.Fatalf("%d distinct keys, want %d", len(seen), rows)
	}
	// Spread: with FNV routing no shard should hold everything.
	busy := 0
	for _, sr := range res.Shards {
		if sr.Rows > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 3 shards hold rows — routing is degenerate", busy)
	}

	if err := f.Insert("unknown", int64(1)); err == nil {
		t.Fatal("insert into unregistered table accepted")
	}
	if err := f.CreateTable("bad", "nope", progressdb.Col("k", progressdb.Int)); err == nil {
		t.Fatal("partition key outside schema accepted")
	}
}

// A single-shard fleet is the degenerate case: everything routes to
// shard 0 and results match trivially.
func TestFleetSingleShard(t *testing.T) {
	f := paperFleet(t, 1)
	res, err := f.Exec(`select count(*) from customer`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 300 {
		t.Fatalf("count = %v, want 300", res.Rows[0][0])
	}
}

// subqueriesExecuted reads the coordinator's executed-subquery counter.
func subqueriesExecuted(t *testing.T, f *Fleet) float64 {
	t.Helper()
	for _, sm := range f.Metrics() {
		if sm.Name == "fleet_subqueries_total" {
			return sm.Value
		}
	}
	t.Fatal("fleet_subqueries_total not registered")
	return 0
}

// TestFleetPrepare: the fleet statement's CostU is the sum of per-shard
// optimizer estimates, Prepare plans without executing, unsupported
// queries are rejected the same way exec rejects them, and the statement
// runs on every shard as prepared.
func TestFleetPrepare(t *testing.T) {
	f := paperFleet(t, 3)
	const sql = `select count(*) from lineitem`
	st, err := f.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if st.CostU() <= 0 {
		t.Fatalf("estimate = %g, want > 0", st.CostU())
	}
	var perShard float64
	for i := 0; i < f.Shards(); i++ {
		ss, err := f.shards[i].db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		perShard += ss.CostU()
	}
	if diff := st.CostU() - perShard; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("fleet estimate %g != sum of shard estimates %g", st.CostU(), perShard)
	}
	if _, err := f.Prepare(`select * from customer c, lineitem l where c.nationkey = l.orderkey`); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("prepare of non-co-partitioned join: %v, want ErrUnsupported", err)
	}
	if subqueriesExecuted(t, f) != 0 {
		t.Fatal("Prepare executed a subquery")
	}
	res, err := st.ExecContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Exec(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, want.Rows) {
		t.Fatalf("prepared rows %v, Exec rows %v", res.Rows, want.Rows)
	}
	if got := subqueriesExecuted(t, f); got != 2*float64(f.Shards()) {
		t.Fatalf("fleet_subqueries_total = %g after two runs, want %d", got, 2*f.Shards())
	}
}

// ExecDiscard must merge no rows but still count them, report shard
// contributions and a terminal progress event.
func TestFleetExecDiscard(t *testing.T) {
	f := paperFleet(t, 2)
	for _, sql := range []string{
		`select * from orders`,
		`select * from orders order by totalprice limit 7`,
		`select nationkey, count(*) from customer group by nationkey`,
	} {
		var last Report
		res, err := f.ExecDiscard(sql, func(r Report) { last = r })
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != nil {
			t.Fatalf("%s: discard kept %d rows", sql, len(res.Rows))
		}
		if !last.Finished || last.Percent != 100 {
			t.Fatalf("%s: discard final report: %+v", sql, last.Report)
		}
		if len(res.Columns) == 0 {
			t.Fatalf("%s: discard lost column names", sql)
		}
		kept, err := f.Exec(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsDiscarded != len(kept.Rows) || len(kept.Rows) == 0 {
			t.Fatalf("%s: discard counted %d rows, Exec returned %d", sql, res.RowsDiscarded, len(kept.Rows))
		}
	}
}
