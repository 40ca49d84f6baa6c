package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"progressdb"
	"progressdb/internal/tuple"
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

// The acceptance criterion: a 4-shard query returns rows identical (as a
// multiset) to the same query on a 1-shard engine — across scans,
// filters, co-partitioned joins, and re-aggregated aggregates.
func TestFleetMatchesSingleEngine(t *testing.T) {
	f := paperFleet(t, 4)
	ref := referenceDB(t)

	queries := []string{
		`select * from lineitem`,
		`select * from customer where nationkey < 10`,
		`select c.custkey, c.acctbal, o.orderkey, o.totalprice from customer c, orders o where c.custkey = o.custkey`,
		`select c.custkey, c.acctbal, o.orderkey from customer c, orders o where c.custkey = o.custkey and c.nationkey < 5`,
		`select nationkey, count(*), min(acctbal), max(acctbal) from customer group by nationkey`,
		`select count(*), sum(quantity), avg(quantity) from lineitem`,
		`select count(*) from orders`,
		`select mktsegment from customer group by mktsegment`,
	}
	for _, q := range queries {
		want, err := ref.Exec(q, nil)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		got, err := f.Exec(q, nil)
		if err != nil {
			t.Fatalf("fleet %q: %v", q, err)
		}
		assertSameRows(t, q, want.Rows, got.Rows, want.Columns, got.Columns)
	}
}

// ORDER BY + LIMIT: pushed down per shard, re-merged globally — the
// result must be exactly the single-engine ordered prefix.
func TestFleetOrderedLimit(t *testing.T) {
	f := paperFleet(t, 4)
	ref := referenceDB(t)

	for _, q := range []string{
		`select custkey, name from customer order by custkey limit 25`,
		`select custkey, acctbal from customer order by custkey desc limit 10`,
		`select nationkey, count(*) from customer group by nationkey order by nationkey`,
	} {
		want, err := ref.Exec(q, nil)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		got, err := f.Exec(q, nil)
		if err != nil {
			t.Fatalf("fleet %q: %v", q, err)
		}
		if len(want.Rows) != len(got.Rows) {
			t.Fatalf("%q: %d vs %d rows", q, len(want.Rows), len(got.Rows))
		}
		for i := range want.Rows {
			if rowKey(want.Rows[i]) != rowKey(got.Rows[i]) {
				t.Fatalf("%q row %d: %v vs %v", q, i, want.Rows[i], got.Rows[i])
			}
		}
	}
}

// Global progress must be monotone in DoneU and Percent, carry a
// per-shard breakdown, and end in exactly one terminal report.
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
	terminals := 0
	lastDone, lastPct := -1.0, -1.0
	for i, r := range reports {
		if r.DoneU < lastDone {
			t.Fatalf("report %d: DoneU %g < %g — not monotone", i, r.DoneU, lastDone)
		}
		if r.Percent < lastPct {
			t.Fatalf("report %d: Percent %g < %g — not monotone", i, r.Percent, lastPct)
		}
		lastDone, lastPct = r.DoneU, r.Percent
		if r.Finished {
			terminals++
			if i != len(reports)-1 {
				t.Fatalf("terminal report at %d of %d", i, len(reports))
			}
		}
		if len(r.Shards) == 0 || len(r.Shards) > 4 {
			t.Fatalf("report %d has %d shard entries", i, len(r.Shards))
		}
		for _, sr := range r.Shards {
			if sr.Shard < 0 || sr.Shard >= 4 {
				t.Fatalf("report %d names shard %d", i, sr.Shard)
			}
		}
	}
	if terminals != 1 {
		t.Fatalf("%d terminal reports, want exactly 1", terminals)
	}
	final := reports[len(reports)-1]
	if final.Percent != 100 || !final.Finished {
		t.Fatalf("final report: %.1f%% finished=%v", final.Percent, final.Finished)
	}
	if final.DoneU <= 0 {
		t.Fatal("final DoneU is zero — no work accounted")
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

// Aggregate math spot check with floats: merged avg must equal the
// reference within float tolerance even when per-shard sums round
// differently.
func TestFleetFloatAggregateTolerance(t *testing.T) {
	f := paperFleet(t, 4)
	ref := referenceDB(t)
	q := `select avg(acctbal), sum(acctbal) from customer`
	want, err := ref.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		w, g := want.Rows[0][i].(float64), got.Rows[0][i].(float64)
		if math.Abs(w-g) > 1e-6*math.Max(1, math.Abs(w)) {
			t.Fatalf("col %d: %g vs %g", i, w, g)
		}
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

// TestFleetEstimateCostU: the fleet estimate is the sum of per-shard
// optimizer estimates, it prices without executing, and unsupported
// queries are rejected the same way exec rejects them.
func TestFleetEstimateCostU(t *testing.T) {
	f := paperFleet(t, 3)
	u, err := f.EstimateCostU(`select count(*) from lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	if u <= 0 {
		t.Fatalf("estimate = %g, want > 0", u)
	}
	var perShard float64
	for i := 0; i < f.Shards(); i++ {
		su, err := f.shards[i].db.EstimateCostU(`select count(*) from lineitem`)
		if err != nil {
			t.Fatal(err)
		}
		perShard += su
	}
	if diff := u - perShard; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("fleet estimate %g != sum of shard estimates %g", u, perShard)
	}
	if _, err := f.EstimateCostU(`select * from customer c, lineitem l where c.nationkey = l.orderkey`); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("estimate of non-co-partitioned join: %v, want ErrUnsupported", err)
	}
	if subqueriesExecuted(t, f) != 0 {
		t.Fatal("EstimateCostU executed a subquery")
	}
}

// floatRows is the adversarial float column: both zeros, two NaNs,
// three plain numbers — values on which a merge that orders or keys
// floats by its own rules parts ways with the engine.
var floatRows = []float64{0, math.Copysign(0, -1), math.NaN(), 1, 2, math.NaN(), math.Copysign(0, -1), 3}

// canonRows copies rows with every float cell in its Canonical form, so
// cells the engine calls equal (−0 and +0, any two NaNs) print alike.
func canonRows(rows [][]interface{}) [][]interface{} {
	out := make([][]interface{}, len(rows))
	for i, r := range rows {
		out[i] = append([]interface{}(nil), r...)
		for j, v := range r {
			if x, ok := v.(float64); ok {
				out[i][j] = tuple.NewFloat(x).Canonical().F()
			}
		}
	}
	return out
}

// TestFleetFloatMergeMatchesSingleEngine: the coordinator's merge
// orders, folds and groups float values exactly as one engine does — a
// NaN sorts below every number and equals every NaN, −0 equals +0 —
// because both decide through tuple.Value.Compare and Canonical.
func TestFleetFloatMergeMatchesSingleEngine(t *testing.T) {
	f, err := New(Config{Shards: 2, Shard: shardCfg})
	if err != nil {
		t.Fatal(err)
	}
	db := progressdb.Open(shardCfg)
	cols := []progressdb.Column{progressdb.Col("k", progressdb.Int), progressdb.Col("x", progressdb.Float)}
	for _, err := range []error{f.CreateTable("t", "k", cols...), db.CreateTable("t", cols...)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for k, x := range floatRows {
		for _, err := range []error{f.Insert("t", int64(k), x), db.Insert("t", int64(k), x)} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, err := range []error{f.Analyze(), db.Analyze()} {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, q := range []string{
		`select x, count(*) from t group by x`,
		`select min(x), max(x) from t`,
		`select k, x from t order by x`,
		`select k, x from t order by x desc`,
	} {
		want, err := db.Exec(q, nil)
		if err != nil {
			t.Fatalf("engine %q: %v", q, err)
		}
		got, err := f.Exec(q, nil)
		if err != nil {
			t.Fatalf("fleet %q: %v", q, err)
		}
		w, g := canonRows(want.Rows), canonRows(got.Rows)
		assertSameRows(t, q, w, g, want.Columns, got.Columns)
		if !strings.Contains(q, "order by") {
			continue
		}
		// Rows whose x ties may come in either order; x itself must
		// match position by position.
		for i := range w {
			if fmt.Sprint(w[i][1]) != fmt.Sprint(g[i][1]) {
				t.Fatalf("%q: x at row %d is %v on the engine, %v on the fleet\nengine %v\nfleet  %v",
					q, i, w[i][1], g[i][1], w, g)
			}
		}
	}
}

// ExecDiscard must merge no rows but still report shard contributions
// and a terminal progress event.
func TestFleetExecDiscard(t *testing.T) {
	f := paperFleet(t, 2)
	var last Report
	res, err := f.ExecDiscard(`select * from orders`, func(r Report) { last = r })
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nil {
		t.Fatalf("discard kept %d rows", len(res.Rows))
	}
	if !last.Finished || last.Percent != 100 {
		t.Fatalf("discard final report: %+v", last.Report)
	}
	if len(res.Columns) == 0 {
		t.Fatal("discard lost column names")
	}
}
