package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

func TestGlobalAggregates(t *testing.T) {
	cat, clock := testDB(t)
	rows := runSQL(t, cat, clock,
		"select count(*), sum(totalprice), min(orderkey), max(orderkey), avg(totalprice) from orders",
		optimizer.Options{}, 512, nil)
	if len(rows) != 1 {
		t.Fatalf("global aggregate rows = %d", len(rows))
	}
	// orders: 1000 rows, totalprice = i*1.5 → sum = 1.5*999*1000/2.
	wantSum := 1.5 * 999 * 1000 / 2
	want := fmt.Sprintf("(1000, %g, 0, 999, %g)", wantSum, wantSum/1000)
	if rows[0] != want {
		t.Fatalf("aggregates = %s, want %s", rows[0], want)
	}
}

func TestGroupByCorrectness(t *testing.T) {
	cat, clock := testDB(t)
	rows := runSQL(t, cat, clock,
		"select nationkey, count(*) from customer group by nationkey order by nationkey",
		optimizer.Options{}, 512, nil)
	// 100 customers, nationkey = i%25 → 25 groups of 4. (runSQL sorts
	// result strings, so compare as a set.)
	if len(rows) != 25 {
		t.Fatalf("groups = %d", len(rows))
	}
	got := map[string]bool{}
	for _, r := range rows {
		got[r] = true
	}
	for i := 0; i < 25; i++ {
		if !got[fmt.Sprintf("(%d, 4)", i)] {
			t.Fatalf("missing group %d in %v", i, rows)
		}
	}
}

func TestGroupByOverJoin(t *testing.T) {
	cat, clock := testDB(t)
	rows := runSQL(t, cat, clock, `
		select c.custkey, count(*), sum(o.totalprice)
		from customer c, orders o
		where c.custkey = o.custkey
		group by c.custkey order by c.custkey`,
		optimizer.Options{}, 512, nil)
	if len(rows) != 100 {
		t.Fatalf("groups = %d, want 100", len(rows))
	}
	// Every customer has exactly 10 orders.
	if !strings.HasPrefix(rows[0], "(0, 10, ") {
		t.Fatalf("group 0 = %s", rows[0])
	}
}

func TestDistinctViaGroupBy(t *testing.T) {
	cat, clock := testDB(t)
	rows := runSQL(t, cat, clock,
		"select nationkey from customer group by nationkey", optimizer.Options{}, 512, nil)
	if len(rows) != 25 {
		t.Fatalf("distinct nationkeys = %d", len(rows))
	}
}

func TestOrderByAscDesc(t *testing.T) {
	cat, clock := testDB(t)
	// runSQL sorts results, hiding order; run manually.
	stmt, err := sqlparser.Parse("select custkey from customer where custkey < 10 order by custkey desc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.Plan(cat, stmt, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := segment.Decompose(p, 512)
	env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: 512, Decomp: d}
	var got []int64
	if _, err := Run(env, p, func(tp tuple.Tuple) error {
		got = append(got, tp[0].I)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("rows = %d", len(got))
	}
	for i, v := range got {
		if v != int64(9-i) {
			t.Fatalf("descending order broken: %v", got)
		}
	}
}

func TestLimitStopsEarly(t *testing.T) {
	cat, clock := testDB(t)
	rows := runSQL(t, cat, clock, "select * from lineitem limit 7", optimizer.Options{}, 512, nil)
	if len(rows) != 7 {
		t.Fatalf("limit rows = %d", len(rows))
	}
	// Limit larger than the result is a no-op.
	rows = runSQL(t, cat, clock, "select * from customer limit 100000", optimizer.Options{}, 512, nil)
	if len(rows) != 100 {
		t.Fatalf("big limit rows = %d", len(rows))
	}
	rows = runSQL(t, cat, clock, "select * from customer limit 0", optimizer.Options{}, 512, nil)
	if len(rows) != 0 {
		t.Fatalf("limit 0 rows = %d", len(rows))
	}
}

func TestOrderByWithLimitTopN(t *testing.T) {
	cat, clock := testDB(t)
	stmt, _ := sqlparser.Parse("select orderkey, totalprice from orders order by totalprice desc limit 3")
	p, err := optimizer.Plan(cat, stmt, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := segment.Decompose(p, 512)
	env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: 512, Decomp: d}
	var got []float64
	if _, err := Run(env, p, func(tp tuple.Tuple) error {
		got = append(got, tp[1].F())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// totalprice = i*1.5 → top three are 999, 998, 997 × 1.5.
	want := []float64{1498.5, 1497, 1495.5}
	if len(got) != 3 {
		t.Fatalf("rows = %v", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("top-n = %v, want %v", got, want)
		}
	}
}

// Aggregation is a blocking operator: it must form its own segment whose
// outputs are counted, and work accounting must stay consistent.
func TestAggSegmentAccounting(t *testing.T) {
	cat, clock := testDB(t)
	rec := newRecorder()
	stmt, _ := sqlparser.Parse(
		"select nationkey, count(*) from customer group by nationkey")
	p, err := optimizer.Plan(cat, stmt, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The plan: Project? over HashAgg over scan; HashAgg is blocking.
	foundAgg := false
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if _, ok := n.(*plan.HashAgg); ok {
			foundAgg = true
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p)
	if !foundAgg {
		t.Fatalf("no HashAgg in plan:\n%s", plan.Format(p))
	}
	d := segment.Decompose(p, 512)
	if len(d.Segments) != 2 {
		t.Fatalf("agg query wants 2 segments:\n%s", d)
	}
	if d.Segments[0].Kind != segment.KindAggregate {
		t.Fatalf("producer kind = %v", d.Segments[0].Kind)
	}
	env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: 512, Reporter: rec, Decomp: d}
	if _, err := Run(env, p, nil); err != nil {
		t.Fatal(err)
	}
	// 25 groups emitted as segment output, consumed as final input.
	if rec.outputCount[0] != 25 {
		t.Fatalf("agg segment emitted %d groups", rec.outputCount[0])
	}
	if rec.inputTuples[[2]int{1, 0}] != 25 {
		t.Fatalf("final segment read %d groups", rec.inputTuples[[2]int{1, 0}])
	}
	if len(rec.done) != 2 {
		t.Fatalf("segment completions: %v", rec.done)
	}
}

func TestAggregateOverEmptyTable(t *testing.T) {
	cat, clock := testDB(t)
	// Predicate selects nothing.
	rows := runSQL(t, cat, clock,
		"select count(*) from customer where custkey < 0", optimizer.Options{}, 512, nil)
	// No groups → no rows (SQL would return one row for a global
	// aggregate over an empty input; our grouping-by-nothing yields no
	// groups — documented engine behaviour).
	if len(rows) > 1 {
		t.Fatalf("rows = %v", rows)
	}
	rows = runSQL(t, cat, clock,
		"select nationkey, count(*) from customer where custkey < 0 group by nationkey",
		optimizer.Options{}, 512, nil)
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

// hashAgg indexes a single Int group key by its int64 and every other key
// by its encoding. Grouping by (k, one), one a constant column, is the
// encoded path run alone; grouping by k must give the same groups in the
// same first-seen order with the same aggregates, whatever k holds — Ints
// that are one float64 (2^53±1), the extremes, a Float or String column
// (the fallback), or Int and Float kinds mixed in one column, where 1 and
// 1.0 are two groups.
func TestHashAggIntKeyMatchesGeneric(t *testing.T) {
	I, F, S := tuple.NewInt, tuple.NewFloat, tuple.NewString
	type pool struct {
		typ  tuple.Type
		pool []tuple.Value
	}
	pools := map[string]pool{
		"int":    {tuple.Int, []tuple.Value{I(0), I(1), I(-1), I(1<<53 - 1), I(1 << 53), I(1<<53 + 1), I(math.MinInt64), I(math.MaxInt64)}},
		"float":  {tuple.Float, []tuple.Value{F(0), F(1), F(1 << 53), F(-2.5), F(math.Inf(1))}},
		"string": {tuple.String, []tuple.Value{S(""), S("1"), S("a"), S("ab")}},
		"mixed":  {tuple.Int, []tuple.Value{I(1), F(1), I(1 << 53), F(1 << 53), I(0), F(0), I(1<<53 + 1)}},
	}
	for name, keys := range intKeyShapes(100) {
		p := pool{typ: tuple.Int}
		for _, k := range keys {
			p.pool = append(p.pool, I(k))
		}
		pools[name] = p
	}
	for name, keys := range pools {
		rng := rand.New(rand.NewSource(23))
		clock := vclock.New(vclock.Costs{SeqPage: 1e-5, RandPage: 8e-5, CPUTuple: 1e-8}, nil)
		cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 256))
		tb, err := cat.CreateTable("g", tuple.NewSchema(
			tuple.Column{Name: "k", Type: keys.typ},
			tuple.Column{Name: "one", Type: tuple.Int},
			tuple.Column{Name: "v", Type: tuple.Int}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			// Keys are first seen in pool order, then drawn at random.
			// Appended past catalog.Insert, which would refuse the mixed column.
			k := keys.pool[i%len(keys.pool)]
			if i >= len(keys.pool) {
				k = keys.pool[rng.Intn(len(keys.pool))]
			}
			row := tuple.Tuple{k, I(1), I(rng.Int63n(1000) - 500)}
			if _, err := tb.Heap.Append(row.Encode(nil)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.Heap.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := cat.AnalyzeAll(); err != nil {
			t.Fatal(err)
		}
		run := func(sql string) []tuple.Tuple {
			stmt, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			p, err := optimizer.Plan(cat, stmt, optimizer.Options{})
			if err != nil {
				t.Fatal(err)
			}
			env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: 512, Decomp: segment.Decompose(p, 512)}
			var rows []tuple.Tuple
			if _, err := Run(env, p, func(tp tuple.Tuple) error {
				rows = append(rows, tp.Clone())
				return nil
			}); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			return rows
		}
		const aggs = "count(*), sum(v), min(v), max(v), avg(v)"
		got := run("select k, " + aggs + " from g group by k")
		want := run("select k, one, " + aggs + " from g group by k, one")
		if len(got) != len(want) || len(got) != len(keys.pool) {
			t.Fatalf("%s keys: %d groups by k, %d by (k, one), %d distinct keys", name, len(got), len(want), len(keys.pool))
		}
		for g := range want {
			w := append(tuple.Tuple{want[g][0]}, want[g][2:]...)
			if !reflect.DeepEqual(got[g], w) {
				t.Fatalf("%s keys: group %d by k = %v, by (k, one) = %v", name, g, got[g], w)
			}
		}
	}
}
