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

// refAggState and refAggregate are the hash aggregate written plainly:
// one accumulator per aggregate per group, a float64 sum, the groups keyed
// by their Canonical encoding in first-seen order.
type refAggState struct {
	count  int64
	sum    float64
	minmax tuple.Value
	seen   bool
}

func refAggregate(rows []tuple.Tuple, groupCols []int, aggs []plan.AggSpec) []tuple.Tuple {
	index := map[string]int{}
	var keys []tuple.Tuple
	var states [][]refAggState
	for _, t := range rows {
		key := make(tuple.Tuple, len(groupCols))
		var enc []byte
		for i, c := range groupCols {
			key[i] = t[c]
			enc = t[c].Canonical().Encode(enc)
		}
		g, ok := index[string(enc)]
		if !ok {
			g = len(keys)
			index[string(enc)] = g
			keys = append(keys, key)
			states = append(states, make([]refAggState, len(aggs)))
		}
		for i, sp := range aggs {
			var v tuple.Value
			if sp.Col >= 0 {
				v = t[sp.Col]
			}
			acc := &states[g][i]
			acc.count++
			switch sp.Kind {
			case plan.AggSum, plan.AggAvg:
				acc.sum += v.AsFloat()
			case plan.AggMin, plan.AggMax:
				if !acc.seen {
					acc.minmax, acc.seen = v, true
					continue
				}
				c, _ := v.Compare(acc.minmax)
				if (sp.Kind == plan.AggMin && c < 0) || (sp.Kind == plan.AggMax && c > 0) {
					acc.minmax = v
				}
			}
		}
	}
	out := make([]tuple.Tuple, len(keys))
	for g, key := range keys {
		out[g] = key
		for i, sp := range aggs {
			acc := states[g][i]
			switch sp.Kind {
			case plan.AggCount:
				out[g] = append(out[g], tuple.NewInt(acc.count))
			case plan.AggSum:
				out[g] = append(out[g], tuple.NewFloat(acc.sum))
			case plan.AggAvg:
				out[g] = append(out[g], tuple.NewFloat(acc.sum/float64(acc.count)))
			case plan.AggMin, plan.AggMax:
				out[g] = append(out[g], acc.minmax)
			}
		}
	}
	return out
}

// The hash aggregate returns refAggregate's groups, in its first-seen
// order, with every cell equal to the bit: random inputs grouped by zero
// to three columns drawn from Floats (±0 and NaNs of either sign group as
// Compare calls them equal), Strings and Ints, with count, sum and avg
// over an Int and a Float column, min and max over those and a String.
func TestHashAggMatchesReference(t *testing.T) {
	F, I, S := tuple.NewFloat, tuple.NewInt, tuple.NewString
	cols := []tuple.Column{
		{Name: "f", Type: tuple.Float}, {Name: "s", Type: tuple.String}, {Name: "i", Type: tuple.Int},
		{Name: "vi", Type: tuple.Int}, {Name: "vf", Type: tuple.Float}, {Name: "vs", Type: tuple.String},
	}
	keyPools := [][]tuple.Value{
		{F(0), F(math.Copysign(0, -1)), F(math.NaN()), {Kind: tuple.Float, I: -1}, F(1.5), F(math.Inf(-1))},
		{S(""), S("a"), S("ab"), S("b")},
		{I(0), I(-1), I(1 << 53), I(1<<53 + 1), I(math.MinInt64)},
	}
	const aggs = "count(*), sum(vi), sum(vf), avg(vi), avg(vf), min(vi), max(vf), min(vs), max(vs), min(f), max(f)"
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 40; trial++ {
		rows := make([]tuple.Tuple, 1+rng.Intn(600))
		for r := range rows {
			row := make(tuple.Tuple, len(cols))
			for j, p := range keyPools {
				row[j] = p[rng.Intn(len(p))]
			}
			row[3] = I(rng.Int63n(2000) - 1000)
			row[4] = F(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15)))
			row[5] = S(fmt.Sprint(rng.Intn(50)))
			rows[r] = row
		}
		groupCols := rng.Perm(3)[:rng.Intn(4)]
		var names []string
		for _, c := range groupCols {
			names = append(names, cols[c].Name)
		}
		sql := "select " + aggs + " from t"
		if len(names) > 0 {
			sql = "select " + strings.Join(names, ", ") + ", " + aggs + " from t group by " + strings.Join(names, ", ")
		}
		cat, clock := rawTable(t, cols, rows)
		got, err := runRows(t, cat, clock, sql, 512)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want := refAggregate(rows, groupCols, []plan.AggSpec{
			{Kind: plan.AggCount, Col: -1}, {Kind: plan.AggSum, Col: 3}, {Kind: plan.AggSum, Col: 4},
			{Kind: plan.AggAvg, Col: 3}, {Kind: plan.AggAvg, Col: 4}, {Kind: plan.AggMin, Col: 3},
			{Kind: plan.AggMax, Col: 4}, {Kind: plan.AggMin, Col: 5}, {Kind: plan.AggMax, Col: 5},
			{Kind: plan.AggMin, Col: 0}, {Kind: plan.AggMax, Col: 0},
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s over %d rows: %d groups\n%v\nwant %d\n%v", sql, len(rows), len(got), got, len(want), want)
		}
	}
}
