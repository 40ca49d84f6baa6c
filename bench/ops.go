package main

import (
	"fmt"
	"math"
	"math/rand"

	"progressdb"
	"progressdb/internal/btree"
)

// class is one kind of query in a workload's op list.
type class struct {
	Name string
	// Layer is the per-layer metric carrying this class's median
	// executor time ("" for the serve_short lookups, which have none).
	Layer string
	// SQL is the statement; a %d in it takes a seeded customer key.
	SQL      string
	Keyed    bool
	KeepRows bool
	// Rows is the closed-form result cardinality the oracle checks at
	// set-up: a positive number of rows, rowsLineitem for |lineitem|, or
	// 0 for "no closed form".
	Rows int
}

const rowsLineitem = -1

func paperSQL(n int) string {
	s, err := progressdb.PaperQuery(n)
	if err != nil {
		panic(err) // n is a literal 1..5 below
	}
	return s
}

// mix9 is the nine-class analytic mix of engine_hot, engine_spill and
// serve_heavy: the paper's Q1–Q5 verbatim plus a sort, a small and a
// large aggregate and a semi-join. Order here is the class index spans
// and per-class metrics use.
var mix9 = []class{
	{Name: "q1", Layer: "exec.q1_scan_ms", SQL: paperSQL(1), Rows: rowsLineitem},
	{Name: "q2", Layer: "exec.q2_join3_ms", SQL: paperSQL(2), Rows: rowsLineitem},
	{Name: "q3", Layer: "exec.q3_corr_ms", SQL: paperSQL(3)},
	{Name: "q4", Layer: "exec.q4_join3f_ms", SQL: paperSQL(4), Rows: rowsLineitem},
	{Name: "q5", Layer: "exec.q5_nl_ms", SQL: paperSQL(5)},
	{Name: "sort", Layer: "exec.sort_ms", SQL: "select * from orders order by totalprice"},
	{Name: "agg_small", Layer: "exec.agg_small_ms", SQL: "select nationkey, count(*), sum(acctbal) from customer group by nationkey order by nationkey", Rows: 25},
	{Name: "agg_large", Layer: "exec.agg_large_ms", SQL: "select orderkey, count(*), sum(extendedprice) from lineitem group by orderkey"},
	{Name: "semi", Layer: "exec.semi_ms", SQL: "select * from customer c where exists (select * from orders o where o.custkey = c.custkey and o.totalprice > 1000)"},
}

// short3 is serve_short's mix: two indexed lookups that return their
// rows and one small scan that streams progress only.
var short3 = []class{
	{Name: "point", SQL: "select * from customer where custkey = %d", Keyed: true, KeepRows: true, Rows: 1},
	{Name: "orders", SQL: "select * from orders where custkey = %d", Keyed: true, KeepRows: true, Rows: ordersPerCustomer},
	{Name: "subset", SQL: "select * from customer_subset1"},
}

// ordersPerCustomer is the workload generator's fan-out: every customer
// has exactly this many orders, which is the orders lookup's closed form.
const ordersPerCustomer = 10

// straddlesLeaf reports whether customer k's orders entries cross a leaf
// boundary of the bulk-loaded orders.custkey index (BulkLoad fills leaves
// to 9/10). The oracle found, while this benchmark was being sized, that
// an index scan then returns only the entries of the right-hand leaf:
// btree.descend follows a separator equal to the key into the right
// child, so duplicates left behind in the previous leaf are never seen —
// 59 of the 3 000 keys at scale 0.02 return 2, 4, 6 or 8 rows instead of
// 10. The benchmark may not touch the engine and must run no failing op,
// so lookup keys are drawn from the customers the bug cannot reach; once
// internal/btree is fixed the rule excludes nothing that matters.
func straddlesLeaf(k int) bool {
	perLeaf := btree.MaxLeafEntries * 9 / 10
	first := k * ordersPerCustomer
	return first/perLeaf != (first+ordersPerCustomer-1)/perLeaf
}

// op is one query of a workload's fixed op list.
type op struct {
	ID    int // 1-based position in the list; spans carry it
	Class int // index into the workload's class table
	SQL   string
}

// nominalSeconds is the run length the op counts below were sized for
// on the 2-core host this benchmark was defined on; -seconds scales
// every count by seconds ÷ nominalSeconds, so a run stays a fixed list
// (exact per-class counts, exact virtual numbers) instead of a deadline
// that would let a faster client change the mix.
const nominalSeconds = 12

// mix9Counts are per-class op counts of one mix9 list at nominalSeconds,
// in mix9 order: 202 ops, so the p95 has ten samples beyond it. They are
// not equal on purpose. A quantile of a nine-class mix is the time of
// whichever class it lands in, and on the edge between two classes one
// outlier moves it by the whole gap (q3 ≈ 28 ms, sort ≈ 49 ms). These
// counts put the median well inside q3 on every workload (40 lighter
// ops, then 40 q1, then 72 q3: rank 101 is q3's 21st) and the p95 inside
// q4 (rank 192: two q5 and seven q4 above it, four q4 below), while
// keeping q5 — a fixed 9 M-pair nested loop, 1.7 s each — at a third of
// the wall instead of three quarters.
var mix9Counts = []int{40, 12, 72, 12, 2, 12, 20, 12, 20}

// shortOps is serve_short's list at nominalSeconds, split 45 % point
// lookups, 45 % orders lookups, 10 % subset scans.
const shortOps = 24000

var short3Shares = []float64{0.45, 0.45, 0.10}

// sizing is everything about a run that scales with its length.
type sizing struct {
	Scale float64 // LoadPaperWorkload scale
	// Mix and Short are per-class op counts.
	Mix, Short []int
	// Setups is how many times set-up is repeated; setup_s is the fastest.
	Setups int
	// Pairs is the number of interleaved with/without pairs behind the
	// two wall ratios; ProbeIters the calls per unit-cost probe loop.
	Pairs, ProbeIters int
	// Customers is the customer count at Scale (lookup keys are drawn
	// from [0, Customers)).
	Customers int
}

func scaleCount(c int, f float64) int {
	n := int(math.Round(float64(c) * f))
	if n < 1 {
		n = 1
	}
	return n
}

// sizingFor returns the op counts for a run of the given length.
func sizingFor(seconds int) sizing {
	f := float64(seconds) / nominalSeconds
	sz := sizing{Scale: 0.02, Setups: 2, Pairs: scaleCount(16, f), ProbeIters: 20000, Customers: 3000}
	for _, c := range mix9Counts {
		sz.Mix = append(sz.Mix, scaleCount(c, f))
	}
	total := float64(shortOps) * f
	for _, s := range short3Shares {
		sz.Short = append(sz.Short, scaleCount(int(total*s), 1))
	}
	return sz
}

// smokeSizing is the -smoke pass bench_test.go runs: a quarter of the
// data, 20 ops per workload, no q5 (its 3 000 × 3 000 nested loop does
// not shrink with scale and alone takes longer than the test may).
func smokeSizing() sizing {
	return sizing{
		Scale: 0.0025, Setups: 1, Pairs: 1, ProbeIters: 100, Customers: 375,
		Mix:   []int{3, 2, 3, 2, 0, 3, 3, 2, 2},
		Short: []int{9, 9, 2},
	}
}

// buildOps makes the fixed op list for one run: exactly counts[i] ops of
// class i, order and lookup keys drawn from seed.
//
// The list is two independently shuffled parts. The first is the traced
// quarter: a quarter of every class (at least one op of each class that
// has any), so the per-layer pass sees the same class mix for every
// seed. The second is the rest. No q5-sized op is left in the last
// tenth of the list: with two clients, a 1.7 s op starting as the list
// runs dry leaves the other client idle and moves goodput by up to 10 %
// depending on the seed alone.
func buildOps(classes []class, counts []int, customers int, seed int64) (ops []op, quarter int) {
	rng := rand.New(rand.NewSource(seed))
	var head, tail []int
	for ci, c := range counts {
		q := int(math.Round(float64(c) / 4))
		if q < 1 && c > 0 {
			q = 1
		}
		for i := 0; i < c; i++ {
			if i < q {
				head = append(head, ci)
			} else {
				tail = append(tail, ci)
			}
		}
	}
	rng.Shuffle(len(head), func(i, j int) { head[i], head[j] = head[j], head[i] })
	rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	order := append(head, tail...)
	last := len(order) - len(order)/10
	var swappable []int // rest-part positions before the last tenth holding a lighter op
	for j := len(head); j < last; j++ {
		if classes[order[j]].Name != "q5" {
			swappable = append(swappable, j)
		}
	}
	for i := last; i < len(order) && len(swappable) > 0; i++ {
		if classes[order[i]].Name == "q5" {
			k := rng.Intn(len(swappable))
			j := swappable[k]
			order[i], order[j] = order[j], order[i]
			swappable = append(swappable[:k], swappable[k+1:]...)
		}
	}
	ops = make([]op, len(order))
	for i, ci := range order {
		sql := classes[ci].SQL
		if classes[ci].Keyed {
			k := rng.Intn(customers)
			for straddlesLeaf(k) {
				k = rng.Intn(customers)
			}
			sql = fmt.Sprintf(sql, k)
		}
		ops[i] = op{ID: i + 1, Class: ci, SQL: sql}
	}
	return ops, len(head)
}

// classCounts tallies ops per class, for provenance and the tests.
func classCounts(classes []class, ops []op) map[string]int {
	out := make(map[string]int, len(classes))
	for _, o := range ops {
		out[classes[o.Class].Name]++
	}
	return out
}
