// Package workload generates the paper's test data set (Table 1) and
// defines its five queries.
//
// The schemas follow the TPC-R subset the paper lists; row widths are
// padded so the relation sizes land on Table 1's figures (customer 23 MB
// / 0.15 M rows, orders 114 MB / 1.5 M rows, lineitem 755 MB / 6 M rows
// at scale 1.0). Match rates reproduce the paper's: each customer matches
// ten orders on custkey, each order matches four lineitems on orderkey.
//
// For the Q3 experiment the paper modifies orders so that the per-
// customer order count correlates with nationkey (r = 20 for nationkey
// 0–9, r = 0 for 10–19, r = 10 for 20–24); CorrelatedOrders reproduces
// that variant, which breaks the optimizer's independence assumption.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"progressdb/internal/catalog"
	"progressdb/internal/tuple"
)

// Config controls data generation.
type Config struct {
	// Scale is the fraction of Table 1's cardinalities (1.0 = the
	// paper's sizes). Experiments default to a laptop-friendly scale;
	// relative sizes and fanouts are scale-invariant.
	Scale float64
	// Seed makes generation deterministic.
	Seed int64
	// CorrelatedOrders switches orders to the Q3 variant where the
	// per-customer fanout depends on the customer's nationkey.
	CorrelatedOrders bool
	// SubsetRows is the size of customer_subset1/2 (paper: 3000). These
	// do not scale: Q5 is CPU-bound at any data scale.
	SubsetRows int
	// Partition, when non-nil, loads only the rows whose partition key
	// hashes to Partition.Index of Partition.Count shards (see
	// PartitionKeys for each table's key). Generation still produces
	// every row in the same order, so the union of all partitions is
	// exactly the unpartitioned data set.
	Partition *PartitionSpec
}

func (c Config) withDefaults() Config {
	if !(c.Scale > 0) {
		c.Scale = 0.05
	}
	if c.SubsetRows == 0 {
		c.SubsetRows = 3000
	}
	return c
}

// Paper cardinalities at scale 1.0.
const (
	BaseCustomers = 150000
	OrdersPerCust = 10
	LinesPerOrder = 4
	nations       = 25
)

// Dataset describes what was loaded.
type Dataset struct {
	Config    Config
	Customers int
	Orders    int
	Lineitems int
	Subset    int
}

// CustomerSchema returns the paper's customer schema.
func CustomerSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "custkey", Type: tuple.Int},
		tuple.Column{Name: "name", Type: tuple.String},
		tuple.Column{Name: "address", Type: tuple.String},
		tuple.Column{Name: "nationkey", Type: tuple.Int},
		tuple.Column{Name: "phone", Type: tuple.String},
		tuple.Column{Name: "acctbal", Type: tuple.Float},
		tuple.Column{Name: "mktsegment", Type: tuple.String},
	)
}

// OrdersSchema returns the paper's orders schema.
func OrdersSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "orderkey", Type: tuple.Int},
		tuple.Column{Name: "custkey", Type: tuple.Int},
		tuple.Column{Name: "orderstatus", Type: tuple.String},
		tuple.Column{Name: "totalprice", Type: tuple.Float},
		tuple.Column{Name: "orderdate", Type: tuple.String},
		tuple.Column{Name: "shippriority", Type: tuple.Int},
	)
}

// LineitemSchema returns the paper's lineitem schema.
func LineitemSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "orderkey", Type: tuple.Int},
		tuple.Column{Name: "partkey", Type: tuple.Int},
		tuple.Column{Name: "suppkey", Type: tuple.Int},
		tuple.Column{Name: "linenumber", Type: tuple.Int},
		tuple.Column{Name: "quantity", Type: tuple.Int},
		tuple.Column{Name: "extendedprice", Type: tuple.Float},
		tuple.Column{Name: "discount", Type: tuple.Float},
		tuple.Column{Name: "tax", Type: tuple.Float},
		tuple.Column{Name: "returnflag", Type: tuple.String},
		tuple.Column{Name: "linestatus", Type: tuple.String},
	)
}

var (
	segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	statuses = []string{"O", "F", "P"}
	// Width padding calibrated against Table 1 (see package comment).
	addressPad    = strings.Repeat("a", 58)
	linestatusPad = strings.Repeat("s", 36)
)

// Load generates and loads all five relations into cat, then analyzes
// them (the paper runs the statistics collector before the experiments).
// With cfg.Partition set, only the owned slice of each relation is
// inserted; the Dataset counts then reflect the loaded partition, not the
// full data set.
func Load(cat *catalog.Catalog, cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Partition.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	ds := &Dataset{Config: cfg}
	for _, g := range cfg.generators(rng) {
		t, err := cat.CreateTable(g.name, g.schema)
		if err != nil {
			return nil, err
		}
		kept := 0
		for i := 0; i < g.n; i++ {
			row := g.row(i) // always generated: the rng sequence must not depend on ownership
			if !cfg.Partition.owns(g.key(i)) {
				continue
			}
			if err := cat.Insert(t, row); err != nil {
				return nil, err
			}
			kept++
		}
		if err := t.Heap.Sync(); err != nil {
			return nil, err
		}
		switch g.name {
		case "customer":
			ds.Customers = kept
		case "orders":
			ds.Orders = kept
		case "lineitem":
			ds.Lineitems = kept
		case "customer_subset1":
			ds.Subset = kept
		}
	}

	if err := cat.AnalyzeAll(); err != nil {
		return nil, err
	}
	return ds, nil
}

// orderCustkeys returns the custkey of every order. Uniform: each
// customer has exactly OrdersPerCust orders. Correlated (the Q3
// variant): nationkey 0–9 → 20 orders, 10–19 → 0, 20–24 → 10; the
// average stays OrdersPerCust.
func orderCustkeys(ncust int, correlated bool) []int64 {
	var out []int64
	if !correlated {
		out = make([]int64, 0, ncust*OrdersPerCust)
		for o := 0; o < ncust*OrdersPerCust; o++ {
			out = append(out, int64(o%ncust))
		}
		return out
	}
	for c := 0; c < ncust; c++ {
		r := 0
		switch nation := c % nations; {
		case nation < 10:
			r = 20
		case nation < 20:
			r = 0
		default:
			r = 10
		}
		for k := 0; k < r; k++ {
			out = append(out, int64(c))
		}
	}
	return out
}

func customerRow(i int, rng *rand.Rand) tuple.Tuple {
	return tuple.Tuple{
		tuple.NewInt(int64(i)),
		tuple.NewString(fmt.Sprintf("Customer#%09d", i)),
		tuple.NewString(addressPad),
		tuple.NewInt(int64(i % nations)),
		tuple.NewString(fmt.Sprintf("%02d-%03d-%03d-%04d", i%34+10, rng.Intn(900)+100, rng.Intn(900)+100, rng.Intn(9000)+1000)),
		tuple.NewFloat(float64(rng.Intn(1000000))/100 - 999.99),
		tuple.NewString(segments[i%len(segments)]),
	}
}

func orderRow(i int, custkey int64, rng *rand.Rand) tuple.Tuple {
	return tuple.Tuple{
		tuple.NewInt(int64(i)),
		tuple.NewInt(custkey),
		tuple.NewString(statuses[i%len(statuses)] + "-STATUS-CODE"),
		tuple.NewFloat(float64(rng.Intn(50000000))/100 + 1),
		tuple.NewString(fmt.Sprintf("199%d-%02d-%02d", i%7, i%12+1, i%28+1)),
		tuple.NewInt(int64(i % 5)),
	}
}

func lineitemRow(i int, rng *rand.Rand) tuple.Tuple {
	return tuple.Tuple{
		tuple.NewInt(int64(i / LinesPerOrder)),
		tuple.NewInt(int64(rng.Intn(200000) + 1)), // strictly positive: absolute(partkey) > 0 is always true
		tuple.NewInt(int64(rng.Intn(10000) + 1)),
		tuple.NewInt(int64(i%LinesPerOrder + 1)),
		tuple.NewInt(int64(rng.Intn(50) + 1)),
		tuple.NewFloat(float64(rng.Intn(10000000))/100 + 1),
		tuple.NewFloat(float64(rng.Intn(11)) / 100),
		tuple.NewFloat(float64(rng.Intn(9)) / 100),
		tuple.NewString(statuses[i%len(statuses)]),
		tuple.NewString(linestatusPad),
	}
}

// paperQueries are the paper's Q1–Q5, verbatim from Section 5.1.
var paperQueries = [...]string{
	`select * from lineitem`,
	`select c.custkey, c.acctbal, o.orderkey, o.totalprice, l.discount, l.extendedprice
			from customer c, orders o, lineitem l
			where c.custkey=o.custkey and o.orderkey=l.orderkey and absolute(l.partkey)>0`,
	`select c.custkey, c.acctbal, o1.orderkey, o1.totalprice, o2.totalprice
			from customer c, orders o1, orders o2
			where c.custkey=o1.custkey and o1.orderkey=o2.orderkey and c.nationkey<10`,
	`select c.custkey, c.acctbal, o.orderkey, o.totalprice, o.shippriority, l.discount, l.extendedprice
			from customer c, orders o, lineitem l
			where c.custkey=o.custkey and o.orderkey=l.orderkey and absolute(o.totalprice)>0 and absolute(l.partkey)>0`,
	`select * from customer_subset1 c1, customer_subset2 c2 where c1.custkey<>c2.custkey`,
}

// QuerySQL returns the paper's query text, verbatim from Section 5.1.
func QuerySQL(n int) (string, error) {
	if n < 1 || n > len(paperQueries) {
		return "", fmt.Errorf("workload: no query Q%d (paper defines Q1–Q5)", n)
	}
	return paperQueries[n-1], nil
}

// Statement is one statement of the benchmark's op list, under the class
// name bench/ gives it.
type Statement struct {
	Name, SQL string
}

// BenchStatements are the twelve statements bench/ runs, in its order:
// the nine-class analytic mix (the paper's Q1–Q5, a sort, a small and a
// large aggregate, a semi-join), then serve_short's two indexed lookups —
// here at custkey 17, where bench/ draws a key per op — and its
// progress-only scan. Tests that run the benchmark's statements read
// them here; results/ledger.txt pins every one of them.
var BenchStatements = []Statement{
	{"q1", paperQueries[0]},
	{"q2", paperQueries[1]},
	{"q3", paperQueries[2]},
	{"q4", paperQueries[3]},
	{"q5", paperQueries[4]},
	{"sort", "select * from orders order by totalprice"},
	{"agg_small", "select nationkey, count(*), sum(acctbal) from customer group by nationkey order by nationkey"},
	{"agg_large", "select orderkey, count(*), sum(extendedprice) from lineitem group by orderkey"},
	{"semi", "select * from customer c where exists (select * from orders o where o.custkey = c.custkey and o.totalprice > 1000)"},
	{"point", "select * from customer where custkey = 17"},
	{"orders", "select * from orders where custkey = 17"},
	{"subset", "select * from customer_subset1"},
}

// Mix9 is how many of BenchStatements are the analytic mix.
const Mix9 = 9

// BenchIndexes are the two indexes bench/ builds, as (table, column):
// the lookups' access paths.
var BenchIndexes = [][2]string{{"customer", "custkey"}, {"orders", "custkey"}}

// Table1 renders the loaded data set in the format of the paper's
// Table 1, with both the configured-scale and scale-1.0 numbers.
func (ds *Dataset) Table1(cat *catalog.Catalog) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %15s %12s\n", "", "number of tuples", "total size")
	for _, name := range []string{"customer", "orders", "lineitem", "customer_subset1", "customer_subset2"} {
		t, err := cat.Table(name)
		if err != nil {
			return "", err
		}
		size := "?"
		if t.Stats != nil {
			size = fmt.Sprintf("%.1fMB", t.Stats.TotalBytes()/1e6)
		}
		fmt.Fprintf(&b, "%-18s %15d %12s\n", name, t.Heap.Len(), size)
	}
	fmt.Fprintf(&b, "(scale %.3f; scale 1.0 reproduces the paper's 0.15M/23MB, 1.5M/114MB, 6M/755MB)\n", ds.Config.Scale)
	return b.String(), nil
}
