package workload

import (
	"math"
	"strings"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

func load(t *testing.T, cfg Config) (*catalog.Catalog, *Dataset) {
	t.Helper()
	clock := vclock.New(vclock.DefaultCosts(), nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 4096))
	ds, err := Load(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cat, ds
}

// A scale that is not a positive number is unset: 0, −1 and NaN all
// generate at the default scale.
func TestConfigDefaultsReplaceNonPositiveScale(t *testing.T) {
	for _, x := range []float64{0, -1, math.NaN()} {
		if got := (Config{Scale: x}).withDefaults().Scale; got != 0.05 {
			t.Errorf("Config{Scale: %v}: scale %v, want the default 0.05", x, got)
		}
	}
}

func TestCardinalitiesAndFanouts(t *testing.T) {
	cat, ds := load(t, Config{Scale: 0.002, SubsetRows: 50})
	if ds.Customers != 300 {
		t.Fatalf("customers = %d, want 300", ds.Customers)
	}
	if ds.Orders != ds.Customers*OrdersPerCust {
		t.Fatalf("orders = %d, want 10x customers", ds.Orders)
	}
	if ds.Lineitems != ds.Orders*LinesPerOrder {
		t.Fatalf("lineitems = %d, want 4x orders", ds.Lineitems)
	}
	for name, want := range map[string]int64{
		"customer": 300, "orders": 3000, "lineitem": 12000,
		"customer_subset1": 50, "customer_subset2": 50,
	} {
		tb, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tb.Heap.Len() != want {
			t.Fatalf("%s: %d rows, want %d", name, tb.Heap.Len(), want)
		}
		if tb.Stats == nil {
			t.Fatalf("%s not analyzed", name)
		}
	}
}

// Row widths must land near Table 1's: customer ≈153B, orders ≈76B,
// lineitem ≈126B (within 10%).
func TestTable1Widths(t *testing.T) {
	cat, _ := load(t, Config{Scale: 0.002, SubsetRows: 10})
	want := map[string]float64{
		"customer": 23e6 / 150000.0,
		"orders":   114e6 / 1.5e6,
		"lineitem": 755e6 / 6e6,
	}
	for name, w := range want {
		tb, _ := cat.Table(name)
		got := tb.Stats.AvgWidth
		if math.Abs(got-w)/w > 0.10 {
			t.Errorf("%s width = %.1fB, want %.1fB ±10%%", name, got, w)
		}
	}
}

func TestUniformFanoutExactly10(t *testing.T) {
	cat, _ := load(t, Config{Scale: 0.002, SubsetRows: 10})
	orders, _ := cat.Table("orders")
	counts := map[int64]int{}
	sc := orders.Heap.NewScanner()
	for {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		row, err := decodeRow(rec, OrdersSchema().Arity())
		if err != nil {
			t.Fatal(err)
		}
		counts[row[1].I]++
	}
	for ck, n := range counts {
		if n != OrdersPerCust {
			t.Fatalf("custkey %d has %d orders, want %d", ck, n, OrdersPerCust)
		}
	}
}

func TestCorrelatedOrdersFanout(t *testing.T) {
	cat, ds := load(t, Config{Scale: 0.002, SubsetRows: 10, CorrelatedOrders: true})
	// Average fanout stays 10 → same total order count.
	if ds.Orders != ds.Customers*OrdersPerCust {
		t.Fatalf("correlated orders = %d, want %d", ds.Orders, ds.Customers*OrdersPerCust)
	}
	orders, _ := cat.Table("orders")
	counts := map[int64]int{}
	sc := orders.Heap.NewScanner()
	for {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		row, err := decodeRow(rec, OrdersSchema().Arity())
		if err != nil {
			t.Fatal(err)
		}
		counts[row[1].I]++
	}
	for c := 0; c < ds.Customers; c++ {
		want := 0
		switch nation := c % 25; {
		case nation < 10:
			want = 20
		case nation < 20:
			want = 0
		default:
			want = 10
		}
		if counts[int64(c)] != want {
			t.Fatalf("correlated custkey %d (nation %d): %d orders, want %d",
				c, c%25, counts[int64(c)], want)
		}
	}
}

func TestPartkeyAlwaysPositive(t *testing.T) {
	cat, _ := load(t, Config{Scale: 0.002, SubsetRows: 10})
	li, _ := cat.Table("lineitem")
	sc := li.Heap.NewScanner()
	for {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		row, err := decodeRow(rec, LineitemSchema().Arity())
		if err != nil {
			t.Fatal(err)
		}
		if row[1].I <= 0 {
			t.Fatalf("partkey %d not positive: absolute(partkey)>0 must be selectivity 1", row[1].I)
		}
	}
}

func TestQueriesParse(t *testing.T) {
	for q := 1; q <= 5; q++ {
		sql, err := QuerySQL(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sqlparser.Parse(sql); err != nil {
			t.Fatalf("Q%d does not parse: %v", q, err)
		}
	}
	if _, err := QuerySQL(6); err == nil {
		t.Fatal("Q6 must not exist")
	}
}

func TestTable1Rendering(t *testing.T) {
	cat, ds := load(t, Config{Scale: 0.002, SubsetRows: 10})
	s, err := ds.Table1(cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"customer", "orders", "lineitem", "customer_subset1", "number of tuples"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, s)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cat1, _ := load(t, Config{Scale: 0.002, SubsetRows: 10, Seed: 7})
	cat2, _ := load(t, Config{Scale: 0.002, SubsetRows: 10, Seed: 7})
	t1, _ := cat1.Table("lineitem")
	t2, _ := cat2.Table("lineitem")
	s1 := t1.Heap.NewScanner()
	s2 := t2.Heap.NewScanner()
	for {
		r1, _, ok1 := s1.Next()
		r2, _, ok2 := s2.Next()
		if ok1 != ok2 {
			t.Fatal("different row counts")
		}
		if !ok1 {
			break
		}
		if string(r1) != string(r2) {
			t.Fatal("same seed produced different rows")
		}
	}
}

// decodeRow is a tiny test helper around tuple.Decode.
func decodeRow(rec []byte, arity int) (tuple.Tuple, error) {
	return tuple.Decode(rec, arity)
}
