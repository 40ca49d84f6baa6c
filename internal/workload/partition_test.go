package workload

import (
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

func newCat() *catalog.Catalog {
	clock := vclock.New(vclock.DefaultCosts(), nil)
	return catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 4096))
}

// tableMultiset returns every encoded row of a table, as a count map (the
// multiset comparison the acceptance criteria phrase things in).
func tableMultiset(t *testing.T, cat *catalog.Catalog, name string) map[string]int {
	t.Helper()
	tb, err := cat.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	sc := tb.Heap.NewScanner()
	for {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		out[string(rec)]++
	}
	return out
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

var paperTables = []string{"customer", "orders", "lineitem", "customer_subset1", "customer_subset2"}

// The union of the N partitions must be exactly the unpartitioned data
// set, table by table — this is what makes a fleet query's input equal a
// single engine's.
func TestPartitionUnionEqualsFull(t *testing.T) {
	base := Config{Scale: 0.002, SubsetRows: 40, Seed: 3}
	full, _ := load(t, base)

	const parts = 4
	var shards []*catalog.Catalog
	loaded := map[string]int{}
	for p := 0; p < parts; p++ {
		cfg := base
		cfg.Partition = &PartitionSpec{Index: p, Count: parts}
		cat, ds := load(t, cfg)
		shards = append(shards, cat)
		loaded["customer"] += ds.Customers
		loaded["orders"] += ds.Orders
		loaded["lineitem"] += ds.Lineitems
	}

	for _, name := range paperTables {
		want := tableMultiset(t, full, name)
		got := map[string]int{}
		for _, cat := range shards {
			for rec, n := range tableMultiset(t, cat, name) {
				got[rec] += n
			}
		}
		if !sameMultiset(want, got) {
			t.Errorf("%s: union of %d partitions differs from full data set", name, parts)
		}
	}
	if loaded["orders"] != 300*OrdersPerCust {
		t.Errorf("partition order counts sum to %d, want %d", loaded["orders"], 300*OrdersPerCust)
	}

	// Co-partitioning: every order must land on the shard of its customer.
	for p, cat := range shards {
		tb, _ := cat.Table("orders")
		sc := tb.Heap.NewScanner()
		for {
			rec, _, ok := sc.Next()
			if !ok {
				break
			}
			row, err := tuple.Decode(rec, OrdersSchema().Arity())
			if err != nil {
				t.Fatal(err)
			}
			if PartitionOf(row[1].I, parts) != p {
				t.Fatalf("order with custkey %d on shard %d, want %d", row[1].I, p, PartitionOf(row[1].I, parts))
			}
		}
	}
}

func TestPartitionSpecValidate(t *testing.T) {
	cat := newCat()
	if _, err := Load(cat, Config{Scale: 0.002, SubsetRows: 10, Partition: &PartitionSpec{Index: 4, Count: 4}}); err == nil {
		t.Fatal("out-of-range partition index accepted")
	}
	if _, err := Load(newCat(), Config{Scale: 0.002, SubsetRows: 10, Partition: &PartitionSpec{Index: 0, Count: 0}}); err == nil {
		t.Fatal("zero partition count accepted")
	}
}

func TestPartitionOfProperties(t *testing.T) {
	const parts = 4
	counts := make([]int, parts)
	for k := int64(0); k < 4000; k++ {
		p := PartitionOf(k, parts)
		if p < 0 || p >= parts {
			t.Fatalf("PartitionOf(%d, %d) = %d out of range", k, parts, p)
		}
		if p != PartitionOf(k, parts) {
			t.Fatalf("PartitionOf(%d) not deterministic", k)
		}
		counts[p]++
	}
	// Dense sequential keys must spread: every shard within 2x of fair share.
	for p, n := range counts {
		if n < 4000/parts/2 || n > 4000/parts*2 {
			t.Fatalf("shard %d got %d of 4000 keys — pathological skew: %v", p, n, counts)
		}
	}
	if PartitionOf(123, 1) != 0 {
		t.Fatal("single partition must own everything")
	}
	// Value routing: ints agree with PartitionOf, strings/floats in range.
	if PartitionOfValue(tuple.NewInt(77), parts) != PartitionOf(77, parts) {
		t.Fatal("PartitionOfValue(int) disagrees with PartitionOf")
	}
	for _, v := range []tuple.Value{tuple.NewString("abc"), tuple.NewFloat(3.25)} {
		if p := PartitionOfValue(v, parts); p < 0 || p >= parts {
			t.Fatalf("PartitionOfValue(%v) = %d out of range", v, p)
		}
	}
}
