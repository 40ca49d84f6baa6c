package catalog

import (
	"testing"

	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

func testCatalog() *Catalog {
	clock := vclock.New(vclock.DefaultCosts(), nil)
	return New(storage.NewBufferPool(storage.NewDisk(clock), 256))
}

func custSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "custkey", Type: tuple.Int},
		tuple.Column{Name: "name", Type: tuple.String},
		tuple.Column{Name: "acctbal", Type: tuple.Float},
	)
}

func TestCreateInsertAnalyze(t *testing.T) {
	c := testCatalog()
	tb, err := c.CreateTable("Customer", custSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("CUSTOMER", custSchema()); err == nil {
		t.Fatal("duplicate table (case-insensitive) must fail")
	}
	for i := 0; i < 500; i++ {
		row := tuple.Tuple{tuple.NewInt(int64(i)), tuple.NewString("n"), tuple.NewFloat(1.5)}
		if err := c.Insert(tb, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Heap.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	if tb.Stats == nil || tb.Stats.RowCount != 500 {
		t.Fatalf("stats: %+v", tb.Stats)
	}
	got, err := c.Table("customer")
	if err != nil || got != tb {
		t.Fatal("lookup must be case-insensitive")
	}
	if _, err := c.Table("nope"); err == nil {
		t.Fatal("missing table must error")
	}
	if len(c.Tables()) != 1 {
		t.Fatal("Tables() wrong")
	}
}

func TestInsertValidation(t *testing.T) {
	c := testCatalog()
	tb, _ := c.CreateTable("t", custSchema())
	if err := c.Insert(tb, tuple.Tuple{tuple.NewInt(1)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	bad := tuple.Tuple{tuple.NewString("x"), tuple.NewString("n"), tuple.NewFloat(1)}
	if err := c.Insert(tb, bad); err == nil {
		t.Fatal("type mismatch must fail")
	}
}

func TestCreateIndexAndSearch(t *testing.T) {
	c := testCatalog()
	tb, _ := c.CreateTable("orders", tuple.NewSchema(
		tuple.Column{Name: "orderkey", Type: tuple.Int},
		tuple.Column{Name: "custkey", Type: tuple.Int},
	))
	for i := 0; i < 2000; i++ {
		c.Insert(tb, tuple.Tuple{tuple.NewInt(int64(i)), tuple.NewInt(int64(i % 100))})
	}
	tb.Heap.Sync()
	ix, err := c.CreateIndex(tb, "custkey")
	if err != nil {
		t.Fatal(err)
	}
	if tb.IndexOn("CUSTKEY") != ix {
		t.Fatal("IndexOn must be case-insensitive")
	}
	rids, err := ix.Tree.Search(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 20 {
		t.Fatalf("index search found %d rids, want 20", len(rids))
	}
	// Verify a rid resolves to a matching row.
	rec, err := tb.Heap.FetchOn(c.Pool().Disk().Clock(), rids[0])
	if err != nil {
		t.Fatal(err)
	}
	row, err := tuple.Decode(rec, 2)
	if err != nil || row[1].I != 7 {
		t.Fatalf("rid fetch: %v %v", row, err)
	}
	if _, err := c.CreateIndex(tb, "custkey"); err == nil {
		t.Fatal("duplicate index must fail")
	}
	if _, err := c.CreateIndex(tb, "nocol"); err == nil {
		t.Fatal("index on missing column must fail")
	}
}

func TestIndexOnNonIntRejected(t *testing.T) {
	c := testCatalog()
	tb, _ := c.CreateTable("t", custSchema())
	if _, err := c.CreateIndex(tb, "name"); err == nil {
		t.Fatal("index on TEXT column must fail")
	}
}
