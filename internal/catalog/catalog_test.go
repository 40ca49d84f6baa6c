package catalog

import (
	"fmt"
	"testing"
	"unsafe"

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

// A page index costs 2 bytes per field and 4 per record, plus the
// PageIndex itself; its table of the page's strings costs at most 16
// bytes a distinct string (a String field's entry is its 2 bytes), each
// string's bytes made once for the table; and a page read again keeps
// the index it has.
func TestPageIndexCost(t *testing.T) {
	c := testCatalog()
	tb, _ := c.CreateTable("t", custSchema())
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("repeats-%d", i%7)
		if i%2 == 0 {
			name = fmt.Sprintf("unique-%d", i)
		}
		if err := c.Insert(tb, tuple.Tuple{tuple.NewInt(int64(i)), tuple.NewString(name), tuple.NewFloat(1.5)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Heap.Sync(); err != nil {
		t.Fatal(err)
	}
	perRecord := 2*tb.Schema.Arity() + 4
	made := map[string]*byte{} // each string's bytes, as the first page held them
	pages, records := 0, 0
	for sc := tb.Heap.NewScanner(); ; {
		img, num, ok := sc.NextPage()
		if !ok {
			break
		}
		ix, recs := tb.PageIndex(img, num), storage.PageRecords(img)
		if ix.Err != nil || ix.Len() != recs.Len() {
			t.Fatalf("page %d: %d of %d records indexed, error %v", num, ix.Len(), recs.Len(), ix.Err)
		}
		if again := tb.PageIndex(img, num); again != ix {
			t.Fatalf("page %d was indexed twice", num)
		}
		if bytes := 2 * (cap(ix.spans) + cap(ix.fields)); bytes > ix.Len()*perRecord {
			t.Fatalf("page %d: %d index bytes for %d records of %d fields, want at most %d a record", num, bytes, ix.Len(), tb.Schema.Arity(), perRecord)
		}
		distinct := map[string]bool{}
		for k := range ix.Len() {
			start, end := recs.Next()
			row, err := tuple.Decode(img[start:end], tb.Schema.Arity())
			if err != nil {
				t.Fatal(err)
			}
			distinct[row[1].S] = true
			_, fields := ix.Record(k)
			s := ix.Str(fields[1])
			if p, ok := made[s]; ok && p != unsafe.StringData(s) {
				t.Fatalf("page %d holds another copy of %q", num, s)
			}
			made[s] = unsafe.StringData(s)
		}
		if bytes := cap(ix.strs) * int(unsafe.Sizeof(strRef{})); bytes > 16*len(distinct) {
			t.Fatalf("page %d: %d string bytes for %d distinct strings, want at most 16 each", num, bytes, len(distinct))
		}
		pages, records = pages+1, records+ix.Len()
	}
	if pages < 2 || records != 1000 {
		t.Fatalf("indexed %d records on %d pages, want 1000 on at least 2", records, pages)
	}
}
