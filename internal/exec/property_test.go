package exec

import (
	"math/rand"
	"sort"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/optimizer"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// randDB builds two tables with random sizes and key distributions; keys
// are drawn from a small range.
func randDB(t *testing.T, rng *rand.Rand) (*catalog.Catalog, *vclock.Clock) {
	t.Helper()
	clock := vclock.New(vclock.Costs{SeqPage: 1e-5, RandPage: 8e-5, CPUTuple: 1e-8}, nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 512))
	nr := rng.Intn(300) + 1
	ns := rng.Intn(300) + 1
	keyRange := rng.Intn(50) + 1

	r, err := cat.CreateTable("r", tuple.NewSchema(
		tuple.Column{Name: "k", Type: tuple.Int},
		tuple.Column{Name: "a", Type: tuple.Int},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nr; i++ {
		cat.Insert(r, tuple.Tuple{tuple.NewInt(int64(rng.Intn(keyRange))), tuple.NewInt(int64(i))})
	}
	r.Heap.Sync()

	s, err := cat.CreateTable("s", tuple.NewSchema(
		tuple.Column{Name: "k", Type: tuple.Int},
		tuple.Column{Name: "b", Type: tuple.Int},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ns; i++ {
		cat.Insert(s, tuple.Tuple{tuple.NewInt(int64(rng.Intn(keyRange))), tuple.NewInt(int64(i))})
	}
	s.Heap.Sync()
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return cat, clock
}

func runAlgo(t *testing.T, cat *catalog.Catalog, clock *vclock.Clock, sql, algo string, workMem int) []string {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.Plan(cat, stmt, optimizer.Options{ForceJoinAlgo: algo, WorkMemPages: workMem})
	if err != nil {
		t.Fatal(err)
	}
	rows := execChecked(t, cat, clock, p, workMem, nil)
	sort.Strings(rows)
	return rows
}

// Property: the virtual clock never runs backwards across any execution,
// and the row count is deterministic across repeated runs.
func TestPropertyDeterministicExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cat, clock := randDB(t, rng)
	sql := "select r.a, s.b, r.k from r, s where r.k = s.k"
	first := runAlgo(t, cat, clock, sql, "", 64)
	for i := 0; i < 3; i++ {
		before := clock.Now()
		again := runAlgo(t, cat, clock, sql, "", 64)
		if clock.Now() < before {
			t.Fatal("clock ran backwards")
		}
		if len(again) != len(first) {
			t.Fatalf("run %d: %d rows vs %d", i, len(again), len(first))
		}
	}
}
