package exec

import (
	"fmt"
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
// are drawn from a small range starting at base.
func randDB(t *testing.T, rng *rand.Rand, base int64) (*catalog.Catalog, *vclock.Clock, int, int) {
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
		cat.Insert(r, tuple.Tuple{tuple.NewInt(base + int64(rng.Intn(keyRange))), tuple.NewInt(int64(i))})
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
		cat.Insert(s, tuple.Tuple{tuple.NewInt(base + int64(rng.Intn(keyRange))), tuple.NewInt(int64(i))})
	}
	s.Heap.Sync()
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return cat, clock, nr, ns
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

// referenceJoin computes the expected equijoin result naively.
func referenceJoin(t *testing.T, cat *catalog.Catalog) []string {
	t.Helper()
	read := func(name string) []tuple.Tuple {
		tb, _ := cat.Table(name)
		var out []tuple.Tuple
		sc := tb.Heap.NewScanner()
		for {
			rec, _, ok := sc.Next()
			if !ok {
				break
			}
			row, err := tuple.Decode(rec, 2)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, row)
		}
		return out
	}
	rs, ss := read("r"), read("s")
	var rows []string
	for _, a := range rs {
		for _, b := range ss {
			if a[0].I == b[0].I {
				rows = append(rows, fmt.Sprintf("(%d, %d, %d)", a[1].I, b[1].I, a[0].I))
			}
		}
	}
	sort.Strings(rows)
	return rows
}

// Property: hash (in-memory and spilled), Grace, nested-loops, and
// sort-merge joins all produce exactly the reference result on random
// inputs — every third trial on keys straddling 2^53, where neighbouring
// integers are one float64 and a comparison through floats would join
// (and sort) rows a hash table keeps apart.
func TestPropertyJoinAlgorithmsAgreeOnRandomData(t *testing.T) {
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		base := int64(0)
		if trial%3 == 2 {
			base = 1<<53 - 2
		}
		cat, clock, nr, ns := randDB(t, rng, base)
		want := referenceJoin(t, cat)
		sql := "select r.a, s.b, r.k from r, s where r.k = s.k"
		for _, cfg := range []struct {
			algo    string
			workMem int
		}{
			{"hash", 512}, // in-memory hybrid
			{"hash", 1},   // Grace or runtime spill
			{"nl", 512},
			{"merge", 512},
			{"merge", 1}, // external sort
		} {
			got := runAlgo(t, cat, clock, sql, cfg.algo, cfg.workMem)
			if len(got) != len(want) {
				t.Fatalf("trial %d (%d×%d rows) %s/wm=%d: %d rows, want %d",
					trial, nr, ns, cfg.algo, cfg.workMem, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s/wm=%d: row %d = %s, want %s",
						trial, cfg.algo, cfg.workMem, i, got[i], want[i])
				}
			}
		}
	}
}

// Property: the virtual clock never runs backwards across any execution,
// and the row count is deterministic across repeated runs.
func TestPropertyDeterministicExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cat, clock, _, _ := randDB(t, rng, 0)
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
