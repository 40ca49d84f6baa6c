package exec

import (
	"fmt"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/optimizer"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// allocsPerQuery loads a fixed 40-row table small and an n-row table big
// (with two string columns, c the same on every row and pad unique) on a
// pool that holds both,
// plans sql with the given join algorithm and returns the allocations of
// one whole Run — Build, Open, every Next, Close — and of its Build alone.
func allocsPerQuery(t *testing.T, n int, sql, algo string) (allocs, build float64, rows int64) {
	t.Helper()
	clock := vclock.New(vclock.Costs{SeqPage: 1e-5, RandPage: 8e-5, CPUTuple: 1e-8}, nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 1024))
	load := func(name string, rows int, pad bool) {
		cols := []tuple.Column{{Name: "k", Type: tuple.Int}, {Name: "v", Type: tuple.Int}}
		if pad {
			cols = append(cols, tuple.Column{Name: "c", Type: tuple.String}, tuple.Column{Name: "pad", Type: tuple.String})
		}
		tb, err := cat.CreateTable(name, tuple.NewSchema(cols...))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			row := tuple.Tuple{tuple.NewInt(int64(i % 40)), tuple.NewInt(int64(i + 1))}
			if pad {
				row = append(row, tuple.NewString("constant"), tuple.NewString(fmt.Sprintf("padding-%06d", i)))
			}
			if err := cat.Insert(tb, row); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.Heap.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	load("small", 40, false)
	load("big", n, true)
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.Plan(cat, stmt, optimizer.Options{ForceJoinAlgo: algo})
	if err != nil {
		t.Fatal(err)
	}
	d := segment.Decompose(p, 512)
	allocs = testing.AllocsPerRun(3, func() {
		env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: 512, Decomp: d}
		if rows, err = Run(env, p, nil); err != nil {
			t.Fatal(err)
		}
	})
	build = testing.AllocsPerRun(3, func() {
		env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: 512, Decomp: d}
		if _, err := Build(p, env); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, build, rows
}

// The machine-independent form of "the per-row path does not allocate":
// quadrupling the probe side of Q2's shape (scan -> filter -> project ->
// hash probe) and the outer side of Q5's (nested loops over a cached
// inner) quadruples the rows and leaves the allocations of a query where
// they were (the slack of 4 is for amortised slice growth, not rows).
// Every predicate on those paths is compiled (expr.CompilePred) when the
// operator is built, so the same holds for the closures: Build allocates
// the same whatever the tables hold, and no row adds to it. The same goes
// for a string column that repeats down the table (the scan slot keeps an
// equal string), for grouping on an Int key (rowsX 1: the groups stay 40)
// and for nested loops under a wide outer; a string that differs on every
// row is the one thing that costs an allocation per row (perRow 1), where
// a Project reads it (Run with no sink reads none of a root scan's
// columns; TestDiscardedScanAllocationsFlat pins that).
func TestAllocationsDoNotGrowWithProbeRows(t *testing.T) {
	for _, tc := range []struct {
		name, sql, algo string
		rowsX           int64 // result rows grow at least this much with the table
		perRow          int64 // allocations allowed per added result row
	}{
		{"hash probe", "select b.v, s.v from small s, big b where s.k = b.k and absolute(b.v) > 0", "hash", 4, 0},
		{"nested loops", "select b.v, s.v from big b, small s where b.v <> s.v", "nl", 4, 0},
		{"conjunction and join residual", "select b.v, s.v from small s, big b where s.k = b.k and s.v <> b.v and b.v > 0 and b.k < 40 and absolute(b.v) > 0", "hash", 4, 0},
		{"scan, constant string", "select b.k, b.v, b.c from big b", "", 4, 0},
		{"scan, constant and unique string", "select b.k, b.v, b.c, b.pad from big b", "", 4, 1},
		{"group by an Int key", "select b.k, count(*), sum(b.v) from big b group by b.k", "", 1, 0},
		{"nested loops, wide outer", "select b.k, b.v, b.c, b.k, b.v, b.c, s.v from big b, small s where b.v <> s.v", "nl", 4, 0},
	} {
		a1, b1, r1 := allocsPerQuery(t, 500, tc.sql, tc.algo)
		a4, b4, r4 := allocsPerQuery(t, 2000, tc.sql, tc.algo)
		t.Logf("%s: %d rows -> %.0f allocs (%.0f in Build), %d rows -> %.0f allocs (%.0f in Build)", tc.name, r1, a1, b1, r4, a4, b4)
		if b1 != b4 {
			t.Fatalf("%s: Build allocated %.0f times over 500 rows, %.0f over 2000", tc.name, b1, b4)
		}
		if r4 < tc.rowsX*r1 || r1 == 0 {
			t.Fatalf("%s: result rows %d -> %d, want x%d", tc.name, r1, r4, tc.rowsX)
		}
		if a4 > a1+float64(tc.perRow*(r4-r1))+4 {
			t.Fatalf("%s: allocations grew with the probe side: %.0f at 500 rows, %.0f at 2000", tc.name, a1, a4)
		}
	}
}
