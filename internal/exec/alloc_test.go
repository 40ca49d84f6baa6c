package exec

import (
	"fmt"
	"math"
	"runtime"
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
// one whole Run — Build, Open, every Next, Close — and of its Build alone,
// and the bytes one Run allocates.
func allocsPerQuery(t *testing.T, n int, sql, algo string) (allocs, build, bytes float64, rows int64) {
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: 512, Decomp: d}
	if _, err := Run(env, p, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return allocs, build, float64(after.TotalAlloc - before.TotalAlloc), rows
}

// The machine-independent form of "the per-row path does not allocate":
// quadrupling the probe side of Q2's shape (scan -> filter -> project ->
// hash probe) and the outer side of Q5's (nested loops over a cached
// inner) quadruples the rows and leaves the allocations of a query where
// they were (the slack of 4 is for amortised slice growth, not rows).
// Every predicate on those paths is compiled (expr.CompilePred) when the
// operator is built, so the same holds for the closures: Build allocates
// the same whatever the tables hold, and no row adds to it. The same goes
// for grouping on an Int key (rowsX 1: the groups stay 40), for nested
// loops under a wide outer, and for strings: a scan takes a String
// field's value from its page index, which made each string once when
// AllocsPerRun's warm-up run built it, so a string that differs on every
// row costs no allocation either — in a root scan (where Run with no
// sink reads none of the columns; TestDiscardedScanAllocationsFlat pins
// that) or in a semi-join, which keeps each whole outer row it returns.
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
		{"scan, constant and unique string", "select b.k, b.v, b.c, b.pad from big b", "", 4, 0},
		{"semi-join, unique string", "select * from big b where exists (select * from small s where s.k = b.k)", "", 4, 0},
		{"group by an Int key", "select b.k, count(*), sum(b.v) from big b group by b.k", "", 1, 0},
		{"nested loops, wide outer", "select b.k, b.v, b.c, b.k, b.v, b.c, s.v from big b, small s where b.v <> s.v", "nl", 4, 0},
	} {
		a1, b1, _, r1 := allocsPerQuery(t, 500, tc.sql, tc.algo)
		a4, b4, _, r4 := allocsPerQuery(t, 2000, tc.sql, tc.algo)
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

// A hash aggregate keeps one row per group and one count: with a group
// per input row, going from 4k to 32k rows adds allocations only for the
// rows' slab chunks and for the slices and index doubling (O(log n)),
// and each group costs its row in the slab plus amortised slice and
// index growth: about 300 bytes for a key and two aggregates, bounded at
// 400, where a separate key copy, accumulator array and output copy per
// group cost 850–1050.
func TestHashAggMemoryPerGroup(t *testing.T) {
	const sql = "select b.v, count(*), sum(b.k) from big b group by b.v"
	a1, _, bytes1, r1 := allocsPerQuery(t, 4096, sql, "")
	a8, _, bytes8, r8 := allocsPerQuery(t, 32768, sql, "")
	if r1 != 4096 || r8 != 32768 {
		t.Fatalf("groups %d and %d, want one per row", r1, r8)
	}
	// Each row is three values; past the doubling chunks, one chunk per
	// slabMaxChunk values.
	chunks := float64(3*(r8-r1)) / slabMaxChunk
	logs := 8 * math.Log2(float64(r8)/float64(r1))
	t.Logf("allocations %.0f -> %.0f (bound +%.0f), bytes per group %.0f and %.0f", a1, a8, chunks+logs, bytes1/float64(r1), bytes8/float64(r8))
	if a8 > a1+chunks+logs {
		t.Fatalf("allocations grew %.0f -> %.0f over %d -> %d groups, want at most +%.0f", a1, a8, r1, r8, chunks+logs)
	}
	for _, c := range []struct{ bytes, groups float64 }{{bytes1, float64(r1)}, {bytes8, float64(r8)}} {
		if per := c.bytes / c.groups; per > 400 {
			t.Fatalf("%.0f bytes per group over %.0f groups, want at most 400", per, c.groups)
		}
	}
}
