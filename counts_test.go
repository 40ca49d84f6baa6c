package progressdb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"progressdb/internal/core"
	"progressdb/internal/exec"
	"progressdb/internal/segment"
	"progressdb/internal/workload"
)

// countsFile is the wall ledger's counts that repeat: per benchmark
// statement, what one warm ExecDiscard allocates with metrics off and on,
// what planning it alone allocates and what running it once planned
// allocates, how often the executor calls the indicator, by kind, what it
// adds to the query's counter block, and the rows it adds to
// exec_rows_out_total, by op.
// Rewrite it with: go test -run TestCountsGolden . -args -rewrite
const countsFile = "BENCH_counts.json"

// countsRuns is how many runs each allocation figure averages, after
// testing.AllocsPerRun's own warm-up run. One keeps the test inside its
// budget: q5 takes about a quarter of a second a run.
const countsRuns = 1

// The allocation gates' tolerances, per field, in either direction: a
// rise beyond one fails, and so does a fall, which must be committed so
// that the file's diff shows it. Twenty repeats of the test alone on a
// 2-core VM (go1.24.0) set them, at twice the widest spread seen; runs
// inside the whole package and at -cpu 1 stayed within them:
//   - exec_allocs spread by 4 on q5 and by at most 2 elsewhere, so 8;
//     one more allocation per scanned row adds thousands;
//   - exec_bytes spread by at most 312 bytes, so 1 KiB;
//   - estimate_allocs never moved, so 0: one more allocation per join
//     candidate adds 32 on Q2;
//   - exec_allocs_metrics spread by 4 on q5, as exec_allocs does, so 8;
//   - stmt_run_allocs is exec_allocs without the planning, so it takes
//     exec_allocs' tolerance, against the file and against
//     exec_allocs − estimate_allocs.
const (
	execAllocsTol        = 8
	execBytesTol         = 1 << 10
	estimateAllocsTol    = 0
	execAllocsMetricsTol = 8
)

// stmtCounts is one statement's line in countsFile.
type stmtCounts struct {
	Name    string `json:"name"`
	WorkMem int    `json:"work_mem"`
	// ExecAllocs and ExecBytes are one warm ExecDiscard's allocations
	// and bytes allocated; EstimateAllocs are Prepare's alone (parse,
	// plan, decompose), and StmtRunAllocs a warm ExecDiscardContext's of
	// the statement Prepare made, which does not plan again.
	ExecAllocs     int64 `json:"exec_allocs"`
	ExecBytes      int64 `json:"exec_bytes"`
	EstimateAllocs int64 `json:"estimate_allocs"`
	StmtRunAllocs  int64 `json:"stmt_run_allocs"`
	// ExecAllocsMetrics is ExecAllocs on an engine with Config.Metrics
	// on, progressd's setting.
	ExecAllocsMetrics int64 `json:"exec_allocs_metrics"`
	// ReporterCalls counts the executor's calls on the indicator, by
	// segment.WorkReporter method.
	ReporterCalls map[string]int64 `json:"reporter_calls"`
	// CounterAdds is the counter block (internal/segment/counts.go) at
	// the run's end, summed over segments.
	CounterAdds counterAdds `json:"counter_adds"`
	// RowsOut is what one run adds to exec_rows_out_total, by op.
	RowsOut map[string]int64 `json:"rows_out"`
}

// counterAdds is one run's counter block, summed over segments: the input
// tuples, output tuples and multi-stage adds the executor counted, inline
// or through the reporter.
type counterAdds struct {
	InputTuples  int64 `json:"input_tuples"`
	OutputTuples int64 `json:"output_tuples"`
	Extras       int64 `json:"extras"`
}

// TestCountsGolden pins the counts that a perf change claims:
// workload.BenchStatements × work_mem {16, 2048} at scale 0.002, on a
// pool that holds the data, with bench/'s indexes and refresh period.
// Reporter calls, counter adds and rows out are exact; allocations may
// move only within the tolerances above, and are not checked under -race,
// where sync.Pool drops entries at random.
func TestCountsGolden(t *testing.T) {
	var got []stmtCounts
	for _, wm := range []int{16, 2048} {
		db := countsEngine(t, Config{WorkMemPages: wm, ProgressUpdateSeconds: 1})
		mdb := countsEngine(t, Config{WorkMemPages: wm, ProgressUpdateSeconds: 1, Metrics: true})
		for _, st := range workload.BenchStatements {
			c := stmtCounts{Name: st.Name, WorkMem: wm}
			var err error
			if c.ReporterCalls, c.CounterAdds, err = reporterCalls(db, st.SQL); err != nil {
				t.Fatalf("work_mem %d: %s: %v", wm, st.Name, err)
			}
			before := rowsOut(mdb)
			if _, err := mdb.ExecDiscard(st.SQL, nil); err != nil {
				t.Fatalf("work_mem %d: %s: %v", wm, st.Name, err)
			}
			c.RowsOut, _ = rowsOutDelta(before, rowsOut(mdb))
			if !raceEnabled {
				c.ExecAllocs, c.ExecBytes = allocsAndBytes(func() {
					if _, err := db.ExecDiscard(st.SQL, nil); err != nil {
						t.Fatal(err)
					}
				})
				c.EstimateAllocs, _ = allocsAndBytes(func() {
					if _, err := db.Prepare(st.SQL); err != nil {
						t.Fatal(err)
					}
				})
				stmt, err := db.Prepare(st.SQL)
				if err != nil {
					t.Fatal(err)
				}
				c.StmtRunAllocs, _ = allocsAndBytes(func() {
					if _, err := stmt.ExecDiscardContext(context.Background(), nil); err != nil {
						t.Fatal(err)
					}
				})
				if d := c.StmtRunAllocs - (c.ExecAllocs - c.EstimateAllocs); d > execAllocsTol || d < -execAllocsTol {
					t.Errorf("%s at work_mem %d: stmt_run_allocs %d, exec_allocs − estimate_allocs %d: a prepared run plans again",
						st.Name, wm, c.StmtRunAllocs, c.ExecAllocs-c.EstimateAllocs)
				}
				c.ExecAllocsMetrics, _ = allocsAndBytes(func() {
					if _, err := mdb.ExecDiscard(st.SQL, nil); err != nil {
						t.Fatal(err)
					}
				})
			}
			got = append(got, c)
		}
	}
	if *rewriteGolden {
		if raceEnabled {
			t.Fatal("the allocation counts are not measured under -race; rewrite without it")
		}
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countsFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(countsFile)
	if err != nil {
		t.Fatalf("%v; rewrite with: go test -run TestCountsGolden . -args -rewrite", err)
	}
	var want []stmtCounts
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("%s: %v", countsFile, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d entries, the test makes %d; rewrite with: go test -run TestCountsGolden . -args -rewrite", countsFile, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		at := func(field string, gv, wv int64) string {
			return fmt.Sprintf("%s at work_mem %d: %s %d, committed %d", g.Name, g.WorkMem, field, gv, wv)
		}
		if g.Name != w.Name || g.WorkMem != w.WorkMem {
			t.Fatalf("entry %d is %s at work_mem %d, committed %s at %d", i, g.Name, g.WorkMem, w.Name, w.WorkMem)
		}
		for _, k := range reporterKinds {
			if g.ReporterCalls[k] != w.ReporterCalls[k] {
				t.Error(at("reporter_calls."+k, g.ReporterCalls[k], w.ReporterCalls[k]))
			}
		}
		if g.CounterAdds != w.CounterAdds {
			t.Errorf("%s at work_mem %d: counter_adds %+v, committed %+v", g.Name, g.WorkMem, g.CounterAdds, w.CounterAdds)
		}
		for op := range joinKeys(g.RowsOut, w.RowsOut) {
			if g.RowsOut[op] != w.RowsOut[op] {
				t.Error(at("rows_out."+op, g.RowsOut[op], w.RowsOut[op]))
			}
		}
		if raceEnabled {
			continue
		}
		for _, f := range []struct {
			name     string
			got, was int64
			tol      int64
		}{
			{"exec_allocs", g.ExecAllocs, w.ExecAllocs, execAllocsTol},
			{"exec_bytes", g.ExecBytes, w.ExecBytes, execBytesTol},
			{"estimate_allocs", g.EstimateAllocs, w.EstimateAllocs, estimateAllocsTol},
			{"stmt_run_allocs", g.StmtRunAllocs, w.StmtRunAllocs, execAllocsTol},
			{"exec_allocs_metrics", g.ExecAllocsMetrics, w.ExecAllocsMetrics, execAllocsMetricsTol},
		} {
			switch {
			case f.got > f.was+f.tol:
				t.Errorf("%s: rose by more than %d", at(f.name, f.got, f.was), f.tol)
			case f.got < f.was-f.tol:
				t.Errorf("%s: fell by more than %d; commit the fall with: go test -run TestCountsGolden . -args -rewrite", at(f.name, f.got, f.was), f.tol)
			}
		}
	}
}

// countsEngine loads TestCountsGolden's engine: the paper workload at
// scale 0.002, with bench/'s indexes, analyzed.
func countsEngine(t *testing.T, cfg Config) *DB {
	t.Helper()
	db := loadObsWorkload(t, cfg)
	for _, ix := range workload.BenchIndexes {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// joinKeys is the set of keys of a and b.
func joinKeys(a, b map[string]int64) map[string]bool {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	return keys
}

// allocsAndBytes returns what one warm call of f allocates: the objects
// through testing.AllocsPerRun, which warms f up with a call of its own,
// and the bytes of the last call.
func allocsAndBytes(f func()) (allocs, bytes int64) {
	var before, after runtime.MemStats
	a := testing.AllocsPerRun(countsRuns, func() {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
	})
	return int64(a), int64(after.TotalAlloc - before.TotalAlloc)
}

// reporterKinds are segment.WorkReporter's methods, the keys of
// stmtCounts.ReporterCalls.
var reporterKinds = []string{"InputTuple", "InputBulk", "InputRepeat", "InputDone", "OutputTuple", "Extra", "SegmentDone"}

// reporterCalls runs sql as db.run does, with a counter between the
// executor and the indicator, and returns the calls by kind and what the
// run added to its counter block.
func reporterCalls(db *DB, sql string) (map[string]int64, counterAdds, error) {
	var adds counterAdds
	p, err := db.plan(sql)
	if err != nil {
		return nil, adds, err
	}
	clk := db.workerClock()
	defer clk.Sync()
	d := segment.Decompose(p, db.cfg.WorkMemPages)
	ind := core.New(clk, d, core.Options{UpdatePeriod: db.cfg.ProgressUpdateSeconds})
	ind.Start()
	defer ind.Stop()
	kc := &kindCounter{WorkReporter: ind, n: map[string]int64{}}
	env := &exec.Env{Pool: db.cat.Pool(), Clock: clk, WorkMemPages: db.cfg.WorkMemPages, Reporter: kc, Decomp: d}
	if _, err := exec.Run(env, p, nil); err != nil {
		return nil, adds, err
	}
	for _, s := range d.Segments {
		adds.OutputTuples += s.Count.OutTuples
		adds.Extras += s.Count.Extras
		for _, in := range s.Inputs {
			adds.InputTuples += in.Count.Tuples
		}
	}
	return kc.n, adds, nil
}

// kindCounter counts the calls on a segment.WorkReporter by method.
type kindCounter struct {
	segment.WorkReporter
	n map[string]int64
}

func (c *kindCounter) InputTuple(seg, input, bytes int) {
	c.n["InputTuple"]++
	c.WorkReporter.InputTuple(seg, input, bytes)
}
func (c *kindCounter) InputBulk(seg, input int, tuples int64, bytes float64) {
	c.n["InputBulk"]++
	c.WorkReporter.InputBulk(seg, input, tuples, bytes)
}
func (c *kindCounter) InputRepeat(seg, input int, tuples int64, bytes float64) {
	c.n["InputRepeat"]++
	c.WorkReporter.InputRepeat(seg, input, tuples, bytes)
}
func (c *kindCounter) InputDone(seg, input int) {
	c.n["InputDone"]++
	c.WorkReporter.InputDone(seg, input)
}
func (c *kindCounter) OutputTuple(seg, bytes int) {
	c.n["OutputTuple"]++
	c.WorkReporter.OutputTuple(seg, bytes)
}
func (c *kindCounter) Extra(seg int, bytes float64) {
	c.n["Extra"]++
	c.WorkReporter.Extra(seg, bytes)
}
func (c *kindCounter) SegmentDone(seg int) {
	c.n["SegmentDone"]++
	c.WorkReporter.SegmentDone(seg)
}
