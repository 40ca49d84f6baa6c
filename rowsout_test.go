package progressdb

import (
	"context"
	"errors"
	"testing"

	"progressdb/internal/obs"
	"progressdb/internal/workload"
)

// rowsOut reads every exec_rows_out_total series, keyed by its op label.
// It reads the registry directly: DB.Metrics also refreshes gauges,
// which a progress callback running inside the executor must not do.
func rowsOut(db *DB) map[string]int64 {
	m := map[string]int64{}
	for _, s := range db.reg.Snapshot() {
		if s.Name == "exec_rows_out_total" {
			m[s.LabelVal] = int64(s.Value)
		}
	}
	return m
}

// rowsOutDelta is after − before per op, and the sum over all ops.
func rowsOutDelta(before, after map[string]int64) (map[string]int64, int64) {
	d := map[string]int64{}
	var sum int64
	for op, v := range after {
		if n := v - before[op]; n != 0 {
			d[op] = n
			sum += n
		}
	}
	return d, sum
}

// traceRows sums rows_actual over the operator spans of a trace.
func traceRows(tr *obs.Trace) int64 {
	var sum int64
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		if s.Kind == "operator" {
			sum += int64(s.Attrs["rows_actual"])
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tr.Root)
	return sum
}

// TestRowsOutNotWrittenWhileOperatorOpen pins that the executor writes
// no shared counter per tuple: while the scan is open, every progress
// report sees exec_rows_out_total{op="seqscan"} at its pre-query value,
// and the scan's whole row count lands when it closes.
func TestRowsOutNotWrittenWhileOperatorOpen(t *testing.T) {
	db := loadObsWorkload(t, Config{Metrics: true, ProgressUpdateSeconds: 0.01})
	before := rowsOut(db)["seqscan"]
	midScan := 0
	res, err := db.Exec("select * from lineitem", func(r Report) {
		if r.Finished {
			return
		}
		if got := rowsOut(db)["seqscan"]; got != before {
			t.Errorf("report at %.1f%%: seqscan rows out %d, want the pre-query %d", r.Percent, got, before)
		}
		if r.DoneU > 0 {
			midScan++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if midScan == 0 {
		t.Fatal("no progress report while the scan was under way")
	}
	if got, want := rowsOut(db)["seqscan"]-before, int64(res.RowCount()); got != want {
		t.Fatalf("seqscan rows out grew by %d, want the row count %d", got, want)
	}
}

// TestRowsOutExact holds the counters to the trace: for every paper
// query and the mix's sort, aggregates and semi-join, at a work_mem that
// spills and one that does not, the counters grow by exactly the rows
// the operator spans report. A query canceled mid-flight still adds the
// rows its operators emitted, and the next query is exact again.
func TestRowsOutExact(t *testing.T) {
	stmts := workload.BenchStatements[:workload.Mix9]
	partitioned := false
	for _, wm := range []int{16, 2048} {
		// Scale 0.005 is the smallest at which 16 work_mem pages give the
		// paper's joins a Grace plan.
		db := Open(Config{WorkMemPages: wm, Metrics: true, Trace: true, ProgressUpdateSeconds: 0.01})
		if err := db.LoadPaperWorkload(0.005, false); err != nil {
			t.Fatal(err)
		}
		exact := func(name, sql string) int64 {
			t.Helper()
			before := rowsOut(db)
			res, err := db.ExecDiscard(sql, nil)
			if err != nil {
				t.Fatalf("work_mem %d, %s: %v", wm, name, err)
			}
			d, sum := rowsOutDelta(before, rowsOut(db))
			if want := traceRows(res.Trace); sum != want {
				t.Errorf("work_mem %d, %s: counters grew by %d %v, operator spans report %d rows", wm, name, sum, d, want)
			}
			if d["partition"] > 0 {
				partitioned = true
			}
			return sum
		}
		var full int64 // Q1's rows out; Q1 is the scan canceled below
		for i, st := range stmts {
			if sum := exact(st.Name, st.SQL); i == 0 {
				full = sum
			}
		}

		ctx, cancel := context.WithCancel(context.Background())
		reports := 0
		before := rowsOut(db)
		_, err := db.ExecDiscardContext(ctx, stmts[0].SQL, func(r Report) {
			if reports++; reports == 2 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("work_mem %d: canceled scan returned %v, want context.Canceled", wm, err)
		}
		if _, sum := rowsOutDelta(before, rowsOut(db)); sum <= 0 || sum > full {
			t.Errorf("work_mem %d: canceled scan added %d rows out, want in (0, %d]", wm, sum, full)
		}
		exact("after cancel", stmts[0].SQL)
	}
	if !partitioned {
		t.Error("no run used a Grace partition: the partition path went unchecked")
	}
}
