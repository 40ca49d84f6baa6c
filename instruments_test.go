package progressdb

import (
	"context"
	"reflect"
	"testing"

	"progressdb/internal/segment"
	"progressdb/internal/workload"
)

// TestInstrumentsDoNotPerturb runs bench/'s statements at work_mem 16 and
// 2048 three ways, each on its own engine loaded alike: with every
// instrument off, with Config.Metrics on (progressd's setting), and with
// the per-operator collector that ExplainAnalyze attaches. The
// instruments only read what the query does, so the three runs must agree
// exactly: the rows, the virtual seconds, every progress report and every
// segment's figures.
func TestInstrumentsDoNotPerturb(t *testing.T) {
	for _, wm := range []int{16, 2048} {
		cfg := Config{WorkMemPages: wm, ProgressUpdateSeconds: 1}
		off := countsEngine(t, cfg)
		metrics := countsEngine(t, Config{WorkMemPages: wm, ProgressUpdateSeconds: 1, Metrics: true})
		collect := countsEngine(t, cfg)
		for _, st := range workload.BenchStatements {
			// q5's 8 997 000 result rows are counted, not kept.
			keep := st.Name != "q5"
			want := instrumentedRun(t, off, st.SQL, keep, false)
			for arm, got := range map[string]*Result{
				"metrics": instrumentedRun(t, metrics, st.SQL, keep, false),
				"collect": instrumentedRun(t, collect, st.SQL, keep, true),
			} {
				at := func(what string) {
					t.Errorf("work_mem %d, %s: %s with %s on differs from instruments off", wm, st.Name, what, arm)
				}
				if got.RowCount() != want.RowCount() || !reflect.DeepEqual(got.Rows, want.Rows) {
					at("rows")
				}
				if got.VirtualSeconds != want.VirtualSeconds {
					at("VirtualSeconds")
				}
				if !reflect.DeepEqual(got.History, want.History) {
					at("the report history")
				}
				if !reflect.DeepEqual(got.Plan.Segments, want.Plan.Segments) {
					at("Result.Plan.Segments")
				}
			}
		}
	}
}

// instrumentedRun plans sql on db and runs it as Exec (keep) or
// ExecDiscard does, with the per-operator collector when collect is set,
// as ExplainAnalyze runs it.
func instrumentedRun(t *testing.T, db *DB, sql string, keep, collect bool) *Result {
	t.Helper()
	p, err := db.plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.run(context.Background(), db.workerClock(), nil, p, segment.Decompose(p, db.cfg.WorkMemPages), nil, keep, collect)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
