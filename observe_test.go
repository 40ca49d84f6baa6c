package progressdb

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"progressdb/internal/core"
	"progressdb/internal/exec"
	"progressdb/internal/obs"
	"progressdb/internal/workload"
)

// loadObsWorkload builds a small paper workload for observability tests.
func loadObsWorkload(t testing.TB, cfg Config) *DB {
	t.Helper()
	db := Open(cfg)
	if err := db.LoadPaperWorkload(0.002, false); err != nil {
		t.Fatal(err)
	}
	return db
}

// twoJoinSQL joins three tables — customer ⋈ orders ⋈ lineitem — so the
// annotated plan carries at least two join operators.
const twoJoinSQL = `select c.custkey, o.orderkey, l.quantity
	from customer c, orders o, lineitem l
	where c.custkey = o.custkey and o.orderkey = l.orderkey
	and c.nationkey < 10`

func TestMetricsSnapshotInstruments(t *testing.T) {
	db := loadObsWorkload(t, Config{WorkMemPages: 16, Metrics: true})
	if err := db.ColdRestart(); err != nil { // cold pool: force misses
		t.Fatal(err)
	}
	if _, err := db.ExecDiscard(twoJoinSQL, nil); err != nil {
		t.Fatal(err)
	}
	samples := db.Metrics()
	names := map[string]bool{}
	byID := map[string]obs.Sample{}
	for _, s := range samples {
		names[s.Name] = true
		byID[s.ID()] = s
	}
	if len(names) < 12 {
		t.Fatalf("metrics snapshot exposes %d named instruments, want >= 12: %v", len(names), names)
	}
	// Core instruments must exist and the hot-path counters must have moved.
	for _, want := range []string{
		"bufferpool_hits_total", "bufferpool_misses_total",
		"disk_seq_reads_total", "engine_queries_total",
		"indicator_refreshes_total", "indicator_segment_p",
		"exec_rows_out_total", "vclock_seconds", "progress_refresh_u",
	} {
		if !names[want] {
			t.Errorf("missing instrument %q", want)
		}
	}
	if s := byID["engine_queries_total"]; s.Value != 1 {
		t.Errorf("engine_queries_total = %v, want 1", s.Value)
	}
	if s := byID["bufferpool_misses_total"]; s.Value <= 0 {
		t.Errorf("bufferpool_misses_total = %v, want > 0", s.Value)
	}
	if s := byID["indicator_refreshes_total"]; s.Value <= 0 {
		t.Errorf("indicator_refreshes_total = %v, want > 0", s.Value)
	}
	if s := byID[`exec_rows_out_total{op="seqscan"}`]; s.Value <= 0 {
		t.Errorf(`exec_rows_out_total{op="seqscan"} = %v, want > 0`, s.Value)
	}
	if s := byID["vclock_seconds"]; s.Value <= 0 {
		t.Errorf("vclock_seconds = %v, want > 0", s.Value)
	}

	// The Prometheus text form round-trips through the parser.
	text := db.MetricsText()
	parsed, err := obs.ParsePrometheusText(text)
	if err != nil {
		t.Fatalf("ParsePrometheusText: %v\n%s", err, text)
	}
	if len(parsed) != len(samples) {
		t.Fatalf("round-trip lost series: %d -> %d", len(samples), len(parsed))
	}

	// And the JSON form is valid JSON.
	js, err := db.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded []obs.Sample
	if err := json.Unmarshal(js, &decoded); err != nil {
		t.Fatalf("MetricsJSON is not valid JSON: %v", err)
	}
}

func TestMetricsDisabledByDefault(t *testing.T) {
	db := Open(Config{})
	db.MustCreateTable("t", Col("k", Int))
	db.MustInsert("t", 1)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("select * from t", nil); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics(); got != nil {
		t.Fatalf("Metrics() = %v, want nil when disabled", got)
	}
	if got := db.MetricsText(); got != "" {
		t.Fatalf("MetricsText() = %q, want empty when disabled", got)
	}
}

func TestExplainAnalyzeTwoJoin(t *testing.T) {
	db := loadObsWorkload(t, Config{WorkMemPages: 16, Metrics: true})
	res, text, err := db.ExplainAnalyze("explain analyze " + twoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount() == 0 {
		t.Fatal("EXPLAIN ANALYZE returned no rows")
	}
	if n := len(res.Plan.Operators); n < 4 {
		t.Fatalf("plan report has %d operators, want >= 4", n)
	}
	// Per-operator actuals, estimate error factor, and U on every
	// instrumented node; per-segment table at the bottom.
	for _, want := range []string{
		"actual rows=", "err=x", "U=", "loops=", "est rows=", "[S", "est U", "actual U",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "Join"); n < 2 {
		t.Fatalf("expected >= 2 join operators, found %d:\n%s", n, text)
	}
	// The bare SELECT (no EXPLAIN prefix) works too.
	if _, _, err := db.ExplainAnalyze(twoJoinSQL); err != nil {
		t.Fatal(err)
	}
}

func TestExplainStatementDispatch(t *testing.T) {
	db := loadObsWorkload(t, Config{WorkMemPages: 16})
	// EXPLAIN ANALYZE works without the metrics registry (nil-safe
	// instruments all the way down): annotated plan, then segment table.
	_, text, err := db.ExplainAnalyze("EXPLAIN ANALYZE " + twoJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "actual rows=") || !strings.Contains(text, "est U") {
		t.Fatalf("annotated plan and segment table:\n%s", text)
	}
}

// rewriteGolden makes each golden test run write its file instead of
// comparing with it: go test -run <test> . -args -rewrite
var rewriteGolden = flag.Bool("rewrite", false, "rewrite the golden file of each test run (testdata/explain_analyze.txt, testdata/plans.txt, BENCH_counts.json)")

// TestExplainAnalyzeGolden pins, byte for byte, what a finished query
// prints about its plan: the EXPLAIN ANALYZE text and the plan report's
// JSON, every number in shortest round-trip form, of the benchmark's
// statements that
// TestDiscardMatchesKeepOnBenchmarkStatements runs, on its two engines.
func TestExplainAnalyzeGolden(t *testing.T) {
	var b strings.Builder
	for _, wm := range []int{16, 2048} {
		db := loadObsWorkload(t, Config{WorkMemPages: wm, ProgressUpdateSeconds: 0.02})
		for _, st := range workload.BenchStatements {
			if st.Name == "q5" || st.Name == "point" || st.Name == "orders" {
				continue
			}
			res, text, err := db.ExplainAnalyze(st.SQL)
			if err != nil {
				t.Fatalf("work_mem %d: %s: %v", wm, st.Name, err)
			}
			plan, err := json.Marshal(res.Plan)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "== %s at work_mem %d\n%splan: %s\n", st.Name, wm, text, plan)
		}
	}
	checkGolden(t, "testdata/explain_analyze.txt", b.String())
}

// checkGolden compares got with the committed file, byte for byte, and
// names the first line that differs; under -rewrite it writes got there
// instead.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	rewrite := "go test -run " + t.Name() + " . -args -rewrite"
	if *rewriteGolden {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v; rewrite with: %s", err, rewrite)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	n := 0
	for n < len(gl) && n < len(wl) && gl[n] == wl[n] {
		n++
	}
	line := func(ls []string) string {
		if n < len(ls) {
			return ls[n]
		}
		return "<end of file>"
	}
	t.Fatalf("%s differs at line %d:\n  generated: %s\n  committed: %s\nif the change is intended, rewrite with: %s",
		file, n+1, line(gl), line(wl), rewrite)
}

// TestExplainErrSpelling pins how EXPLAIN ANALYZE spells an operator's
// q-error where it is undefined: x1.0 when neither side has rows, xinf
// when only one side has.
func TestExplainErrSpelling(t *testing.T) {
	for _, c := range []struct {
		est  float64
		rows int64
		want string
	}{{0, 0, "err=x1.0"}, {0, 5, "err=xinf"}, {5, 0, "err=xinf"}, {5, 20, "err=x4.0"}} {
		op := OperatorReport{OperatorDetail: &exec.OperatorDetail{Label: "SeqScan t"},
			EstRows: c.est, Rows: c.rows, QError: core.QError(c.est, float64(c.rows))}
		r := PlanReport{Operators: []OperatorReport{op}}
		if got := r.explain(); !strings.Contains(got, " "+c.want+")") {
			t.Errorf("est %v, actual %d: %q, want %s", c.est, c.rows, got, c.want)
		}
	}
}
