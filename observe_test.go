package progressdb

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"progressdb/internal/obs"
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
	if res.Trace == nil || res.Trace.SpanCount() < 4 {
		t.Fatalf("trace missing or too small: %+v", res.Trace)
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

func TestTraceAndEventLog(t *testing.T) {
	var buf bytes.Buffer
	db := loadObsWorkload(t, Config{
		WorkMemPages:          16,
		ProgressUpdateSeconds: 5,
		Trace:                 true,
		TraceSink:             &buf,
	})
	res, err := db.ExecDiscard(twoJoinSQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Config.Trace did not populate Result.Trace")
	}
	root := res.Trace.Root
	if root.Kind != "query" || len(root.Children) == 0 {
		t.Fatalf("bad trace root: %+v", root)
	}
	var segs, ops int
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		switch s.Kind {
		case "segment":
			segs++
		case "operator":
			ops++
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	if segs == 0 || ops == 0 {
		t.Fatalf("trace has %d segment and %d operator spans", segs, ops)
	}
	// The trace itself serializes to JSON.
	if _, err := res.Trace.JSON(); err != nil {
		t.Fatal(err)
	}

	// The sink received a JSONL event log: one JSON object per line, with
	// progress refreshes and segment completions.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("event log has %d lines:\n%s", len(lines), buf.String())
	}
	kinds := map[string]int{}
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line is not JSON: %v\n%s", err, line)
		}
		typ, _ := ev["type"].(string)
		kinds[typ]++
		if _, ok := ev["t"]; !ok {
			t.Fatalf("event missing timestamp: %s", line)
		}
	}
	if kinds["progress"] == 0 {
		t.Fatalf("no progress events in log: %v", kinds)
	}
	if kinds["segment_done"] == 0 {
		t.Fatalf("no segment_done events in log: %v", kinds)
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
