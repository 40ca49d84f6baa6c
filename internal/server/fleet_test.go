package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"progressdb"
	"progressdb/client"
	"progressdb/internal/fleet"
)

// getJSON fetches a URL and decodes its JSON body.
func getJSON(t *testing.T, url string, out interface{}) error {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// syntheticFleet builds a 4-shard fleet holding the same synthetic table
// as syntheticDB, rows hash-routed on k.
func syntheticFleet(t testing.TB) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(fleet.Config{
		Shards: 4,
		Shard: progressdb.Config{
			ProgressUpdateSeconds: 0.25,
			SpeedWindowSeconds:    1,
			SeqPageCost:           0.05,
			RandPageCost:          0.4,
			BufferPoolPages:       64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CreateTable("t", "k",
		progressdb.Col("k", progressdb.Int), progressdb.Col("pad", progressdb.Text)); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 100)
	for i := 0; i < 20000; i++ {
		if err := f.Insert("t", int64(i), pad); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := f.ColdRestart(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetServing runs the full HTTP surface against a sharded fleet:
// submit, stream progress with per-shard breakdowns, fetch the merged
// result, and scrape the coordinator's fleet_* metrics.
func TestFleetServing(t *testing.T) {
	f := syntheticFleet(t)
	s := NewFleet(f, Config{Workers: 1, QueueDepth: 4, SampleInterval: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	cl := client.New(ts.URL)
	ctx := context.Background()

	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t", KeepRows: true})
	if err != nil {
		t.Fatal(err)
	}

	var events []client.ProgressEvent
	if err := cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("only %d progress events", len(events))
	}
	last := events[len(events)-1]
	if last.State != client.StateDone || last.Percent != 100 {
		t.Fatalf("terminal event: state=%s percent=%.1f", last.State, last.Percent)
	}
	// Per-shard breakdown must reach the wire, with sane shard ids.
	withShards := 0
	for _, ev := range events {
		if len(ev.Shards) > 0 {
			withShards++
			for _, sp := range ev.Shards {
				if sp.Shard < 0 || sp.Shard >= 4 {
					t.Fatalf("event %d names shard %d", ev.Seq, sp.Shard)
				}
			}
		}
	}
	if withShards == 0 {
		t.Fatal("no progress event carried a per-shard breakdown")
	}
	// Monotone global progress on the wire.
	lastPct := -1.0
	for _, ev := range events {
		if ev.Percent < lastPct {
			t.Fatalf("event %d: percent %g < %g", ev.Seq, ev.Percent, lastPct)
		}
		lastPct = ev.Percent
	}

	res, err := cl.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 20000 {
		t.Fatalf("merged result has %d rows, want 20000", res.RowCount)
	}

	// The metrics page is the coordinator's registry.
	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fleet_shards 4", "fleet_queries_total 1", "fleet_subqueries_total 4"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// A cancel over HTTP reaches every shard.
	victim, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select * from t", PaceMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, victim.ID, client.StateRunning)
	if _, err := cl.Cancel(ctx, victim.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, victim.ID, client.StateCanceled)
	wantMetrics(t, cl, "fleet_queries_total 2", "fleet_cancels_propagated_total 1")

	// Dashboard config flips into fleet mode.
	cfgResp := struct {
		Shards          int      `json:"shards"`
		SparklineSeries []string `json:"sparkline_series"`
	}{}
	if err := getJSON(t, ts.URL+"/api/dashboard/config", &cfgResp); err != nil {
		t.Fatal(err)
	}
	if cfgResp.Shards != 4 {
		t.Fatalf("dashboard config shards = %d, want 4", cfgResp.Shards)
	}
	hasFleetSeries := false
	for _, name := range cfgResp.SparklineSeries {
		if strings.HasPrefix(name, "fleet_") {
			hasFleetSeries = true
		}
		if strings.HasPrefix(name, "engine_") || strings.HasPrefix(name, "bufferpool_") {
			t.Fatalf("fleet dashboard config lists per-shard engine series %q", name)
		}
	}
	if !hasFleetSeries {
		t.Fatal("fleet dashboard config lists no fleet_ series")
	}
}

// TestFleetServingUnsupported: a non-distributable query fails loudly
// through the HTTP surface with the coordinator's reason.
func TestFleetServingUnsupported(t *testing.T) {
	f := syntheticFleet(t)
	s := NewFleet(f, Config{Workers: 1, QueueDepth: 4, SampleInterval: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	cl := client.New(ts.URL)
	ctx := context.Background()

	sub, err := cl.Submit(ctx, client.SubmitRequest{
		SQL: "select * from t a, t b where a.k <> b.k",
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitState(t, cl, sub.ID, client.StateFailed)
	if !strings.Contains(info.Error, "not shard-distributable") {
		t.Fatalf("failure reason %q does not name the rejection", info.Error)
	}
}

// TestFleetServingTimeseries drives the sampler and checks per-shard
// heatmap series land in /api/timeseries.
func TestFleetServingTimeseries(t *testing.T) {
	f := syntheticFleet(t)
	s := NewFleet(f, Config{Workers: 1, QueueDepth: 4, SampleInterval: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	cl := client.New(ts.URL)
	ctx := context.Background()

	sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: "select count(*) from t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Stream(ctx, sub.ID, func(client.ProgressEvent) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s.sampleOnce(1)
	s.sampleOnce(2)

	tsr, err := cl.Timeseries(ctx, client.TimeseriesRequest{WindowSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, series := range tsr.Series {
		if strings.HasPrefix(series.Name, "fleet_shard_percent{") && len(series.Points) > 0 {
			found[series.Name] = true
		}
	}
	for shard := 0; shard < 4; shard++ {
		id := `fleet_shard_percent{shard="` + string(rune('0'+shard)) + `"}`
		if !found[id] {
			t.Fatalf("timeseries missing heatmap series %s (have %v)", id, found)
		}
	}
}
