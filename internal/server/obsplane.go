// Observability plane: the wall-clock sampler feeding the in-process
// timeseries store, and the /api handlers the embedded dashboard
// consumes (the profiles behind /api/history are the ledger's finished
// jobs').
package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"

	"progressdb/client"
	"progressdb/internal/obs"
	"progressdb/internal/server/history"
)

// dashboardSeries are the series IDs the embedded dashboard's sparkline
// panel plots by default. TestObsListsResolve checks every entry against
// the series a live server exposes — a typo here fails a test, not
// silently renders an empty chart.
var dashboardSeries = []string{
	"server_queue_depth",
	"server_queries_running",
	"server_sse_subscribers",
	"server_queries_admitted_total",
	"server_queries_rejected_total",
	"server_inflight_u",
	"server_inflight_queries",
	"server_u_per_wall_second",
	"server_progress_events_total",
	"server_query_wall_seconds_count",
	"engine_queries_total",
	"bufferpool_hits_total",
	"bufferpool_misses_total",
	"disk_seq_reads_total",
	"vclock_seconds",
}

// fleetSeries extend the sparkline list when the server fronts a fleet:
// the coordinator's own instruments (the engine series above live on
// per-shard registries and are not sampled fleet-wide).
var fleetSeries = []string{
	"fleet_queries_total",
	"fleet_subqueries_total",
	"fleet_rows_merged_total",
	"fleet_progress_events_total",
	"fleet_queries_failed_total",
	"fleet_cancels_propagated_total",
}

// fleetShardPercentSeries is the series-ID stem of the per-shard
// progress gauges the dashboard's heatmap reads; the dashboard config
// serves the full IDs, fleet_shard_percent{shard="0"} … {shard="N-1"}.
const fleetShardPercentSeries = "fleet_shard_percent"

// ---- sampler ---------------------------------------------------------

// sampler is the daemon-mode timeseries feed: every SampleInterval it
// snapshots the instruments and records one point per series, stamped
// with wall-clock time. Tests run with SampleInterval < 0 and drive
// sampleOnce directly with virtual timestamps instead.
func (s *Server) sampler() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SampleInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sampleOnce(float64(time.Now().UnixNano()) / 1e9)
		case <-s.quit:
			return
		}
	}
}

// sampleOnce records one sampler pass at time now (seconds): the same
// full snapshot /metrics renders, virtual-clock gauges synced.
func (s *Server) sampleOnce(now float64) {
	s.ts.Record(now, s.samples())
	s.lastSample.Store(math.Float64bits(now))
	s.met.samples.Inc()
}

// samples snapshots every instrument, the server's and the engine's.
// Engine.Metrics is safe while queries run, so nothing is waited for.
func (s *Server) samples() []obs.Sample {
	s.reg.syncGauges()
	return append(s.met.reg.Snapshot(), s.eng.Metrics()...)
}

// sampleNow returns the most recent sample timestamp (0 before the first
// pass) — the /api/timeseries notion of "now".
func (s *Server) sampleNow() float64 {
	return math.Float64frombits(s.lastSample.Load())
}

// ---- /api handlers ---------------------------------------------------

func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	window := 300.0
	if v := q.Get("window"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			writeErr(w, http.StatusBadRequest, "window must be a positive number of seconds")
			return
		}
		window = f
	}
	points := 120
	if v := q.Get("points"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, "points must be a positive integer")
			return
		}
		points = n
	}
	var names []string
	if v := q.Get("metrics"); v != "" {
		for _, m := range strings.Split(v, ",") {
			if m = strings.TrimSpace(m); m != "" {
				names = append(names, m)
			}
		}
	}

	now := s.sampleNow()
	series := s.ts.Query(names, now-window, now, points)
	resp := client.TimeseriesResponse{
		Now:           now,
		WindowSeconds: window,
		Series:        make([]client.TimeseriesSeries, 0, len(series)),
	}
	if s.cfg.SampleInterval > 0 {
		resp.SampleIntervalMS = int(s.cfg.SampleInterval / time.Millisecond)
	}
	for _, sr := range series {
		ts := client.TimeseriesSeries{
			Name:   sr.Name,
			Kind:   string(sr.Kind),
			Help:   sr.Help,
			Points: make([]client.TSPoint, 0, len(sr.Points)),
		}
		for _, p := range sr.Points {
			ts.Points = append(ts.Points, client.TSPoint{T: p.T, V: p.V})
		}
		resp.Series = append(resp.Series, ts)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHistoryList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sortBy := q.Get("sort")
	switch sortBy {
	case "", history.SortFinished, history.SortDuration, history.SortQError:
	default:
		writeErr(w, http.StatusBadRequest, "sort must be one of finished, duration, qerror")
		return
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	profiles := s.reg.profiles()
	writeJSON(w, http.StatusOK, client.HistoryResponse{
		Capacity: s.cfg.HistoryDepth,
		Retained: len(profiles),
		Profiles: history.Rank(profiles, sortBy, limit),
	})
}

func (s *Server) handleHistoryGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p, ok := s.reg.profile(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no retained profile for query %q", id)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

func (s *Server) handleDashboardConfig(w http.ResponseWriter, r *http.Request) {
	cfg := client.DashboardConfig{
		SparklineSeries: dashboardSeries,
		HistoryCapacity: s.cfg.HistoryDepth,
		Shards:          s.eng.Shards(),
	}
	if cfg.Shards > 1 {
		// Fleet mode: engine-internal series live on per-shard registries
		// and are not sampled fleet-wide — plot the server series plus the
		// coordinator's fleet instruments instead.
		var series []string
		for _, name := range dashboardSeries {
			if strings.HasPrefix(name, "server_") {
				series = append(series, name)
			}
		}
		cfg.SparklineSeries = append(series, fleetSeries...)
		for i := 0; i < cfg.Shards; i++ {
			cfg.ShardSeries = append(cfg.ShardSeries, fmt.Sprintf(`%s{shard="%d"}`, fleetShardPercentSeries, i))
		}
	}
	if s.cfg.SampleInterval > 0 {
		cfg.SampleIntervalMS = int(s.cfg.SampleInterval / time.Millisecond)
	}
	if s.cfg.KeepAlive > 0 {
		cfg.KeepAliveMS = int(s.cfg.KeepAlive / time.Millisecond)
	}
	writeJSON(w, http.StatusOK, cfg)
}

// ---- debug surface ---------------------------------------------------

// DebugHandler returns the process-introspection surface progressd
// mounts on its -debug-addr listener: net/http/pprof under /debug/pprof/
// and a JSON dump of runtime/metrics at /debug/runtime. It is a separate
// handler (not part of the query API mux) so operators can keep it on a
// loopback-only port.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime", handleRuntimeMetrics)
	return mux
}

// handleRuntimeMetrics dumps every scalar runtime/metrics sample as a
// JSON object (histogram-kinded metrics are summarized by their bucket
// count total — the full distributions belong to pprof).
func handleRuntimeMetrics(w http.ResponseWriter, r *http.Request) {
	descs := rtmetrics.All()
	samples := make([]rtmetrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	rtmetrics.Read(samples)
	out := make(map[string]interface{}, len(samples))
	for _, sm := range samples {
		switch sm.Value.Kind() {
		case rtmetrics.KindUint64:
			out[sm.Name] = sm.Value.Uint64()
		case rtmetrics.KindFloat64:
			out[sm.Name] = sm.Value.Float64()
		case rtmetrics.KindFloat64Histogram:
			var total uint64
			for _, c := range sm.Value.Float64Histogram().Counts {
				total += c
			}
			out[sm.Name] = fmt.Sprintf("histogram(%d samples)", total)
		}
	}
	writeJSON(w, http.StatusOK, out)
}
