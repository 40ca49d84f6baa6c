// Observability plane: the wall-clock sampler feeding the in-process
// timeseries store, per-query engine-counter attribution, and the /api
// handlers the embedded dashboard consumes (the profiles behind
// /api/history are the ledger's finished jobs').
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
	"progressdb/internal/obs/tsdb"
	"progressdb/internal/server/history"
)

// dashboardSeries are the series IDs the embedded dashboard's sparkline
// panel plots by default. Every entry goes through tsdb.Ref so the
// obsnames analyzer cross-checks it against the module's actual metric
// registrations — a typo here fails lint, not silently renders an empty
// chart.
var dashboardSeries = []string{
	tsdb.Ref("server_queue_depth"),
	tsdb.Ref("server_queries_running"),
	tsdb.Ref("server_sse_subscribers"),
	tsdb.Ref("server_queries_admitted_total"),
	tsdb.Ref("server_queries_rejected_total"),
	tsdb.Ref("server_inflight_u"),
	tsdb.Ref("server_inflight_queries"),
	tsdb.Ref("server_u_per_wall_second"),
	tsdb.Ref("server_progress_events_total"),
	tsdb.Ref("server_query_wall_seconds_count"),
	tsdb.Ref("engine_queries_total"),
	tsdb.Ref("bufferpool_hits_total"),
	tsdb.Ref("bufferpool_misses_total"),
	tsdb.Ref("disk_seq_reads_total"),
	tsdb.Ref("vclock_seconds"),
}

// fleetSeries extend the sparkline list when the server fronts a fleet:
// the coordinator's own instruments (the engine series above live on
// per-shard registries and are not sampled fleet-wide).
var fleetSeries = []string{
	tsdb.Ref("fleet_queries_total"),
	tsdb.Ref("fleet_subqueries_total"),
	tsdb.Ref("fleet_rows_merged_total"),
	tsdb.Ref("fleet_progress_events_total"),
	tsdb.Ref("fleet_queries_failed_total"),
	tsdb.Ref("fleet_cancels_propagated_total"),
}

// fleetShardPercentSeries is the series-ID stem of the per-shard
// progress gauges the dashboard's heatmap reads; the full IDs are
// fleet_shard_percent{shard="0"} … {shard="N-1"}.
var fleetShardPercentSeries = tsdb.Ref("fleet_shard_percent")

// profileCounters are the engine counter families whose per-query deltas
// are attached to history profiles: exactly one query's doing with
// Workers == 1, neighbors' work included otherwise. Ref-checked like
// the dashboard list.
var profileCounters = map[string]bool{
	tsdb.Ref("bufferpool_hits_total"):              true,
	tsdb.Ref("bufferpool_misses_total"):            true,
	tsdb.Ref("bufferpool_evictions_total"):         true,
	tsdb.Ref("bufferpool_dirty_writebacks_total"):  true,
	tsdb.Ref("disk_seq_reads_total"):               true,
	tsdb.Ref("disk_rand_reads_total"):              true,
	tsdb.Ref("disk_seq_writes_total"):              true,
	tsdb.Ref("disk_rand_writes_total"):             true,
	tsdb.Ref("storage_io_retries_total"):           true,
	tsdb.Ref("storage_io_retry_giveups_total"):     true,
	tsdb.Ref("faultinject_read_faults_total"):      true,
	tsdb.Ref("faultinject_write_faults_total"):     true,
	tsdb.Ref("faultinject_transient_faults_total"): true,
	tsdb.Ref("faultinject_latency_events_total"):   true,
	tsdb.Ref("faultinject_panics_total"):           true,
	tsdb.Ref("indicator_refreshes_total"):          true,
	tsdb.Ref("indicator_segments_completed_total"): true,
	tsdb.Ref("indicator_dominant_switches_total"):  true,
	tsdb.Ref("exec_rows_out_total"):                true,
}

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

// ---- per-query counter attribution -----------------------------------

// counterBaseline picks the profile-relevant counters out of an engine
// snapshot, by series ID. No samples (engine metrics off) yield an empty
// baseline and thus profiles without counters.
func counterBaseline(samples []obs.Sample) map[string]float64 {
	out := make(map[string]float64)
	for _, sm := range samples {
		if sm.Kind == obs.KindCounter && profileCounters[sm.Name] {
			out[sm.ID()] = sm.Value
		}
	}
	return out
}

// counterDeltas returns the counters that moved since before, keyed by
// series ID. Nil when nothing moved (the common fault-free case keeps
// profiles small).
func counterDeltas(before map[string]float64, samples []obs.Sample) map[string]float64 {
	var out map[string]float64
	for _, sm := range samples {
		if sm.Kind != obs.KindCounter || !profileCounters[sm.Name] {
			continue
		}
		if d := sm.Value - before[sm.ID()]; d > 0 {
			if out == nil {
				out = make(map[string]float64)
			}
			out[sm.ID()] = d
		}
	}
	return out
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
