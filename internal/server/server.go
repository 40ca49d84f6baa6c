// Package server is progressd's HTTP query service: asynchronous query
// submission behind cost- and depth-bounded admission control, a worker
// pool, live progress streaming over Server-Sent Events, cancellation
// that unwinds the executor at its safe points, and the engine's
// instruments served at /metrics with the server-level ones alongside.
//
// Surface:
//
//	POST   /queries               submit {sql, name?, keep_rows?, pace_ms?, deadline_ms?} → 202 {id, state, queue_position} | 429 {reason, retry_after_seconds?}
//	GET    /queries               list the live queries and the newest Config.HistoryDepth finished ones
//	GET    /queries/{id}          lifecycle snapshot (state, latest progress, timings)
//	GET    /queries/{id}/progress SSE stream: every indicator refresh as JSON, replay included
//	GET    /queries/{id}/result   completed result rows
//	DELETE /queries/{id}          cancel (queued: immediate; running: at next executor safe point)
//	GET    /metrics               Prometheus text exposition (engine + server instruments)
//	GET    /healthz               liveness, queue summary, remaining-work budget, per-shard breaker health
//	POST   /admin/drain           graceful drain: stop admission, wait for in-flight work, then cancel stragglers
//
// Concurrency model: the engine executes queries concurrently — each
// query runs on its own worker clock that merges into the engine's
// shared time authority — and Config.Workers goroutines are the one
// bound on how many do. One ledger (ledger.go) holds every job from the
// admission decision to eviction; the bounds it enforces at admission
// (queue depth, remaining-work budget) are how much more may wait.
// Everything else — snapshots, SSE fan-out, cancellation, /metrics — is
// fully concurrent.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"progressdb"
	"progressdb/client"
	"progressdb/internal/exec"
	"progressdb/internal/fleet"
	"progressdb/internal/obs"
	"progressdb/internal/obs/tsdb"
	"progressdb/internal/server/dashboard"
)

// Config configures a Server.
type Config struct {
	// Workers is the number of queries that may execute on the engine
	// simultaneously: the size of the worker pool, so -workers N means
	// N truly parallel executions on the shared DB. Default 1 (serial,
	// fully deterministic ordering).
	Workers int
	// QueueDepth bounds the admission queue; a submit that finds it
	// full is rejected with 429. Default 8.
	QueueDepth int
	// QueryTimeout, when > 0, bounds each query's execution by a
	// wall-clock deadline. A query that exceeds it unwinds at the
	// executor's next safe point and finishes in state "failed" with a
	// timeout error (user cancellations stay "canceled"); the
	// server_queries_timedout_total counter tracks occurrences.
	QueryTimeout time.Duration
	// SampleInterval is the timeseries sampler's cadence: every
	// interval, one point per registered instrument is recorded into
	// the ring-buffer store behind /api/timeseries. 0 means the 1 s
	// default; negative disables the wall-clock sampler entirely
	// (tests then drive sampleOnce with virtual timestamps).
	SampleInterval time.Duration
	// HistoryDepth is how many finished queries stay addressable
	// (default 256): /queries/{id}, its result and its /api/history
	// profile go together when that many newer queries have ended.
	HistoryDepth int
	// KeepAlive is the idle interval after which an SSE progress
	// stream emits a `: ping` comment so proxies and EventSource
	// clients don't drop long-quiet connections. 0 means the 15 s
	// default; negative disables pings.
	KeepAlive time.Duration
	// MaxInflightU, when > 0, is the admission controller's in-flight
	// remaining-work budget in U: a submit whose optimizer-estimated
	// cost would push the sum of (est_total_u − done_u) across admitted
	// queries past this is shed with 429 + Retry-After instead of
	// queued. 0 disables cost-based shedding (queue-depth shedding
	// still applies).
	MaxInflightU float64
	// DrainTimeout is how long Drain (SIGTERM, POST /admin/drain) lets
	// in-flight queries finish before canceling the stragglers at their
	// next safe point. Default 10 s.
	DrainTimeout time.Duration
}

// timeseriesPoints is the per-series ring capacity of the timeseries
// store: 12 minutes of history at the default sampling cadence.
const timeseriesPoints = 720

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = time.Second
	}
	if c.HistoryDepth <= 0 {
		c.HistoryDepth = 256
	}
	if c.KeepAlive == 0 {
		c.KeepAlive = 15 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// metrics are the server-level instruments, in the server's own
// registry; /metrics and the sampler merge them with the engine's.
type metrics struct {
	reg *obs.Registry

	admitted  *obs.Counter
	rejected  *obs.Counter
	canceled  *obs.Counter
	failed    *obs.Counter
	completed *obs.Counter
	timedout  *obs.Counter
	panicked  *obs.Counter
	events    *obs.Counter
	profiles  *obs.Counter
	samples   *obs.Counter
	pings     *obs.Counter

	queueDepth *obs.Gauge
	running    *obs.Gauge
	sseSubs    *obs.Gauge
	retained   *obs.Gauge

	// Admission-control & drain instruments.
	shedByReason map[string]*obs.Counter // server_shed_total{reason=...}
	inflightU    *obs.Gauge
	inflightQ    *obs.Gauge
	drainRate    *obs.Gauge
	drains       *obs.Counter
	drainForced  *obs.Counter
	drainingG    *obs.Gauge

	wall *obs.Histogram
}

func newMetrics() *metrics {
	m := &metrics{reg: obs.NewRegistry()}
	m.admitted = m.reg.Counter("server_queries_admitted_total", "queries accepted into the admission queue")
	m.rejected = m.reg.Counter("server_queries_rejected_total", "queries rejected with 429 (queue full)")
	m.canceled = m.reg.Counter("server_queries_canceled_total", "queries canceled before or during execution")
	m.failed = m.reg.Counter("server_queries_failed_total", "queries that ended in error")
	m.completed = m.reg.Counter("server_queries_completed_total", "queries that ran to completion")
	m.timedout = m.reg.Counter("server_queries_timedout_total", "queries that exceeded the per-query deadline")
	m.panicked = m.reg.Counter("server_queries_panicked_total", "queries that ended in a recovered panic (internal error)")
	m.events = m.reg.Counter("server_progress_events_total", "progress events published to subscribers")
	m.profiles = m.reg.Counter("server_history_profiles_total", "terminal-query profiles captured into the history store")
	m.samples = m.reg.Counter("server_timeseries_samples_total", "sampler passes recorded into the timeseries store")
	m.pings = m.reg.Counter("server_sse_keepalives_total", "keep-alive comments written on idle progress streams")
	m.shedByReason = map[string]*obs.Counter{
		client.ShedQueueFull: m.reg.LabeledCounter("server_shed_total", "reason", client.ShedQueueFull, "submits shed because the admission queue was full"),
		client.ShedBudget:    m.reg.LabeledCounter("server_shed_total", "reason", client.ShedBudget, "submits shed because the in-flight remaining-work budget was exhausted"),
		client.ShedDeadline:  m.reg.LabeledCounter("server_shed_total", "reason", client.ShedDeadline, "submits shed because the estimated completion exceeded deadline_ms"),
		client.ShedDraining:  m.reg.LabeledCounter("server_shed_total", "reason", client.ShedDraining, "submits shed because the server was draining"),
	}
	m.inflightU = m.reg.Gauge("server_inflight_u", "remaining-work estimate across admitted queries, in U")
	m.inflightQ = m.reg.Gauge("server_inflight_queries", "admitted queries not yet terminal")
	m.drainRate = m.reg.Gauge("server_u_per_wall_second", "EWMA of the observed drain rate (U per wall-clock second)")
	m.drains = m.reg.Counter("server_drains_total", "graceful drains initiated (SIGTERM or /admin/drain)")
	m.drainForced = m.reg.Counter("server_drain_forced_cancels_total", "queries canceled because the drain deadline expired")
	m.drainingG = m.reg.Gauge("server_draining", "1 while the server refuses new admissions for shutdown")
	m.queueDepth = m.reg.Gauge("server_queue_depth", "queries waiting in the admission queue")
	m.running = m.reg.Gauge("server_queries_running", "queries currently executing")
	m.sseSubs = m.reg.Gauge("server_sse_subscribers", "open progress streams")
	m.retained = m.reg.Gauge("server_history_retained", "profiles currently held by the history store")
	m.wall = m.reg.Histogram("server_query_wall_seconds",
		"real (wall-clock) execution time per query",
		[]float64{0.001, 0.005, 0.02, 0.1, 0.5, 2, 10, 60})
	return m
}

// Server is one progressd instance wrapping an execution engine —
// a single progressdb.DB or a sharded fleet.
type Server struct {
	eng Engine
	cfg Config
	reg *registry
	met *metrics

	ts *tsdb.Store
	// lastSample holds the float64 bits of the most recent sample
	// timestamp — the /api/timeseries notion of "now", which follows
	// whichever clock feeds the sampler (wall in the daemon, virtual in
	// tests).
	lastSample atomic.Uint64

	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	mux *http.ServeMux
}

// New creates a server over a single-engine db and starts its worker
// pool. The engine must already hold its tables (load and Analyze before
// serving). Call Close to stop the workers.
func New(db *progressdb.DB, cfg Config) *Server {
	return NewEngine(dbEngine{db: db}, cfg)
}

// NewFleet creates a server fronting a sharded fleet: queries fan out
// across the shards, progress events carry the per-shard breakdown, and
// /metrics serves the coordinator's fleet_* instruments.
func NewFleet(f *fleet.Fleet, cfg Config) *Server {
	return NewEngine(fleetEngine{f: f}, cfg)
}

// NewEngine creates a server over any Engine and starts its worker pool.
func NewEngine(eng Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:  eng,
		cfg:  cfg,
		met:  newMetrics(),
		ts:   tsdb.New(timeseriesPoints),
		quit: make(chan struct{}),
		mux:  http.NewServeMux(),
	}
	s.reg = newRegistry(cfg, s.met)
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.SampleInterval > 0 {
		s.wg.Add(1)
		go s.sampler()
	}
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the worker pool: admission ends, queued queries transition
// to canceled, running queries are canceled and unwound at their next
// safe point, and Close returns when every worker has exited.
func (s *Server) Close() {
	s.once.Do(func() {
		close(s.quit)
		s.reg.drain()
		for _, j := range s.reg.live() {
			s.reg.cancel(j, "server shutting down")
		}
		s.wg.Wait()
	})
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /queries", s.handleSubmit)
	s.mux.HandleFunc("GET /queries", s.handleList)
	s.mux.HandleFunc("GET /queries/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /queries/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /queries/{id}/progress", s.handleProgress)
	s.mux.HandleFunc("GET /queries/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /admin/drain", s.handleDrain)
	s.mux.HandleFunc("GET /api/timeseries", s.handleTimeseries)
	s.mux.HandleFunc("GET /api/history", s.handleHistoryList)
	s.mux.HandleFunc("GET /api/history/{id}", s.handleHistoryGet)
	s.mux.HandleFunc("GET /api/dashboard/config", s.handleDashboardConfig)
	s.mux.Handle("GET /{$}", dashboard.Handler())
}

// ---- worker pool -----------------------------------------------------

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.reg.ready:
			if j := s.reg.next(time.Now()); j != nil {
				s.runJob(j)
			}
		case <-s.quit:
			return
		}
	}
}

// runJob owns one running job: execute with progress fan-out, then
// drive the terminal transition.
func (s *Server) runJob(j *job) {
	// Per-query deadline: layered on the job's cancel context so a user
	// cancel and a timeout are distinguishable afterwards.
	runCtx, cancelRun := j.ctx, func() {}
	if s.cfg.QueryTimeout > 0 {
		runCtx, cancelRun = context.WithTimeout(j.ctx, s.cfg.QueryTimeout)
	}
	defer cancelRun()

	onProgress := func(p Progress) {
		ev := client.EventFromReport(j.id, p.Report)
		ev.Shards = p.Shards
		// Counted before it is published: whoever has read the event must
		// already find it in the counter.
		s.met.events.Inc()
		j.publish(ev)
		// The event just published is what the ledger prices this job by
		// from now on; all that is left to tell it is the drain rate.
		if wall := time.Since(j.started).Seconds(); wall > 0.005 {
			s.reg.observeRate(p.Report.DoneU, wall)
		}
		if j.pace > 0 {
			t := time.NewTimer(j.pace)
			select {
			case <-t.C:
			case <-runCtx.Done():
				t.Stop()
			}
		}
	}

	// Counter baseline for the history profile. With Workers == 1 the
	// worker is the engine's only user, so post-minus-pre deltas of
	// engine counters are exactly this query's doing; with Workers > 1
	// the deltas include neighbors' work and the profile's
	// engine-counter section is approximate.
	before := counterBaseline(s.eng.Metrics())

	start := time.Now()
	var res *progressdb.Result
	var err error
	// Worker-level panic boundary: the engine already converts executor
	// panics into *exec.InternalError, but a panic escaping anywhere in
	// the submission path must fail only this job, never the server.
	func() {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, exec.NewInternalError(r, debug.Stack())
			}
		}()
		res, err = s.eng.ExecQuery(runCtx, j.sql, j.keepRows, onProgress)
	}()
	s.met.wall.Observe(time.Since(start).Seconds())
	j.setCounters(counterDeltas(before, s.eng.Metrics()))

	state := client.StateFailed
	switch {
	case err == nil:
		state = client.StateDone
	case errors.Is(err, context.Canceled):
		state = client.StateCanceled
	case errors.Is(err, context.DeadlineExceeded):
		// A deadline expiry is the server's doing, not the user's: the
		// job fails (with a timeout-flavored error) rather than reading
		// as canceled.
		err = fmt.Errorf("query timeout exceeded: %w", err)
	}
	s.reg.finish(j, state, err, res)
}

// ---- handlers --------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, client.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// shed rejects one submit with the verdict's reason and, when the
// verdict has one, its Retry-After estimate — as the HTTP header (whole
// seconds, rounded up) and with sub-second precision in the body.
func (s *Server) shed(w http.ResponseWriter, v verdict, req client.SubmitRequest, costU float64) {
	s.met.rejected.Inc()
	s.met.shedByReason[v.reason].Inc()
	status := http.StatusTooManyRequests
	resp := client.ErrorResponse{Reason: v.reason, RetryAfterSeconds: v.retryAfter}
	switch v.reason {
	case client.ShedDraining:
		status = http.StatusServiceUnavailable
		resp.Error = "server draining, not admitting new queries"
	case client.ShedBudget:
		resp.Error = fmt.Sprintf("in-flight work budget exhausted (%.0f U in flight, query needs %.0f U of %.0f U budget), retry later",
			v.inflightU, costU, s.cfg.MaxInflightU)
	case client.ShedDeadline:
		resp.Error = fmt.Sprintf("estimated completion in %.0f ms exceeds deadline_ms=%d, failing fast",
			v.estimatedMS, req.DeadlineMS)
	case client.ShedQueueFull:
		resp.Error = "admission queue full, retry later"
		resp.QueueDepth = s.cfg.QueueDepth
	}
	if v.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(v.retryAfter))))
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req client.SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeErr(w, http.StatusBadRequest, "sql is required")
		return
	}
	if req.PaceMS < 0 || req.PaceMS > 10_000 {
		writeErr(w, http.StatusBadRequest, "pace_ms must be in [0, 10000]")
		return
	}
	if req.DeadlineMS < 0 {
		writeErr(w, http.StatusBadRequest, "deadline_ms must be >= 0")
		return
	}
	select {
	case <-s.quit:
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
	}

	// Price the query with the optimizer's initial estimate — a pure
	// catalog read, safe concurrently with whatever the engine is
	// executing. An unplannable query is admitted at unknown cost (< 0)
	// and fails in execution with full error attribution.
	costU, costErr := s.eng.EstimateCostU(req.SQL)
	if costErr != nil {
		costU = -1
	}

	j, v := s.reg.admit(req, costU, time.Now())
	if j == nil {
		s.shed(w, v, req, costU)
		return
	}
	writeJSON(w, http.StatusAccepted, client.SubmitResponse{
		ID:            j.id,
		State:         j.currentState(),
		QueuePosition: s.reg.queuePosition(j),
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.reg.list()
	out := make([]client.QueryInfo, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.info(s.reg.queuePosition(j)))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.reg.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such query %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.info(s.reg.queuePosition(j)))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	s.reg.cancel(j, "canceled while queued")
	writeJSON(w, http.StatusOK, j.info(0))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	res, done := j.result()
	if !done {
		writeErr(w, http.StatusNotFound, "query %s has no result (state %s)", j.id, j.currentState())
		return
	}
	writeJSON(w, http.StatusOK, client.ResultResponse{
		ID:             j.id,
		Columns:        res.Columns,
		Rows:           res.Rows,
		RowCount:       res.RowCount(),
		VirtualSeconds: res.VirtualSeconds,
		Refreshes:      len(res.History),
	})
}

// handleProgress streams a query's progress events as SSE: a replay of
// everything already published, then live events until the terminal one.
// Every event carries an `id:` line with its sequence number; a
// reconnecting client that presents `Last-Event-ID` has the replay
// filtered to events it has not yet seen, so a dropped connection can be
// resumed without duplicates or gaps.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	lastSeen := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "Last-Event-ID must be a non-negative event sequence number")
			return
		}
		lastSeen = n
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeErr(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	replay, sub, sid := j.subscribe()
	defer j.unsubscribe(sid)
	s.met.sseSubs.Add(1)
	defer s.met.sseSubs.Add(-1)

	write := func(ev client.ProgressEvent) bool {
		if ev.Seq <= lastSeen {
			// Already delivered on a previous connection. A terminal event
			// still closes the stream — the query is over either way.
			return !ev.Terminal()
		}
		name := "progress"
		if ev.Terminal() {
			name = string(ev.State)
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, name, data); err != nil {
			return false
		}
		fl.Flush()
		return !ev.Terminal()
	}

	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	for {
		var evs []client.ProgressEvent
		var alive, ping bool
		if s.cfg.KeepAlive > 0 {
			evs, alive, ping = sub.waitKeepAlive(r.Context(), s.cfg.KeepAlive)
		} else {
			evs, alive = sub.wait(r.Context())
		}
		if !alive {
			return // client went away
		}
		if ping {
			// SSE comment line: ignored by event parsers, but keeps the
			// connection warm through proxies while a slow (or paced)
			// query is between refreshes.
			// Counted before the write: a client that has read the ping
			// must already see it in the counter.
			s.met.pings.Inc()
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
			continue
		}
		for _, ev := range evs {
			if !write(ev) {
				return
			}
		}
	}
}

// handleMetrics serves the Prometheus page: the server's instruments and
// the engine's, one sorted page. The engine's instruments are atomic
// and its clock gauges read the shared clock group, so the page renders
// concurrently with running queries.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, obs.FormatPrometheusText(s.samples()))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	l := s.reg.load()
	status := "ok"
	if l.draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, client.HealthResponse{
		Status:          status,
		Queued:          l.queued,
		Running:         l.running,
		Workers:         s.cfg.Workers,
		InflightU:       l.inflightU,
		InflightQueries: l.queued + l.running,
		MaxInflightU:    s.cfg.MaxInflightU,
		Shards:          s.eng.Health(),
	})
}
