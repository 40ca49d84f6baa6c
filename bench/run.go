package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"progressdb/client"
)

func newResult(w *workloadDef, seed int64, ops []op) *result {
	return &result{Workload: w.Name, Seed: seed, Ops: classCounts(w.Classes, ops)}
}

// executorFor is the workload's untraced executor: the measured path of
// the end-to-end metrics.
func (e *benchEnv) executorFor() executor {
	if e.w.Serve {
		return e.serveExec(nil, nil)
	}
	return e.engineExec()
}

// runEndToEnd sets the workload up (sz.Setups times; setup_s is the
// fastest of them), runs the whole op list once with tracing off, holds
// every op to the oracle and returns the end-to-end metrics.
func runEndToEnd(w *workloadDef, sz sizing, seed int64) (*result, error) {
	ops, _ := w.ops(sz, seed)
	res := newResult(w, seed, ops)
	var env *benchEnv
	setupS := math.Inf(1)
	for i := 0; i < sz.Setups; i++ {
		if env != nil {
			env.close()
		}
		e, err := setUp(w, sz, ops)
		if err != nil {
			return nil, err
		}
		env = e
		setupS = math.Min(setupS, env.times.Total.Seconds())
	}
	defer env.close()

	p := runOps(ops, w.clients(), env.executorFor(), false)
	res.merge(p)
	if err := env.checkLeaks(); err != nil {
		res.Leaks = err.Error()
	}
	vals, n := endToEndMetrics(p, w.clients())
	vals["setup_s"] = setupS
	res.EndToEnd = withUnits(endToEnd, vals, n)
	ledger := make(map[string]float64)
	indicatorStats(p, terminalEvents(w), ledger)
	vals["virt_s_per_query"] = ledger["vclock.virt_s_per_query"]
	vals["remaining_err_pct"] = ledger["core.remaining_err_pct"]
	vals["done_u_per_query"] = ledger["core.done_u_per_query"]
	res.Ungated = withUnits(ungated, vals, n)
	return res, nil
}

// quietWalls returns the outcomes of a pass one client ran with the
// host's interference taken out of the wall and first-report times: each
// op that passed the oracle gets the fastest time any op of its class
// took. A failed op keeps its own times and lends them to nobody.
//
// One client replays a class's statement on the same data in the same
// engine state — the virtual ledger repeats, bit for bit on a resident
// pool — so what separates two repetitions' wall times is not the query
// but the host (and where the collector happened to be). On the shared host this
// benchmark was defined on that is most of what a run-wide median sees,
// while the fastest repetition hardly moves (README.md, "How steady it
// is"). The fastest of a fixed number of replays is the usual estimate
// of a deterministic computation's own cost; the op list fixes that
// number per class, so both sides of a comparison take the minimum of
// equally many.
//
// This does not carry over to two clients: there an op's time depends on
// what the other client runs beside it, which is the program's own
// doing, and the fastest repetition is the luckiest pairing. The served
// workloads are reported as measured.
func quietWalls(outcomes []outcome) []outcome {
	type best struct{ wall, first float64 }
	fastest := make(map[int]best)
	for _, o := range outcomes {
		if o.Fail != "" {
			continue
		}
		b, ok := fastest[o.Class]
		if !ok {
			b = best{math.Inf(1), math.Inf(1)}
		}
		fastest[o.Class] = best{math.Min(b.wall, o.WallUS), math.Min(b.first, o.FirstUS)}
	}
	quiet := append([]outcome(nil), outcomes...)
	for i := range quiet {
		if quiet[i].Fail == "" {
			quiet[i].WallUS, quiet[i].FirstUS = fastest[quiet[i].Class].wall, fastest[quiet[i].Class].first
		}
	}
	return quiet
}

// endToEndMetrics derives the user-visible metrics (gated and p95) from
// one untraced pass. Latencies are taken over the ops that finished and
// passed the oracle; a failed op counts against goodput and in ops_failed
// instead. A single client's times go through quietWalls first, and its
// goodput is over the wall the list takes at those times (one client's
// wall is the sum of its ops' walls).
func endToEndMetrics(p *pass, clients int) (map[string]float64, map[string]int) {
	outcomes, passS := p.Outcomes, p.Wall.Seconds()
	if clients == 1 {
		outcomes, passS = quietWalls(outcomes), 0
		for _, o := range outcomes {
			passS += o.WallUS / 1e6
		}
	}
	var wall, first []float64
	for _, o := range outcomes {
		if o.Fail == "" {
			wall = append(wall, o.WallUS/1e3)
			first = append(first, o.FirstUS/1e3)
		}
	}
	vals := map[string]float64{
		"goodput_qps":         float64(len(wall)) / passS,
		"query_wall_p50_ms":   median(wall),
		"first_report_p50_ms": median(first),
		"allocs_per_query":    float64(p.RT.after.Mallocs-p.RT.before.Mallocs) / float64(len(outcomes)),
	}
	p95, ok := percentile(wall, 0.95)
	if !ok && len(wall) > 0 {
		// Too few ops for a p95 with ten samples beyond it (a -smoke or
		// very short run): fall back to the slowest op.
		for _, v := range wall {
			p95 = math.Max(p95, v)
		}
	}
	vals["query_wall_p95_ms"] = p95
	n := map[string]int{"query_wall_p50_ms": len(wall), "query_wall_p95_ms": len(wall), "first_report_p50_ms": len(first)}
	return vals, n
}

// runTraced is the per-layer run: set-up once, then the traced quarter of
// the op list on the workload's own path twice — untraced (the baseline
// for trace.overhead_pct, and where the runtime.* metrics are sampled)
// and traced — then the unit-cost probes and the wall ratios.
//
// The engine's layers are traced by running each op staged on an engine
// assembled from the internal packages (see stagedEngine). On engine_*
// that staged pass is the traced pass; on serve_* the traced pass wraps
// the client calls, and the staged pass is the "same ops in process"
// that splits an op's wall between the engine and the serving path.
func runTraced(w *workloadDef, sz sizing, seed int64, outDir string) (*result, error) {
	ops, quarter := w.ops(sz, seed)
	q := ops[:quarter]
	res := newResult(w, seed, q)
	res.Quartiles = make(map[string][2]float64)
	env, err := setUp(w, sz, ops)
	if err != nil {
		return nil, err
	}
	defer env.close()
	vals := map[string]float64{
		"setup.load_s":          env.times.Load.Seconds(),
		"setup.index_s":         env.times.Index.Seconds(),
		"setup.warm_s":          env.times.Warm.Seconds(),
		"setup.server_start_ms": float64(env.times.ServerStart.Nanoseconds()) / 1e6,
	}
	staged, err := newStagedEngine(w.config(sz), sz.Scale)
	if err != nil {
		return nil, err
	}
	if err := staged.warm(ops); err != nil {
		return nil, err
	}
	rec := newRecorder()
	counts := make([]stagedCounts, len(q))

	var untraced, traced, inproc *pass
	if w.Serve {
		s := &serveTrace{env: env, cl: client.New(env.base)}
		untraced = runOps(q, w.clients(), env.serveExec(nil, nil), true)
		if err := s.scrape(&s.before); err != nil {
			return nil, err
		}
		traced = runOps(q, w.clients(), env.serveExec(rec, &s.queueWait), false)
		if err := s.scrape(&s.after); err != nil {
			return nil, err
		}
		inproc = runOps(q, 1, staged.stagedExec("inproc.op", env.refs, rec, counts), false)
		res.merge(inproc)
		if err := s.layers(rec, len(q), sz.ProbeIters/100+1, vals); err != nil {
			return nil, err
		}
	} else {
		untraced = runOps(q, 1, env.engineExec(), true)
		traced = runOps(q, 1, staged.stagedExec("op", env.refs, rec, counts), false)
		inproc = traced
		// The staged engine went through the same set-up and the same ops
		// as the DB, so op by op the virtual ledger must agree — else the
		// trace measured different work.
		for i := range q {
			u, t := &untraced.Outcomes[i], &traced.Outcomes[i]
			if t.Fail == "" && u.Fail == "" && (t.DoneU != u.DoneU || math.Abs(t.Virt-u.Virt) > 1e-9*math.Max(1, u.Virt)) {
				t.Fail = fmt.Sprintf("staged op diverged from the DB path: virtual %v s / %v U against %v s / %v U", t.Virt, t.DoneU, u.Virt, u.DoneU)
			}
		}
	}
	indicatorStats(traced, terminalEvents(w), vals)
	res.merge(untraced)
	res.merge(traced)
	for _, err := range []error{env.checkLeaks(), staged.leaks()} {
		if err != nil {
			res.Leaks = err.Error()
		}
	}
	runtimeMetrics(untraced, vals)
	vals["trace.overhead_pct"] = (traced.Wall.Seconds()/untraced.Wall.Seconds() - 1) * 100
	runMeanNS := engineLayers(w, q, inproc, rec.snapshot(), counts, vals)

	if err := staged.runProbes(sz.ProbeIters, seed, sz.Customers, vals); err != nil {
		return nil, err
	}
	// The gateable form of the two "< 1 %" claims: an exact count times a
	// probed unit cost, over the executor's time.
	vals["core.indicator_modelled_pct"] = vals["core.reporter_calls_per_query"] * vals["core.reporter_call_ns"] / runMeanNS * 100
	vals["obs.metrics_modelled_pct"] = vals["obs.counter_incs_per_query"] * vals["obs.counter_inc_ns"] / runMeanNS * 100
	delete(vals, "obs.counter_incs_per_query")
	var wallRatio func(*workloadDef, sizing) (ratio, error)
	name := ""
	switch {
	case w.Name == "engine_hot":
		name, wallRatio = "core.indicator_wall_ratio", indicatorRatio
	case w.Serve:
		name, wallRatio = "obs.metrics_wall_ratio", metricsRatio
	}
	if wallRatio != nil {
		r, err := wallRatio(w, sz)
		if err != nil {
			return nil, err
		}
		vals[name] = r.Median
		res.Quartiles[name] = [2]float64{r.Q1, r.Q3}
	}

	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			vals[k] = 0
		}
	}
	res.PerLayer = withUnits(perLayer, vals, nil)
	if outDir != "" {
		if err := writeJSONL(filepath.Join(outDir, "trace-"+w.Name+".jsonl"), rec.snapshot()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runtimeMetrics fills the runtime.* metrics from a sampled pass.
func runtimeMetrics(p *pass, vals map[string]float64) {
	b, a := &p.RT.before, &p.RT.after
	vals["runtime.alloc_kb_per_query"] = float64(a.TotalAlloc-b.TotalAlloc) / 1024 / float64(len(p.Outcomes))
	vals["runtime.gc_cycles"] = float64(a.NumGC - b.NumGC)
	vals["runtime.gc_pause_total_ms"] = float64(a.PauseTotalNs-b.PauseTotalNs) / 1e6
	vals["runtime.heap_inuse_peak_mb"] = float64(p.RT.peak) / (1 << 20)
}

// terminalEvents is how many of an op's reports are not indicator
// refreshes: the server adds a terminal event after the final refresh.
func terminalEvents(w *workloadDef) int {
	if w.Serve {
		return 1
	}
	return 0
}

// indicatorStats fills what a pass's progress streams say about the
// indicator and the virtual ledger.
func indicatorStats(p *pass, terminalEvents int, vals map[string]float64) {
	var doneU, refreshes, remErr, virt []float64
	for _, o := range p.Outcomes {
		if o.Fail != "" {
			continue
		}
		doneU = append(doneU, o.DoneU)
		virt = append(virt, o.Virt)
		refreshes = append(refreshes, float64(o.Reports-terminalEvents))
		if !math.IsNaN(o.RemErr) {
			remErr = append(remErr, o.RemErr*100)
		}
	}
	vals["core.done_u_per_query"] = mean(doneU)
	vals["core.refreshes_per_query"] = mean(refreshes)
	vals["core.remaining_err_pct"] = mean(remErr)
	vals["vclock.virt_s_per_query"] = mean(virt)
}

// engineLayers fills the engine's per-layer metrics from the staged
// pass: span medians per stage, exec.run self time overall and per
// class, and the exact per-op counts. It returns the mean exec.run time
// in nanoseconds, the base of the modelled percentages.
func engineLayers(w *workloadDef, q []op, staged *pass, spans []span, counts []stagedCounts, vals map[string]float64) float64 {
	self := selfTimes(spans)
	byName := spanDurations(spans)
	vals["sqlparser.parse_us"] = median(byName["sqlparser.parse"])
	vals["optimizer.plan_us"] = median(byName["optimizer.plan"])
	vals["segment.decompose_us"] = median(byName["segment.decompose"])
	vals["core.setup_us"] = median(byName["core.setup"])
	var runMS []float64
	perClass := make([][]float64, len(w.Classes))
	for _, s := range spans {
		if s.Name == "exec.run" {
			ms := float64(self[s.ID]) / 1e6
			runMS = append(runMS, ms)
			c := q[s.Op-1].Class
			perClass[c] = append(perClass[c], ms)
		}
	}
	vals["exec.run_ms"] = median(runMS)
	for ci, c := range w.Classes {
		if c.Layer != "" {
			vals[c.Layer] = median(perClass[ci])
		}
	}
	var inprocUS, segs, calls, hits, misses, evict, sr, rr, sw, rw []float64
	for i, c := range counts {
		if staged.Outcomes[i].Fail != "" {
			continue
		}
		inprocUS = append(inprocUS, staged.Outcomes[i].WallUS)
		segs = append(segs, float64(c.Segments))
		calls = append(calls, float64(c.ReporterCalls))
		hits = append(hits, float64(c.Pool.Hits))
		misses = append(misses, float64(c.Pool.Misses))
		evict = append(evict, float64(c.Pool.Evictions))
		sr = append(sr, float64(c.Disk.SeqReads))
		rr = append(rr, float64(c.Disk.RandReads))
		sw = append(sw, float64(c.Disk.SeqWrites))
		rw = append(rw, float64(c.Disk.RandWrites))
	}
	vals["exec.inproc_p50_us"] = median(inprocUS)
	vals["segment.segments_per_query"] = mean(segs)
	vals["core.reporter_calls_per_query"] = mean(calls)
	storageCounts(vals, mean(hits), mean(misses), mean(evict), mean(sr), mean(rr), mean(sw), mean(rw))
	return mean(runMS) * 1e6
}

// storageCounts stores the per-op storage counts. Queries only ever
// write temp files (base tables are clean once loaded and flushed), so
// every page the disk wrote during an op is a temp page.
func storageCounts(vals map[string]float64, hits, misses, evict, seqR, randR, seqW, randW float64) {
	vals["storage.pool_hits"] = hits
	vals["storage.pool_misses"] = misses
	vals["storage.evictions"] = evict
	if hits+misses > 0 {
		vals["storage.pool_hit_rate"] = hits / (hits + misses)
	}
	vals["storage.disk_seq_reads"] = seqR
	vals["storage.disk_rand_reads"] = randR
	vals["storage.disk_seq_writes"] = seqW
	vals["storage.disk_rand_writes"] = randW
	vals["storage.temp_pages_written"] = seqW + randW
}

// promValues parses a Prometheus text page into series → value.
func promValues(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// serveTrace collects what the serve_* traced pass reads from outside
// the server: /metrics before and after, and QueryInfo timestamps.
type serveTrace struct {
	env           *benchEnv
	cl            *client.Client
	before, after map[string]float64
	queueWait     []float64
}

func (s *serveTrace) scrape(into *map[string]float64) error {
	text, err := s.cl.MetricsText(context.Background())
	if err != nil {
		return fmt.Errorf("%s: scraping /metrics: %w", s.env.w.Name, err)
	}
	*into = promValues(text)
	return nil
}

// layers fills the client.* and server.* metrics of a traced pass of n
// ops: span medians around the client calls, /metrics deltas, and two
// probes (a scrape, and the submit handler without TCP).
func (s *serveTrace) layers(rec *recorder, n, handlerIters int, vals map[string]float64) error {
	byName := spanDurations(rec.snapshot())
	vals["client.submit_rtt_us"] = median(byName["client.submit"])
	vals["client.first_event_us"] = median(byName["client.first_event"])
	vals["client.stream_us"] = median(byName["client.stream"])
	vals["client.result_us"] = median(byName["client.result"])
	// The wire stamps whole milliseconds, so a median would read 0.
	vals["server.queue_wait_ms"] = mean(s.queueWait)

	delta := func(series string) float64 { return s.after[series] - s.before[series] }
	vals["server.events_per_query"] = delta("server_progress_events_total") / float64(n)
	var incs float64
	for series := range s.after {
		name, _, _ := strings.Cut(series, "{")
		if strings.HasSuffix(name, "_total") {
			incs += delta(series)
		}
		if name == "server_shed_total" {
			vals["server.shed_total"] += delta(series)
		}
	}
	vals["obs.counter_incs_per_query"] = incs / float64(n)

	scrapes := make([]float64, 0, probeLoops)
	var page map[string]float64
	for i := 0; i < probeLoops; i++ {
		t0 := time.Now()
		if err := s.scrape(&page); err != nil {
			return err
		}
		scrapes = append(scrapes, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	vals["server.metrics_scrape_ms"] = median(scrapes)
	var err error
	vals["server.submit_handler_us"], err = submitHandlerProbe(context.Background(), s.env, s.cl, handlerIters)
	return err
}

// submitHandlerProbe times the submit handler alone — no TCP, no client
// — by calling Handler().ServeHTTP with a recorder. Each submitted query
// is then followed to its terminal event outside the timed region, so
// the admission queue never fills and nothing is shed.
func submitHandlerProbe(ctx context.Context, env *benchEnv, cl *client.Client, iters int) (float64, error) {
	h := env.srv.Handler()
	body := `{"sql":"select * from customer where custkey = 7"}`
	per := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		req := httptest.NewRequest(http.MethodPost, "/queries", strings.NewReader(body))
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		per = append(per, us(time.Since(t0)))
		if w.Code != http.StatusAccepted {
			return 0, fmt.Errorf("%s: submit probe got HTTP %d: %s", env.w.Name, w.Code, strings.TrimSpace(w.Body.String()))
		}
		var sub client.SubmitResponse
		if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
			return 0, fmt.Errorf("%s: submit probe: decoding the response: %w", env.w.Name, err)
		}
		if err := cl.Stream(ctx, sub.ID, func(client.ProgressEvent) error { return nil }); err != nil {
			return 0, fmt.Errorf("%s: submit probe: following %s: %w", env.w.Name, sub.ID, err)
		}
	}
	return median(per), nil
}
