package progressdb

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"strings"

	"progressdb/internal/core"
	"progressdb/internal/exec"
	"progressdb/internal/obs"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// This file is the engine's observability surface: the metrics registry
// wiring across storage/exec/indicator, per-query trace assembly, and
// EXPLAIN ANALYZE. Everything here is disabled by default and nil-safe
// when off — the paper budgets statistics collection at under 1% of
// query execution time, and the zero-value instruments keep the disabled
// hot path to bare nil checks.

// wireMetrics creates the registry and installs instruments in every
// engine layer.
func (db *DB) wireMetrics(pool *storage.BufferPool, disk *storage.Disk) {
	reg := obs.NewRegistry()
	db.reg = reg
	pool.SetMetrics(storage.PoolMetrics{
		Hits:            reg.Counter("bufferpool_hits_total", "page lookups served from the buffer pool"),
		Misses:          reg.Counter("bufferpool_misses_total", "page lookups read through to disk"),
		Evictions:       reg.Counter("bufferpool_evictions_total", "frames displaced by LRU"),
		DirtyWritebacks: reg.Counter("bufferpool_dirty_writebacks_total", "dirty pages written back on eviction or flush"),
		IORetries:       reg.Counter("storage_io_retries_total", "physical page accesses retried after a transient fault"),
		IORetryGiveups:  reg.Counter("storage_io_retry_giveups_total", "page accesses that failed after exhausting the retry budget"),
	})
	disk.SetMetrics(storage.DiskMetrics{
		SeqReads:   reg.Counter("disk_seq_reads_total", "sequential physical page reads"),
		RandReads:  reg.Counter("disk_rand_reads_total", "random physical page reads"),
		SeqWrites:  reg.Counter("disk_seq_writes_total", "sequential physical page writes"),
		RandWrites: reg.Counter("disk_rand_writes_total", "random physical page writes"),
	})
	db.execMet = exec.NewMetrics(reg)
	db.refine = core.NewRefinementMetrics(reg)
	db.queries = reg.Counter("engine_queries_total", "queries executed to completion")
}

// Metrics returns a point-in-time snapshot of every engine-wide
// instrument, sorted by series ID. Nil when Config.Metrics is off.
func (db *DB) Metrics() []obs.Sample {
	db.syncGauges()
	return db.reg.Snapshot()
}

// MetricsText renders the instruments in the Prometheus text exposition
// format. Empty when Config.Metrics is off.
func (db *DB) MetricsText() string {
	db.syncGauges()
	return db.reg.PrometheusText()
}

// MetricsJSON renders the snapshot as JSON.
func (db *DB) MetricsJSON() ([]byte, error) {
	db.syncGauges()
	return db.reg.JSON()
}

// syncGauges refreshes the virtual-clock gauges (time and per-kind work
// units) so snapshots always carry current values.
func (db *DB) syncGauges() {
	if db.reg == nil {
		return
	}
	// Read the clock group, not a worker clock: gauges may be scraped
	// while queries run, and the group side is concurrency-safe.
	db.reg.Gauge("vclock_seconds", "current virtual time").Set(db.group.Now())
	for _, k := range []vclock.WorkKind{vclock.SeqIO, vclock.RandIO, vclock.CPU} {
		db.reg.LabeledGauge("vclock_units", "kind", k.String(), "work units charged, by kind").
			Set(db.group.UnitsOf(k))
	}
	db.reg.Gauge("storage_temp_files_open", "live temp/spill files on the simulated disk").
		Set(float64(len(db.cat.Pool().Disk().OpenFilesOfClass(storage.ClassTemp))))
}

func (db *DB) traceEnabled() bool { return db.cfg.Trace || db.cfg.TraceSink != nil }

// runOut bundles one execution's artifacts for the callers that need
// more than the Result.
type runOut struct {
	res  *Result
	dec  *segment.Decomposition
	ind  *core.Indicator
	coll *exec.Collector
}

// workerClock draws a fresh per-query clock from the engine's clock
// group: charges advance it independently of concurrent queries, and it
// max-merges into the group at segment boundaries, report snapshots, and
// query end. The base clock is published first so the worker starts no
// earlier than any completed setup work.
func (db *DB) workerClock() *vclock.Clock {
	db.clock.Sync()
	return db.group.Worker()
}

// run executes an already-planned query on clk with full observability
// wiring: the indicator gets the refinement instruments and event sink,
// the executor gets engine metrics and (optionally) a per-operator
// collector, and the trace is assembled afterwards. clk is a
// workerClock for a query that runs on its own, or the engine's base
// clock for an ExecGroup member, whose yield hook (nil otherwise) hands
// the machine to the next member. ctx cancels execution at the
// executor's safe points.
//
// run is also the engine's panic boundary and cleanup backstop: a panic
// anywhere in decomposition or execution (including injected faults) is
// converted into a typed *exec.InternalError that fails only this
// query, and on any failure the query's tracked temp files are
// reclaimed so the engine stays leak-free and reusable.
func (db *DB) run(ctx context.Context, clk *vclock.Clock, yield func(), p plan.Node, name string, onProgress func(Report), keepRows, collect bool) (out *runOut, err error) {
	var env *exec.Env
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, exec.NewInternalError(r, debug.Stack())
		}
		if err != nil && env != nil {
			env.ReleaseScans()
			env.ReclaimTemps()
		}
		clk.Sync()
	}()
	d := segment.Decompose(p, db.cfg.WorkMemPages)
	ind := core.New(clk, d, core.Options{
		UpdatePeriod:    db.cfg.ProgressUpdateSeconds,
		SpeedWindow:     db.cfg.SpeedWindowSeconds,
		DecayAlpha:      db.cfg.SpeedDecayAlpha,
		PerSegmentSpeed: db.cfg.PerSegmentSpeed,
		Refine:          db.refine,
		Events:          db.events,
	})
	if onProgress != nil {
		ind.Subscribe(func(s core.Snapshot) { onProgress(toReport(s)) })
	}
	ind.Start()
	defer ind.Stop()

	var coll *exec.Collector
	if collect {
		coll = exec.NewCollector(clk)
	}
	res := &Result{}
	for _, c := range p.Schema().Cols {
		res.Columns = append(res.Columns, c.Name)
	}
	env = &exec.Env{
		Pool:         db.cat.Pool(),
		Clock:        clk,
		WorkMemPages: db.cfg.WorkMemPages,
		Reporter:     ind,
		Decomp:       d,
		Met:          db.execMet,
		Collect:      coll,
		Yield:        yield,
	}
	if ctx != nil && ctx.Done() != nil {
		env.Ctx = ctx
	}
	start := clk.Now()
	var sink func(tuple.Tuple) error
	if keepRows {
		sink = func(t tuple.Tuple) error {
			res.Rows = append(res.Rows, tupleToRow(t))
			return nil
		}
	}
	if _, err := exec.Run(env, p, sink); err != nil {
		return nil, err
	}
	db.queries.Inc()
	res.VirtualSeconds = clk.Now() - start
	for _, s := range ind.Snapshots() {
		res.History = append(res.History, toReport(s))
	}
	for _, r := range ind.SegmentReports() {
		res.Segments = append(res.Segments, SegmentStats{
			Index:        r.ID,
			Root:         r.Root,
			EstCostU:     r.EstCostU,
			ActualCostU:  r.ActualCostU,
			EstRows:      r.EstOutRows,
			ActualRows:   r.ActualOutRows,
			StartSeconds: r.StartT,
			EndSeconds:   r.EndT,
			Done:         r.Done,
		})
	}
	if coll != nil {
		res.Trace = buildTrace(name, p, d, ind.SegmentReports(), coll, start, clk.Now())
	}
	return &runOut{res: res, dec: d, ind: ind, coll: coll}, nil
}

// tupleToRow converts an engine tuple to the public row representation.
func tupleToRow(t tuple.Tuple) []interface{} {
	row := make([]interface{}, len(t))
	for i, v := range t {
		switch v.Kind {
		case tuple.Int:
			row[i] = v.I
		case tuple.Float:
			row[i] = v.F
		default:
			row[i] = v.S
		}
	}
	return row
}

// buildTrace assembles the query → segment → operator span tree from the
// indicator's segment reports and the executor's per-operator actuals.
func buildTrace(name string, root plan.Node, d *segment.Decomposition,
	reports []core.SegmentReport, coll *exec.Collector, start, end float64) *obs.Trace {
	q := &obs.Span{Name: name, Kind: "query", Start: start, End: end}
	segSpans := make([]*obs.Span, len(reports))
	for i, r := range reports {
		s := &obs.Span{
			Name:  fmt.Sprintf("S%d %s", r.ID, r.Root),
			Kind:  "segment",
			Start: r.StartT,
			End:   r.EndT,
		}
		s.SetAttr("est_cost_u", r.EstCostU)
		s.SetAttr("actual_cost_u", r.ActualCostU)
		s.SetAttr("rows_est", r.EstOutRows)
		if r.ActualOutRows >= 0 {
			s.SetAttr("rows_actual", r.ActualOutRows)
		}
		segSpans[i] = s
		q.AddChild(s)
	}
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		sp := &obs.Span{Name: n.Label(), Kind: "operator"}
		sp.SetAttr("rows_est", n.Est().Card)
		if st := coll.Get(n); st != nil {
			sp.Start, sp.End = st.StartT, st.EndT
			sp.SetAttr("rows_actual", float64(st.Rows))
			sp.SetAttr("u", st.Bytes/storage.PageSize)
			sp.SetAttr("loops", float64(st.Loops))
			sp.Notes = append(sp.Notes, st.Notes...)
		}
		if seg, ok := d.NodeSeg[n]; ok && seg >= 0 && seg < len(segSpans) {
			segSpans[seg].AddChild(sp)
		} else {
			q.AddChild(sp)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	return &obs.Trace{Root: q}
}

// ExplainAnalyze parses sql (a SELECT, optionally prefixed with EXPLAIN
// ANALYZE), executes it to completion, and returns the result together
// with the annotated plan tree: per operator the optimizer's estimate,
// the actual row count, the estimate error factor, U consumed (pages of
// boundary bytes), virtual timing, and spill annotations — followed by
// the per-segment estimated-vs-actual table. Result.Trace is filled.
func (db *DB) ExplainAnalyze(sql string) (*Result, string, error) {
	st, err := sqlparser.ParseStatement(sql)
	if err != nil {
		return nil, "", err
	}
	p, err := db.planSelect(st.Select)
	if err != nil {
		return nil, "", err
	}
	out, err := db.run(context.Background(), db.workerClock(), nil, p, st.Select.String(), nil, true, true)
	if err != nil {
		return nil, "", err
	}
	text := formatAnalyzedPlan(p, out.dec, out.coll) + "\n" +
		core.FormatSegmentReports(out.ind.SegmentReports())
	return out.res, text, nil
}

// formatAnalyzedPlan renders the plan tree annotated with actuals, in the
// style of PostgreSQL's EXPLAIN ANALYZE.
func formatAnalyzedPlan(root plan.Node, d *segment.Decomposition, coll *exec.Collector) string {
	var b strings.Builder
	var walk func(n plan.Node, depth int)
	walk = func(n plan.Node, depth int) {
		pad := strings.Repeat("  ", depth)
		e := n.Est()
		fmt.Fprintf(&b, "%s%s  (est rows=%.0f width=%.0f)", pad, n.Label(), e.Card, e.Width)
		st := coll.Get(n)
		if st != nil {
			fmt.Fprintf(&b, " (actual rows=%d loops=%d U=%.1f time=%.1f..%.1fs",
				st.Rows, st.Loops, st.Bytes/storage.PageSize, st.StartT, st.EndT)
			if f := errFactor(e.Card, float64(st.Rows)); math.IsInf(f, 1) {
				b.WriteString(" err=xinf")
			} else {
				fmt.Fprintf(&b, " err=x%.1f", f)
			}
			b.WriteString(")")
		}
		if seg, ok := d.NodeSeg[n]; ok {
			fmt.Fprintf(&b, " [S%d]", seg)
		}
		b.WriteByte('\n')
		if st != nil {
			for _, note := range st.Notes {
				fmt.Fprintf(&b, "%s  note: %s\n", pad, note)
			}
		}
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

// errFactor is the estimate error factor max(est/actual, actual/est)
// (the q-error): 1 for a perfect estimate, +Inf when exactly one side is
// zero.
func errFactor(est, actual float64) float64 {
	if est <= 0 && actual <= 0 {
		return 1
	}
	if est <= 0 || actual <= 0 {
		return math.Inf(1)
	}
	return math.Max(est/actual, actual/est)
}
