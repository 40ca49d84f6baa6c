package progressdb

import (
	"context"
	"fmt"
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
// wiring across storage/exec/indicator, the per-query plan report, and
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
// wiring: the indicator gets the refinement instruments, the executor
// gets engine metrics and, when collect is set, a per-operator
// collector, and the plan report is assembled afterwards. clk is a
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
func (db *DB) run(ctx context.Context, clk *vclock.Clock, yield func(), p plan.Node, onProgress func(Report), keepRows, collect bool) (res *Result, err error) {
	var env *exec.Env
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, exec.NewInternalError(r, debug.Stack())
		}
		if err != nil && env != nil {
			env.ReleaseScans()
			env.ReclaimTemps()
		}
		clk.Sync()
	}()
	d := segment.Decompose(p, db.cfg.WorkMemPages)
	ind := core.New(clk, d, core.Options{
		UpdatePeriod: db.cfg.ProgressUpdateSeconds,
		SpeedWindow:  db.cfg.SpeedWindowSeconds,
		Refine:       db.refine,
	})
	if onProgress != nil {
		ind.Subscribe(func(s core.Snapshot) { onProgress(toReport(s)) })
	}
	ind.Start()
	defer ind.Stop()

	var coll *exec.Collector
	if collect {
		coll = exec.NewCollector()
	}
	res = &Result{}
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
	start := clk.Ticks()
	var sink func(tuple.Tuple) error
	if keepRows {
		sink = func(t tuple.Tuple) error {
			res.Rows = append(res.Rows, tupleToRow(t))
			return nil
		}
	}
	n, err := exec.Run(env, p, sink)
	if err != nil {
		return nil, err
	}
	if !keepRows {
		res.RowsDiscarded = int(n)
	}
	db.queries.Inc()
	res.VirtualSeconds = vclock.Seconds(clk.Ticks() - start)
	for _, s := range ind.Snapshots() {
		res.History = append(res.History, toReport(s))
	}
	res.report = newPlanReport(p, d, ind, coll)
	res.Segments = res.report.segments()
	return res, nil
}

// tupleToRow converts an engine tuple to the public row representation.
func tupleToRow(t tuple.Tuple) []interface{} {
	row := make([]interface{}, len(t))
	for i, v := range t {
		switch v.Kind {
		case tuple.Int:
			row[i] = v.I
		case tuple.Float:
			row[i] = v.F()
		default:
			row[i] = v.S
		}
	}
	return row
}

// ExplainAnalyze parses sql (a SELECT, optionally prefixed with EXPLAIN
// ANALYZE), executes it to completion, and returns the result together
// with the annotated plan tree: per operator the optimizer's estimate,
// the actual row count, the estimate error factor, U consumed (pages of
// boundary bytes), virtual timing, and spill annotations — followed by
// the per-segment estimated-vs-actual table.
func (db *DB) ExplainAnalyze(sql string) (*Result, string, error) {
	st, err := sqlparser.ParseStatement(sql)
	if err != nil {
		return nil, "", err
	}
	p, err := db.planSelect(st.Select)
	if err != nil {
		return nil, "", err
	}
	res, err := db.run(context.Background(), db.workerClock(), nil, p, nil, true, true)
	if err != nil {
		return nil, "", err
	}
	return res, res.report.explain(), nil
}

// planReport is what a finished query knows about its plan: per segment,
// the indicator's estimate against what the segment did and, when a
// collector ran, per operator in pre-order, the optimizer's estimate
// against the collector's actuals. It holds no plan node, so a Result
// keeps it. Result.Segments and EXPLAIN ANALYZE's text are printed from
// it.
type planReport struct {
	segs []core.SegmentReport
	ops  []opReport
}

// opReport is one operator of a planReport.
type opReport struct {
	label          string
	depth          int
	seg            int // the segment the operator runs in; -1 for none
	estRows, width float64
	ran            bool // the collector has actuals for the operator
	rows, loops    int64
	u, start, end  float64
	notes          []string
}

// newPlanReport reads one finished query's plan report off its plan, its
// decomposition, its indicator and its collector (nil when none ran).
func newPlanReport(p plan.Node, d *segment.Decomposition, ind *core.Indicator, coll *exec.Collector) planReport {
	r := planReport{segs: ind.SegmentReports()}
	if coll == nil {
		return r
	}
	var walk func(n plan.Node, depth int)
	walk = func(n plan.Node, depth int) {
		e := n.Est()
		op := opReport{label: n.Label(), depth: depth, seg: -1, estRows: e.Card, width: e.Width}
		if seg, ok := d.NodeSeg[n]; ok {
			op.seg = seg
		}
		if st := coll.Get(n); st != nil {
			op.ran, op.rows, op.loops, op.u = true, st.Rows, st.Loops, st.Bytes/storage.PageSize
			op.start, op.end, op.notes = st.StartT, st.EndT, st.Notes
		}
		r.ops = append(r.ops, op)
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return r
}

// segments prints the report's segments as Result.Segments.
func (r *planReport) segments() []SegmentStats {
	out := make([]SegmentStats, len(r.segs))
	for i, s := range r.segs {
		out[i] = SegmentStats{
			Index:        s.ID,
			Root:         s.Root,
			EstCostU:     s.EstCostU,
			ActualCostU:  s.ActualCostU,
			EstRows:      s.EstOutRows,
			ActualRows:   s.ActualOutRows,
			StartSeconds: s.StartT,
			EndSeconds:   s.EndT,
			Done:         s.Done,
		}
	}
	return out
}

// explain prints the report as EXPLAIN ANALYZE, in the style of
// PostgreSQL's: the operator tree with each operator's actuals, then the
// per-segment estimated-versus-actual table.
func (r *planReport) explain() string {
	var b strings.Builder
	for _, op := range r.ops {
		pad := strings.Repeat("  ", op.depth)
		fmt.Fprintf(&b, "%s%s  (est rows=%.0f width=%.0f)", pad, op.label, op.estRows, op.width)
		if op.ran {
			fmt.Fprintf(&b, " (actual rows=%d loops=%d U=%.1f time=%.1f..%.1fs",
				op.rows, op.loops, op.u, op.start, op.end)
			switch q := core.QError(op.estRows, float64(op.rows)); {
			case q > 0:
				fmt.Fprintf(&b, " err=x%.1f)", q)
			case op.estRows <= 0 && op.rows <= 0:
				b.WriteString(" err=x1.0)")
			default:
				b.WriteString(" err=xinf)")
			}
		}
		if op.seg >= 0 {
			fmt.Fprintf(&b, " [S%d]", op.seg)
		}
		b.WriteByte('\n')
		for _, note := range op.notes {
			fmt.Fprintf(&b, "%s  note: %s\n", pad, note)
		}
	}
	fmt.Fprintf(&b, "\n%-3s %-11s %-11s %-12s %-12s %-9s %s\n",
		"seg", "est U", "actual U", "est rows", "actual rows", "seconds", "root")
	for _, s := range r.segs {
		actRows := fmt.Sprintf("%.0f", s.ActualOutRows)
		if s.ActualOutRows < 0 {
			actRows = "(result)"
		}
		fmt.Fprintf(&b, "%-3d %-11.0f %-11.0f %-12.0f %-12s %-9.1f %s\n",
			s.ID, s.EstCostU, s.ActualCostU, s.EstOutRows, actRows, s.EndT-s.StartT, s.Root)
	}
	return b.String()
}
