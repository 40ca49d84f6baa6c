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

// run executes a planned and decomposed query on clk with full
// observability wiring: the indicator gets the refinement instruments,
// the executor gets engine metrics and, when collect is set, a
// per-operator collector, and the plan report is read off both
// afterwards. clk is a workerClock for a query that runs on its own, or
// the engine's base clock for an ExecGroup member, whose yield hook (nil
// otherwise) hands the machine to the next member. ctx cancels execution
// at the executor's safe points.
//
// run is also the engine's panic boundary and cleanup backstop: a panic
// anywhere in execution (including injected faults) is converted into a
// typed *exec.InternalError that fails only this query, and on any
// failure the query's tracked temp files are reclaimed so the engine
// stays leak-free and reusable.
func (db *DB) run(ctx context.Context, clk *vclock.Clock, yield func(), p plan.Node, d *segment.Decomposition, onProgress func(Report), keepRows, collect bool) (res *Result, err error) {
	var env *exec.Env
	// The query's storage events count from zero on its clock; a worker
	// clock starts there, and ExecGroup keeps each member's on the base
	// clock while the member holds it.
	clk.IO = vclock.IOCounts{}
	defer func() {
		if r := recover(); r != nil {
			err = exec.NewInternalError(r, debug.Stack())
		}
		if err != nil {
			if env != nil {
				env.ReleaseScans()
				env.ReclaimTemps()
			}
			res = &Result{Plan: PlanReport{IO: clk.IO}}
		}
		clk.Sync()
	}()
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
		return nil, err // the deferred func fills the failed query's result
	}
	if !keepRows {
		res.RowsDiscarded = int(n)
	}
	db.queries.Inc()
	res.VirtualSeconds = vclock.Seconds(clk.Ticks() - start)
	for _, s := range ind.Snapshots() {
		res.History = append(res.History, toReport(s))
	}
	res.Plan = newPlanReport(p, env, ind)
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
	d := segment.Decompose(p, db.cfg.WorkMemPages)
	res, err := db.run(context.Background(), db.workerClock(), nil, p, d, nil, true, true)
	if err != nil {
		return nil, "", err
	}
	return res, res.Plan.explain(), nil
}

// SegmentReport is one pipelined segment's estimated-versus-actual
// record, the paper's Section 6 "where did the time go" ledger; its
// bounds are seconds since the query started, as Report.ElapsedSeconds
// is.
type SegmentReport = core.SegmentReport

// PlanReport is what a finished query knows about its plan: per segment,
// the indicator's estimate against what the segment did, per operator,
// the optimizer's estimate against what the operator did, and the
// storage events the query caused. It holds no plan node, so a Result
// keeps it and a server can send it as it is.
type PlanReport struct {
	// Segments are the plan's segments in execution order.
	Segments []SegmentReport `json:"segments"`
	// Operators are the plan's operators in pre-order.
	Operators []OperatorReport `json:"operators"`
	// IO is the query's own buffer-pool, disk, retry and injected-fault
	// counts, exact however many queries run beside it. It is not part
	// of the report's JSON, which is the plan's shape; a server sends it
	// beside the report.
	IO IOCounts `json:"-"`
}

// IOCounts are one query's storage events (PlanReport.IO).
type IOCounts = vclock.IOCounts

// OperatorReport is one operator of a PlanReport: the optimizer's
// estimate against what the operator's node slot counted. Its Label, U
// and Notes (its OperatorDetail) are set only by EXPLAIN ANALYZE, whose
// collector sizes every emitted row; reading them elsewhere panics.
type OperatorReport = exec.OperatorReport

// newPlanReport completes one finished query's plan report: the
// indicator's segment reports, and the operator reports the executor's
// build began, filled from their node slots. When a collector ran
// (env.Collect), it also labels and notes each operator off a pre-order
// walk of the plan.
func newPlanReport(p plan.Node, env *exec.Env, ind *core.Indicator) PlanReport {
	r := PlanReport{Segments: ind.SegmentReports(), Operators: env.Ops, IO: env.Clock.IO}
	slots := env.Decomp.NodeCounts()
	for i := range slots {
		c, op := &slots[i], &r.Operators[i]
		op.Rows, op.Loops = c.Rows, c.Loops
		op.QError = core.QError(op.EstRows, float64(c.Rows))
		if c.Loops > 0 {
			op.StartT, op.EndT = ind.Since(c.StartT), ind.Since(c.EndT)
		}
	}
	if env.Collect != nil {
		i := 0
		var walk func(n plan.Node)
		walk = func(n plan.Node) {
			r.Operators[i].OperatorDetail = &exec.OperatorDetail{Label: n.Label(),
				U: float64(slots[i].Bytes) / storage.PageSize, Notes: env.Collect.Notes(n)}
			i++
			for _, c := range n.Children() {
				walk(c)
			}
		}
		walk(p)
	}
	return r
}

// explain prints the report as EXPLAIN ANALYZE, in the style of
// PostgreSQL's: the operator tree with each operator's actuals, then the
// per-segment estimated-versus-actual table.
func (r *PlanReport) explain() string {
	var b strings.Builder
	for _, op := range r.Operators {
		pad := strings.Repeat("  ", int(op.Depth))
		fmt.Fprintf(&b, "%s%s  (est rows=%.0f width=%.0f)", pad, op.Label, op.EstRows, op.EstWidth)
		fmt.Fprintf(&b, " (actual rows=%d loops=%d U=%.1f time=%.1f..%.1fs",
			op.Rows, op.Loops, op.U, op.StartT, op.EndT)
		switch q := op.QError; {
		case q > 0:
			fmt.Fprintf(&b, " err=x%.1f)", q)
		case op.EstRows <= 0 && op.Rows <= 0:
			b.WriteString(" err=x1.0)")
		default:
			b.WriteString(" err=xinf)")
		}
		fmt.Fprintf(&b, " [S%d]\n", op.Segment)
		for _, note := range op.Notes {
			fmt.Fprintf(&b, "%s  note: %s\n", pad, note)
		}
	}
	fmt.Fprintf(&b, "\n%-3s %-11s %-11s %-12s %-12s %-9s %s\n",
		"seg", "est U", "actual U", "est rows", "actual rows", "seconds", "root")
	for _, s := range r.Segments {
		actRows := fmt.Sprintf("%.0f", s.ActualOutRows)
		if s.ActualOutRows < 0 {
			actRows = "(result)"
		}
		fmt.Fprintf(&b, "%-3d %-11.0f %-11.0f %-12.0f %-12s %-9.1f %s\n",
			s.ID, s.EstCostU, s.ActualCostU, s.EstOutRows, actRows, s.EndT-s.StartT, s.Root)
	}
	return b.String()
}
