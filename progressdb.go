// Package progressdb is a small single-node SQL engine with a
// continuously refined query progress indicator, reproducing "Toward a
// Progress Indicator for Database Queries" (Luo, Naughton, Ellmann,
// Watzke — SIGMOD 2004).
//
// The engine executes select-project-join SQL over simulated storage with
// a deterministic virtual clock. While a query runs, a progress indicator
// divides its plan into pipelined segments, measures work in U (pages of
// bytes processed at segment boundaries), refines the cost estimate from
// observed cardinalities, monitors execution speed over a trailing
// window, and reports percent done and estimated remaining time — the
// paper's techniques, end to end.
//
// Quick start:
//
//	db := progressdb.Open(progressdb.Config{})
//	db.MustCreateTable("t", progressdb.Col("k", progressdb.Int), progressdb.Col("v", progressdb.Text))
//	db.MustInsert("t", int64(1), "hello")
//	db.Analyze()
//	res, _ := db.Exec("select * from t", func(p progressdb.Report) {
//		fmt.Printf("%.0f%% done, %.0fs left\n", p.Percent, p.RemainingSeconds)
//	})
package progressdb

import (
	"context"
	"fmt"

	"progressdb/internal/catalog"
	"progressdb/internal/core"
	"progressdb/internal/exec"
	"progressdb/internal/faultinject"
	"progressdb/internal/obs"
	"progressdb/internal/optimizer"
	"progressdb/internal/plan"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
	"progressdb/internal/workload"
)

// ColumnType is a column's data type.
type ColumnType int

// Column types.
const (
	Int ColumnType = iota
	Float
	Text
)

// Column defines one table column.
type Column struct {
	Name string
	Type ColumnType
}

// Col is shorthand for Column{name, typ}.
func Col(name string, typ ColumnType) Column { return Column{Name: name, Type: typ} }

// Config configures an engine instance.
type Config struct {
	// BufferPoolPages sizes the page cache (default 2048 = 16 MiB).
	BufferPoolPages int
	// WorkMemPages is the per-operator memory budget (default 2048).
	// Small values force Grace hash joins and external sorts.
	WorkMemPages int
	// SeqPageCost and RandPageCost override the virtual clock's base
	// costs in seconds per page (defaults are calibrated to a 2004-era
	// disk; see internal/vclock).
	SeqPageCost, RandPageCost float64
	// ProgressUpdateSeconds is the indicator refresh period in virtual
	// seconds (default 10, the paper's rate, for any value not > 0).
	ProgressUpdateSeconds float64
	// SpeedWindowSeconds is the speed-monitoring window T (default 10,
	// for any value not > 0).
	SpeedWindowSeconds float64
	// Metrics enables the engine-wide metrics registry (DB.Metrics,
	// DB.MetricsText, DB.MetricsJSON): buffer-pool, disk, executor, and
	// indicator-refinement instruments. Off by default; the disabled path
	// costs only nil checks in operator hot loops (the paper's <1%
	// statistics-collection overhead budget).
	Metrics bool
	// FaultSpec, when non-empty, installs a storage fault injector at
	// Open for chaos testing — deterministic seedable I/O errors, added
	// latency, and scheduled panics, per file class. See SetFaultSpec
	// for the grammar and semantics. Open panics if the spec does not
	// parse; SetFaultSpec is the error-returning form.
	FaultSpec string

	// cpuTupleCost overrides the virtual clock's per-tuple CPU cost in
	// seconds. Only this package's tests set it.
	cpuTupleCost float64
	// collect runs every query with the per-operator collector that
	// EXPLAIN ANALYZE always runs, so each Result's plan report carries
	// operator labels, U and notes. Only tests set it (see export_test.go).
	collect bool
}

// DB is one engine instance: simulated storage, a catalog, and a virtual
// clock.
//
// Concurrency contract: the query paths — Exec, ExecContext, ExecDiscard,
// ExecDiscardContext, Prepare and the Stmt it returns, Explain,
// CheckLeaks, Now, and the metrics accessors — are safe to call from
// multiple goroutines; each query runs on its own worker clock and the
// storage layers are latched.
// Setup and maintenance — CreateTable, Insert, Analyze,
// CreateIndex, LoadPaperWorkload*, SetInterference, ClearInterference,
// SetFaultSpec, ColdRestart and ExecGroup — are single-threaded and
// must not overlap each other or running queries, matching the paper's
// load-then-query methodology.
type DB struct {
	cfg   Config
	group *vclock.Group
	clock *vclock.Clock // base worker clock: DDL, loads, single-threaded paths
	cat   *catalog.Catalog
	inj   *faultinject.Injector

	// Observability (all fields are inert zero values when disabled).
	reg     *obs.Registry
	execMet exec.Metrics
	refine  core.RefinementMetrics
	queries *obs.Counter
}

// Open creates an engine.
func Open(cfg Config) *DB {
	if cfg.BufferPoolPages <= 0 {
		cfg.BufferPoolPages = 2048
	}
	if cfg.WorkMemPages <= 0 {
		cfg.WorkMemPages = 2048
	}
	costs := vclock.DefaultCosts()
	if cfg.SeqPageCost > 0 {
		costs.SeqPage = cfg.SeqPageCost
	}
	if cfg.RandPageCost > 0 {
		costs.RandPage = cfg.RandPageCost
	}
	if cfg.cpuTupleCost > 0 {
		costs.CPUTuple = cfg.cpuTupleCost
	}
	group := vclock.NewGroup(costs)
	clock := group.Worker()
	disk := storage.NewDisk(clock)
	pool := storage.NewBufferPool(disk, cfg.BufferPoolPages)
	db := &DB{cfg: cfg, group: group, clock: clock, cat: catalog.New(pool)}
	if cfg.Metrics {
		db.wireMetrics(pool, disk)
	}
	if cfg.FaultSpec != "" {
		if err := db.SetFaultSpec(cfg.FaultSpec); err != nil {
			//lint:ignore errwrap sanctioned: New is Must-style by contract; SetFaultSpec is the error-returning path
			panic(err) // Must-style: use SetFaultSpec to handle the error
		}
	}
	return db
}

// Now returns the current virtual time in seconds: the max-merge of all
// worker clocks, monotone even while queries run concurrently.
func (db *DB) Now() float64 {
	db.clock.Sync()
	return db.group.Now()
}

// SetInterference installs load intervals on the virtual clock: between
// start and end (virtual seconds), I/O or CPU work is slowed by factor.
// kind is "io" or "cpu". It models the paper's concurrent file copy and
// CPU-intensive program.
func (db *DB) SetInterference(kind string, start, end, factor float64) error {
	iv := vclock.Interval{Start: start, End: end}
	switch kind {
	case "io":
		iv.IOFactor = factor
	case "cpu":
		iv.CPUFactor = factor
	default:
		return fmt.Errorf("progressdb: interference kind must be \"io\" or \"cpu\", got %q", kind)
	}
	p, err := vclock.NewLoadProfile(iv)
	if err != nil {
		return err
	}
	db.group.SetProfile(p)
	db.clock.SetProfile(p)
	return nil
}

// ClearInterference removes any load profile.
func (db *DB) ClearInterference() {
	db.group.SetProfile(nil)
	db.clock.SetProfile(nil)
}

// CreateTable creates an empty table.
func (db *DB) CreateTable(name string, cols ...Column) error {
	if len(cols) == 0 {
		return fmt.Errorf("progressdb: table %q needs at least one column", name)
	}
	sch := &tuple.Schema{}
	for _, c := range cols {
		var t tuple.Type
		switch c.Type {
		case Int:
			t = tuple.Int
		case Float:
			t = tuple.Float
		case Text:
			t = tuple.String
		default:
			return fmt.Errorf("progressdb: unknown column type %d", c.Type)
		}
		sch.Cols = append(sch.Cols, tuple.Column{Name: c.Name, Type: t})
	}
	_, err := db.cat.CreateTable(name, sch)
	return err
}

// MustCreateTable is CreateTable that panics on error.
func (db *DB) MustCreateTable(name string, cols ...Column) {
	if err := db.CreateTable(name, cols...); err != nil {
		//lint:ignore errwrap sanctioned: Must-style helper panics by documented contract
		panic(err)
	}
}

// Insert appends one row. Values must be int64, float64, or string,
// matching the schema.
func (db *DB) Insert(table string, values ...interface{}) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	row := make(tuple.Tuple, 0, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case int64:
			row = append(row, tuple.NewInt(x))
		case int:
			row = append(row, tuple.NewInt(int64(x)))
		case float64:
			row = append(row, tuple.NewFloat(x))
		case string:
			row = append(row, tuple.NewString(x))
		default:
			return fmt.Errorf("progressdb: value %d has unsupported type %T", i, v)
		}
	}
	return db.cat.Insert(t, row)
}

// MustInsert is Insert that panics on error.
func (db *DB) MustInsert(table string, values ...interface{}) {
	if err := db.Insert(table, values...); err != nil {
		//lint:ignore errwrap sanctioned: Must-style helper panics by documented contract
		panic(err)
	}
}

// CreateIndex builds a B+-tree index over an Int column.
func (db *DB) CreateIndex(table, column string) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	if err := t.Heap.Sync(); err != nil {
		return err
	}
	_, err = db.cat.CreateIndex(t, column)
	return err
}

// Analyze flushes all tables and collects optimizer statistics — the
// paper runs the statistics collector before its experiments.
func (db *DB) Analyze() error {
	for _, t := range db.cat.Tables() {
		if err := t.Heap.Sync(); err != nil {
			return err
		}
	}
	err := db.cat.AnalyzeAll()
	// Publish the load/analyze I/O into the clock group so the first
	// query's worker clock starts after it.
	db.clock.Sync()
	return err
}

// ColdRestart empties the buffer pool (the paper restarts the machine
// before each test for a cold cache).
func (db *DB) ColdRestart() error {
	if err := db.cat.Pool().Flush(); err != nil {
		return err
	}
	db.cat.Pool().Clear()
	db.clock.Sync()
	return nil
}

// LoadPaperWorkload generates the paper's Table 1 data set (customer,
// orders, lineitem, customer_subset1/2) at the given scale (1.0 = the
// paper's sizes; 0.05 is a laptop-friendly default when scale <= 0) and
// analyzes it. Set correlated for the Q3 experiment's orders variant.
func (db *DB) LoadPaperWorkload(scale float64, correlated bool) error {
	_, err := workload.Load(db.cat, workload.Config{Scale: scale, CorrelatedOrders: correlated})
	return err
}

// LoadPaperWorkloadPartition loads only hash partition `partition` of
// `of` shards of the paper data set (see workload.PartitionKeys for each
// table's partition key). Generation is deterministic and ownership-
// independent, so the union of the `of` partitions equals the full
// LoadPaperWorkload data set exactly. Fleet shards bootstrap through
// this.
func (db *DB) LoadPaperWorkloadPartition(scale float64, correlated bool, partition, of int) error {
	_, err := workload.Load(db.cat, workload.Config{
		Scale: scale, CorrelatedOrders: correlated,
		Partition: &workload.PartitionSpec{Index: partition, Count: of},
	})
	return err
}

// PaperQuery returns the paper's query Q1–Q5, verbatim.
func PaperQuery(n int) (string, error) { return workload.QuerySQL(n) }

// Explain compiles sql and returns the physical plan and its segment
// decomposition (segments, inputs, dominant inputs, initial costs).
func (db *DB) Explain(sql string) (string, error) {
	var st Stmt
	if err := db.prepare(&st, sql); err != nil {
		return "", err
	}
	return plan.Format(st.p) + "\n" + st.d.String(), nil
}

func (db *DB) plan(sql string) (plan.Node, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.planSelect(stmt)
}

// planSelect runs the optimizer on an already-parsed SELECT.
func (db *DB) planSelect(stmt *sqlparser.SelectStmt) (plan.Node, error) {
	return optimizer.Plan(db.cat, stmt, optimizer.Options{WorkMemPages: db.cfg.WorkMemPages})
}

// Report is one progress-indicator refresh, the paper's Figure 2 display.
type Report struct {
	// ElapsedSeconds since the query started (virtual time).
	ElapsedSeconds float64
	// EstimatedCostU is the refined total query cost in U (pages).
	EstimatedCostU float64
	// DoneU is work completed in U.
	DoneU float64
	// Percent completed, 0–100.
	Percent float64
	// SpeedU is the monitored execution speed in U/second.
	SpeedU float64
	// RemainingSeconds is the estimated remaining execution time.
	RemainingSeconds float64
	// CurrentSegment is the executing segment's index (-1 when done).
	CurrentSegment int
	// SegmentsDone counts completed pipelined segments.
	SegmentsDone int
	// StepPercent is the trivial step-counting baseline (completed
	// segments over total segments).
	StepPercent float64
	// CurrentP is the executing segment's dominant-input fraction p, and
	// CurrentE1/CurrentE the Section 4.5 blend's inputs E1 and output E
	// (rows); all zero when no segment is mid-execution. These are the
	// per-segment estimator internals surfaced on the progressd wire.
	CurrentP, CurrentE1, CurrentE float64
	// Finished marks the final report.
	Finished bool
}

func toReport(s core.Snapshot) Report {
	return Report{
		ElapsedSeconds:   s.Elapsed,
		EstimatedCostU:   s.EstTotalU,
		DoneU:            s.DoneU,
		Percent:          s.Percent,
		SpeedU:           s.SpeedU,
		RemainingSeconds: s.RemainingSeconds,
		CurrentSegment:   s.CurrentSegment,
		SegmentsDone:     s.SegmentsDone,
		StepPercent:      s.StepPercent,
		CurrentP:         s.CurrentP,
		CurrentE1:        s.CurrentE1,
		CurrentE:         s.CurrentE,
		Finished:         s.Finished,
	}
}

// Result is a completed query. A query that fails returns, beside its
// error, a Result that holds only Plan.IO: the storage events it caused
// before it failed.
type Result struct {
	// Columns are the output column names.
	Columns []string
	// Rows holds the result values (int64, float64, or string).
	Rows [][]interface{}
	// RowsDiscarded counts the result rows a run that did not keep them
	// (ExecDiscard, a GroupQuery without KeepRows) produced; 0 when Rows
	// holds them.
	RowsDiscarded int
	// VirtualSeconds is the query's execution time on the virtual clock.
	VirtualSeconds float64
	// History is every progress report taken during execution.
	History []Report
	// Plan is what the query knows about its plan, filled on successful
	// execution: ExplainAnalyze's text prints it, and a server's history
	// profile carries it.
	Plan PlanReport
}

// RowCount returns the number of result rows, kept or discarded.
func (r *Result) RowCount() int { return len(r.Rows) + r.RowsDiscarded }

// Exec runs a query, invoking onProgress (if non-nil) at every indicator
// refresh, and returns the full result.
func (db *DB) Exec(sql string, onProgress func(Report)) (*Result, error) {
	return db.exec(context.Background(), sql, onProgress, true)
}

// ExecContext is Exec with cancellation: when ctx is canceled the
// executor unwinds at its next safe point (a bounded number of tuples
// away), the pipeline's operators release their resources through the
// normal error path, and the returned error satisfies
// errors.Is(err, context.Canceled) (or DeadlineExceeded). The engine
// remains usable for subsequent queries.
func (db *DB) ExecContext(ctx context.Context, sql string, onProgress func(Report)) (*Result, error) {
	return db.exec(ctx, sql, onProgress, true)
}

// ExecDiscard runs a query without materializing result rows (useful for
// large results and benchmarks): Result.Rows is nil, RowsDiscarded holds
// the count, and the rest of the Result is what Exec would return.
func (db *DB) ExecDiscard(sql string, onProgress func(Report)) (*Result, error) {
	return db.exec(context.Background(), sql, onProgress, false)
}

// ExecDiscardContext is ExecDiscard with cancellation (see ExecContext).
func (db *DB) ExecDiscardContext(ctx context.Context, sql string, onProgress func(Report)) (*Result, error) {
	return db.exec(ctx, sql, onProgress, false)
}

// exec prepares sql and runs the statement, on Stmt's own path.
func (db *DB) exec(ctx context.Context, sql string, onProgress func(Report), keepRows bool) (*Result, error) {
	var st Stmt
	if err := db.prepare(&st, sql); err != nil {
		return nil, err
	}
	return st.exec(ctx, onProgress, keepRows)
}

// FormatReport renders a report as the paper's Figure 2 progress box.
func FormatReport(name string, r Report) string {
	return core.Format(name, core.Snapshot{
		Elapsed:          r.ElapsedSeconds,
		EstTotalU:        r.EstimatedCostU,
		Percent:          r.Percent,
		SpeedU:           r.SpeedU,
		RemainingSeconds: r.RemainingSeconds,
	})
}
