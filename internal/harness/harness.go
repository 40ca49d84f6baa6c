// Package harness reproduces the paper's evaluation (Section 5): it runs
// Q1–Q5 under unloaded, I/O-interference, and CPU-interference scenarios
// and extracts the series behind every figure (4–7, 9–20), plus Table 1.
// It also renders the ledger: the benchmark's twelve statements
// (workload.BenchStatements) on bench/'s two engine configurations, each
// block its statement's totals, storage counters, segments and
// refreshes. Everything it reports is on the virtual ledger, so every
// number is the same on every run and results/ pins it byte for byte.
//
// Table 1, the figures and the ledger run on progressdb.DB, the path
// progressd, pgsh and bench/ serve, over the data set it loads
// (Runner.OpenDB). Only OverheadProbe, for bench/, loads an engine of its
// own: it runs the executor with and without the indicator, which DB
// always attaches.
//
// All times are virtual seconds. The clock's base costs are divided by
// the data scale so that the time axes remain comparable to the paper's
// full-scale runs: a table that is 20x smaller is read at a 20x slower
// virtual rate, leaving scan durations — and therefore figure shapes —
// scale-invariant. CPU costs are not scaled: Q5's inputs (3000-row
// subsets) are fixed-size in the paper and remain so here.
package harness

import (
	"context"
	"fmt"
	"math"
	"strings"

	"progressdb"
	"progressdb/internal/catalog"
	"progressdb/internal/core"
	"progressdb/internal/exec"
	"progressdb/internal/optimizer"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/vclock"
	"progressdb/internal/workload"
)

// Runner configures experiment execution.
type Runner struct {
	// Scale is the workload scale (see workload.Config); default 0.05.
	Scale float64
	// UpdatePeriod is the indicator refresh in virtual seconds (paper:
	// 10).
	UpdatePeriod float64
	// WorkMemPages is per-operator memory. The default scales the
	// 2004-era PostgreSQL sort_mem (≈512 KB at scale 1.0), which is what
	// forces the paper's Grace-style hash joins.
	WorkMemPages int
	// BufferPoolPages sizes the buffer pool; default scales 16 MB.
	BufferPoolPages int
	// SpeedWindow overrides the indicator's speed-monitoring window T.
	SpeedWindow float64
}

func (r Runner) withDefaults() Runner {
	if !(r.Scale > 0) {
		r.Scale = 0.05
	}
	if !(r.UpdatePeriod > 0) {
		r.UpdatePeriod = 10
	}
	if r.WorkMemPages <= 0 {
		// Scale the 2004-era PostgreSQL sort_mem (64 pages ≈ 512 KB at
		// scale 1.0), floored so partition counts — and therefore the
		// fraction of I/O spent seeking between partition files — stay
		// proportionate to the paper's at small scales.
		r.WorkMemPages = int(64*r.Scale + 0.5)
		if r.WorkMemPages < 16 {
			r.WorkMemPages = 16
		}
	}
	if r.BufferPoolPages <= 0 {
		r.BufferPoolPages = int(2048*r.Scale + 0.5)
		if r.BufferPoolPages < 64 {
			r.BufferPoolPages = 64
		}
	}
	return r
}

// costs returns clock costs calibrated so virtual durations match the
// paper's full-scale runs regardless of Scale.
func (r Runner) costs() vclock.Costs {
	base := vclock.DefaultCosts()
	return vclock.Costs{
		SeqPage:  base.SeqPage / r.Scale,
		RandPage: base.RandPage / r.Scale,
		CPUTuple: base.CPUTuple,
	}
}

// Interference describes a load scenario, specified relative to the
// query's unloaded duration D so that shapes survive recalibration (the
// paper's Q2 file copy ran from 190 s to 885 s of a 510 s unloaded query
// → StartFrac 0.37, EndFrac 1.74).
type Interference struct {
	// Kind is "io" or "cpu" ("" = unloaded).
	Kind string
	// StartFrac and EndFrac position the interval as fractions of the
	// unloaded duration. EndFrac <= StartFrac means "until far past the
	// end".
	StartFrac, EndFrac float64
	// Factor is the slowdown multiplier (4 means each unit takes 4x).
	Factor float64
}

// RunResult is one scenario execution.
type RunResult struct {
	Query    int
	Scenario string
	// History is every progress report the query's DB took.
	History       []progressdb.Report
	ActualSeconds float64
	// InitialEstU is the optimizer's cost estimate before execution.
	InitialEstU float64
	// ExactCostU is the true query cost (work done at completion).
	ExactCostU float64
	Rows       int64
	// Interference bounds in elapsed virtual seconds (zero if unloaded).
	InterfStart, InterfEnd float64
	// seqPage is the run's sequential page cost, the rate the optimizer
	// baseline assumes.
	seqPage float64
}

// optimizerRemaining is the trivial optimizer-only baseline, the paper's
// dotted line: the initial estimate estU at the unloaded rate of one page
// per sequential page cost seqPage, less the elapsed time, floored at
// zero.
func optimizerRemaining(estU, seqPage, elapsed float64) float64 {
	return math.Max(0, estU*storage.PageSize/(storage.PageSize/seqPage)-elapsed)
}

// OpenDB opens a DB with r's scaled page costs, buffer pool, work_mem and
// indicator settings, loads the paper's data set at r's scale — with the
// correlated orders when correlated, Q3's variant — and empties the
// buffer pool: the paper restarts the machine before each test.
func (r Runner) OpenDB(correlated bool) (*progressdb.DB, error) {
	r = r.withDefaults()
	c := r.costs()
	db := progressdb.Open(progressdb.Config{
		BufferPoolPages:       r.BufferPoolPages,
		WorkMemPages:          r.WorkMemPages,
		SeqPageCost:           c.SeqPage,
		RandPageCost:          c.RandPage,
		ProgressUpdateSeconds: r.UpdatePeriod,
		SpeedWindowSeconds:    r.SpeedWindow,
	})
	if err := db.LoadPaperWorkload(r.Scale, correlated); err != nil {
		return nil, err
	}
	return db, db.ColdRestart()
}

// Run executes query q (1–5) under the given interference on a freshly
// opened DB (OpenDB; Q3 on the correlated orders, as in the paper) and
// returns its reports and ground truth. Interference is placed at
// fractions of unloadedD, the query's unloaded duration in virtual
// seconds, which an unloaded Run measures (Session.Result reuses that
// run); an unloaded Run ignores it.
func (r Runner) Run(q int, interf Interference, unloadedD float64) (*RunResult, error) {
	r = r.withDefaults()
	sql, err := progressdb.PaperQuery(q)
	if err != nil {
		return nil, err
	}
	if interf.Kind != "" && !(unloadedD > 0) {
		return nil, fmt.Errorf("harness: Q%d: interference needs the unloaded duration, got %g", q, unloadedD)
	}
	db, err := r.OpenDB(q == 3)
	if err != nil {
		return nil, err
	}
	st, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Query: q, Scenario: scenarioName(interf), seqPage: r.costs().SeqPage, InitialEstU: st.CostU()}
	if interf.Kind != "" {
		start := db.Now()
		s := start + unloadedD*interf.StartFrac
		e := start + unloadedD*interf.EndFrac
		if interf.EndFrac <= interf.StartFrac {
			e = start + unloadedD*1000
		}
		if err := db.SetInterference(interf.Kind, s, e, interf.Factor); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		res.InterfStart = s - start
		res.InterfEnd = e - start
	}
	out, err := st.ExecDiscardContext(context.Background(), nil)
	if err != nil {
		return nil, fmt.Errorf("harness: Q%d: %w", q, err)
	}
	res.Rows = int64(out.RowCount())
	res.ActualSeconds = out.VirtualSeconds
	res.History = out.History
	if n := len(res.History); n > 0 {
		res.ExactCostU = res.History[n-1].DoneU
	}
	return res, nil
}

func scenarioName(interf Interference) string {
	if interf.Kind == "" {
		return "unloaded"
	}
	return interf.Kind + "-interference"
}

// Table1 renders the paper's Table 1 from a freshly opened DB (OpenDB):
// each table's row count, by select count(*), and its size, the price of
// a full scan in pages — the statistics' rows × average width.
func (r Runner) Table1() (string, error) {
	r = r.withDefaults()
	db, err := r.OpenDB(false)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %15s %12s\n", "", "number of tuples", "total size")
	for _, name := range []string{"customer", "orders", "lineitem", "customer_subset1", "customer_subset2"} {
		res, err := db.Exec("select count(*) from "+name, nil)
		if err != nil {
			return "", err
		}
		st, err := db.Prepare("select * from " + name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-18s %15d %12s\n", name, res.Rows[0][0], fmt.Sprintf("%.1fMB", st.CostU()*storage.PageSize/1e6))
	}
	fmt.Fprintf(&b, "(scale %.3f; scale 1.0 reproduces the paper's 0.15M/23MB, 1.5M/114MB, 6M/755MB)\n", r.Scale)
	return b.String(), nil
}

// OverheadProbe loads an engine of its own and plans query q on it, and
// returns a function that executes the query once, with or without the
// indicator: what bench/ times for core.indicator_wall_ratio, the
// per-run setup kept outside the timed region. DB always attaches its
// indicator, so this is the harness's one run of the executor beside DB.
func (r Runner) OverheadProbe(q int) (func(withIndicator bool) error, error) {
	r = r.withDefaults()
	sql, err := workload.QuerySQL(q)
	if err != nil {
		return nil, err
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	clock := vclock.New(r.costs(), nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), r.BufferPoolPages))
	if _, err := workload.Load(cat, workload.Config{Scale: r.Scale, CorrelatedOrders: q == 3}); err != nil {
		return nil, err
	}
	p, err := optimizer.Plan(cat, stmt, optimizer.Options{WorkMemPages: r.WorkMemPages})
	if err != nil {
		return nil, err
	}
	d := segment.Decompose(p, r.WorkMemPages)
	return func(withIndicator bool) error {
		var rep segment.WorkReporter
		if withIndicator {
			ind := core.New(clock, d, core.Options{UpdatePeriod: r.UpdatePeriod})
			ind.Start()
			defer ind.Stop()
			rep = ind
		}
		env := &exec.Env{
			Pool: cat.Pool(), Clock: clock,
			WorkMemPages: r.WorkMemPages, Reporter: rep, Decomp: d,
		}
		_, err := exec.Run(env, p, nil)
		return err
	}, nil
}
