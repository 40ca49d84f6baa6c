// Package harness reproduces the paper's evaluation (Section 5): it runs
// Q1–Q5 under unloaded, I/O-interference, and CPU-interference scenarios
// and extracts the series behind every figure (4–7, 9–20), plus Table 1.
// It also renders the plan golden and the ledger: the benchmark's twelve
// statements (workload.BenchStatements) on bench/'s two engine
// configurations, each block its statement's totals, storage counters,
// segments and refreshes. Everything it reports is on the virtual
// ledger, so every number is the same on every run and results/ pins it
// byte for byte.
//
// The figures and the ledger run on progressdb.DB, the path progressd,
// pgsh and bench/ serve, over the data set it loads (Runner.OpenDB).
// Three artefacts keep the harness's own engine, each for something DB
// does not expose: the plan golden forces join algorithms at a work_mem
// of 4 pages; Table 1 reads the generator's data set; and OverheadProbe
// runs the executor with and without the indicator.
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
	"progressdb/internal/plan"
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
// indicator settings and its metrics on, loads the paper's data set at
// r's scale — with the correlated orders when correlated, Q3's variant —
// and empties the buffer pool: the paper restarts the machine before each
// test. Metrics move no virtual number; the ledger reads its pool and
// disk counts off them.
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
		Metrics:               true,
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

// engine bundles one freshly loaded database, for the artefacts that
// need more than DB exposes.
type engine struct {
	clock *vclock.Clock
	cat   *catalog.Catalog
	ds    *workload.Dataset
}

func (r Runner) newEngine(correlated bool) (*engine, error) {
	clock := vclock.New(r.costs(), nil)
	pool := storage.NewBufferPool(storage.NewDisk(clock), r.BufferPoolPages)
	cat := catalog.New(pool)
	ds, err := workload.Load(cat, workload.Config{
		Scale:            r.Scale,
		CorrelatedOrders: correlated,
	})
	if err != nil {
		return nil, err
	}
	return &engine{clock: clock, cat: cat, ds: ds}, nil
}

// plan takes sql through parse → optimizer.Plan → segment.Decompose on
// eng at r's work_mem.
func (r Runner) plan(eng *engine, sql, forceAlgo string) (plan.Node, *segment.Decomposition, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	p, err := optimizer.Plan(eng.cat, stmt, optimizer.Options{
		WorkMemPages:  r.WorkMemPages,
		ForceJoinAlgo: forceAlgo,
	})
	if err != nil {
		return nil, nil, err
	}
	return p, segment.Decompose(p, r.WorkMemPages), nil
}

// compileQuery loads a fresh engine and plans workload query q (1–5) on
// it, Q3 on the correlated orders: everything a probe needs before the
// first page is read.
func (r Runner) compileQuery(q int) (*engine, plan.Node, *segment.Decomposition, error) {
	sql, err := workload.QuerySQL(q)
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := r.newEngine(q == 3)
	if err != nil {
		return nil, nil, nil, err
	}
	p, d, err := r.plan(eng, sql, "")
	return eng, p, d, err
}

// Table1 loads the data set and renders the paper's Table 1.
func (r Runner) Table1() (string, error) {
	r = r.withDefaults()
	eng, err := r.newEngine(false)
	if err != nil {
		return "", err
	}
	return eng.ds.Table1(eng.cat)
}

// Plans renders the plan golden: Q1–Q5 under the cost-based choice and
// each forced join algorithm, at the default work_mem and at 4 pages —
// the EXPLAIN tree and its segment decomposition with every initial
// cost. A change that must not move plan choice or any InitCost proves
// it by leaving this text byte-identical.
func (r Runner) Plans() (string, error) {
	r = r.withDefaults()
	var b strings.Builder
	engines := map[bool]*engine{}
	for q := 1; q <= 5; q++ {
		sql, err := workload.QuerySQL(q)
		if err != nil {
			return "", err
		}
		correlated := q == 3
		eng := engines[correlated]
		if eng == nil {
			if eng, err = r.newEngine(correlated); err != nil {
				return "", err
			}
			engines[correlated] = eng
		}
		for _, mem := range []int{r.WorkMemPages, 4} {
			for _, algo := range []string{"", "hash", "nl", "merge"} {
				at := r
				at.WorkMemPages = mem
				p, d, err := at.plan(eng, sql, algo)
				if err != nil {
					return "", fmt.Errorf("harness: planning Q%d (work_mem %d, force %q): %w", q, mem, algo, err)
				}
				fmt.Fprintf(&b, "== Q%d work_mem=%d force=%q ==\n%s%s\n", q, mem, algo, plan.Format(p), d)
			}
		}
	}
	return b.String(), nil
}

// OverheadProbe prepares one engine and plan for query q and returns a
// function that executes the query once, with or without the indicator:
// what bench/ times for core.indicator_wall_ratio, the per-run setup
// kept outside the timed region.
func (r Runner) OverheadProbe(q int) (func(withIndicator bool) error, error) {
	r = r.withDefaults()
	eng, p, d, err := r.compileQuery(q)
	if err != nil {
		return nil, err
	}
	return func(withIndicator bool) error {
		var rep segment.WorkReporter
		if withIndicator {
			ind := core.New(eng.clock, d, core.Options{UpdatePeriod: r.UpdatePeriod})
			ind.Start()
			defer ind.Stop()
			rep = ind
		}
		env := &exec.Env{
			Pool: eng.cat.Pool(), Clock: eng.clock,
			WorkMemPages: r.WorkMemPages, Reporter: rep, Decomp: d,
		}
		_, err := exec.Run(env, p, nil)
		return err
	}, nil
}
