package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"progressdb"
	"progressdb/client"
	"progressdb/internal/server"
)

// workloadDef is one of the benchmark's four workloads.
type workloadDef struct {
	// Name and Why are what BENCHMARK.json says about the workload.
	Name string `json:"name"`
	Why  string `json:"why"`
	// Serve runs the ops through a loopback progressd stack instead of
	// calling the engine in process.
	Serve   bool    `json:"-"`
	Classes []class `json:"-"`
	// PoolPages and WorkMemPages size the engine; Metrics is the
	// engine's registry switch (progressd turns it on, the facade's
	// default is off).
	PoolPages    int  `json:"-"`
	WorkMemPages int  `json:"-"`
	Metrics      bool `json:"-"`
}

var workloads = []workloadDef{
	{
		Name: "engine_hot", Classes: mix9, PoolPages: 8192, WorkMemPages: 2048,
		Why: "in-process nine-class mix on a pool holding the data 3.7x over: no misses, no spills, so wall is executor, tuple, expr CPU and GC",
	},
	{
		Name: "engine_spill", Classes: mix9, PoolPages: 128, WorkMemPages: 16,
		Why: "same list on a pool of 6% of the data and 16 work pages: misses, evictions, temp writes, Grace joins and external sorts on every cycle",
	},
	{
		Name: "serve_short", Serve: true, Classes: short3, PoolPages: 8192, WorkMemPages: 2048, Metrics: true,
		Why: "sub-millisecond indexed lookups over loopback HTTP+SSE: admission, job registry, SSE, JSON and the client are over 90% of an op",
	},
	{
		Name: "serve_heavy", Serve: true, Classes: mix9, PoolPages: 8192, WorkMemPages: 2048, Metrics: true,
		Why: "engine_hot's list through the server with every core busy: server cost is under 1% of an op, so the gap to engine_hot is engine concurrency",
	},
}

func workloadByName(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// clients is the closed loop's width: one caller for the in-process
// workloads, min(nproc, 2) callers (and as many server workers) for the
// served ones. Nothing else in the process drives load.
func (w *workloadDef) clients() int {
	if !w.Serve {
		return 1
	}
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// ops builds the workload's fixed op list for a seed; quarter is the
// length of the leading part the traced pass runs.
func (w *workloadDef) ops(sz sizing, seed int64) (ops []op, quarter int) {
	counts := sz.Mix
	if len(w.Classes) == len(short3) {
		counts = sz.Short
	}
	return buildOps(w.Classes, counts, sz.Customers, seed)
}

// updatePeriod is the indicator's refresh period in virtual seconds.
// progressd's default of 10 would leave seven of the nine classes with
// nothing but their terminal report on a resident pool (q2 lasts 3.6
// virtual seconds there), so first_report would equal query_wall and
// remaining_err would be scored on q5 alone.
const updatePeriod = 1

func (w *workloadDef) config(sz sizing) progressdb.Config {
	return progressdb.Config{
		BufferPoolPages:       w.PoolPages,
		WorkMemPages:          w.WorkMemPages,
		ProgressUpdateSeconds: updatePeriod,
		// Virtual time calibrated to full-scale durations, as cmd/progressd.
		SeqPageCost:  0.8e-3 / sz.Scale,
		RandPageCost: 6.4e-3 / sz.Scale,
		Metrics:      w.Metrics,
	}
}

// setupTimes splits setup_s by stage (the setup.* per-layer metrics).
type setupTimes struct {
	Load, Index, ServerStart, Warm, Total time.Duration
}

// benchEnv is one set-up instance of a workload: a loaded engine, the
// oracle's references and, for served workloads, a listening server.
type benchEnv struct {
	w     *workloadDef
	sz    sizing
	db    *progressdb.DB
	refs  map[string]*reference
	times setupTimes

	srv    *server.Server
	hs     *http.Server
	base   string
	served sync.WaitGroup // the hs.Serve goroutine
}

// distinctSQL returns the SQL texts of ops in first-appearance order:
// the order the reference pass (and the staged engine's mirror of it)
// runs them in.
func distinctSQL(ops []op) (sqls []string, cls []int) {
	seen := make(map[string]bool)
	for _, o := range ops {
		if !seen[o.SQL] {
			seen[o.SQL] = true
			sqls = append(sqls, o.SQL)
			cls = append(cls, o.Class)
		}
	}
	return sqls, cls
}

// setUp loads the data, builds the indexes, starts the server (served
// workloads) and runs every distinct SQL of ops once: that pass records
// the oracle's references, checks the closed forms and warms the pool.
func setUp(w *workloadDef, sz sizing, ops []op) (*benchEnv, error) {
	e := &benchEnv{w: w, sz: sz, refs: make(map[string]*reference)}
	t0 := time.Now()
	e.db = progressdb.Open(w.config(sz))
	if err := e.db.LoadPaperWorkload(sz.Scale, false); err != nil {
		return nil, fmt.Errorf("%s: loading data: %w", w.Name, err)
	}
	t1 := time.Now()
	e.times.Load = t1.Sub(t0)
	for _, ix := range [][2]string{{"customer", "custkey"}, {"orders", "custkey"}} {
		if err := e.db.CreateIndex(ix[0], ix[1]); err != nil {
			return nil, fmt.Errorf("%s: index on %s.%s: %w", w.Name, ix[0], ix[1], err)
		}
	}
	if err := e.db.Analyze(); err != nil {
		return nil, fmt.Errorf("%s: analyze: %w", w.Name, err)
	}
	t2 := time.Now()
	e.times.Index = t2.Sub(t1)
	if w.Serve {
		if err := e.startServer(); err != nil {
			return nil, err
		}
	}
	t3 := time.Now()
	e.times.ServerStart = t3.Sub(t2)
	if err := e.referencePass(ops); err != nil {
		e.close()
		return nil, err
	}
	e.times.Warm = time.Since(t3)
	e.times.Total = time.Since(t0)
	return e, nil
}

func (e *benchEnv) startServer() error {
	e.srv = server.New(e.db, server.Config{Workers: e.w.clients()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		return fmt.Errorf("%s: listen: %w", e.w.Name, err)
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.base = "http://" + ln.Addr().String()
	e.served.Add(1)
	go func() {
		defer e.served.Done()
		e.hs.Serve(ln) // returns once close() shuts the server down
	}()
	return nil
}

// close stops the server and waits for its goroutines.
func (e *benchEnv) close() {
	if e.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	e.srv.Close()
	e.served.Wait()
	e.hs = nil
}

func (e *benchEnv) referencePass(ops []op) error {
	sqls, cls := distinctSQL(ops)
	lineitems := int(math.Round(120000 * e.sz.Scale / 0.02))
	for i, sql := range sqls {
		c := e.w.Classes[cls[i]]
		var res *progressdb.Result
		var err error
		ref := &reference{Rows: -1}
		if c.Name == "q5" {
			res, err = e.db.ExecDiscard(sql, nil)
		} else {
			res, err = e.db.Exec(sql, nil)
		}
		if err != nil {
			return fmt.Errorf("%s: reference run of %s: %w", e.w.Name, c.Name, err)
		}
		if c.Name != "q5" {
			ref.Rows, ref.Sum = res.RowCount(), rowSum(res.Rows)
		}
		want := c.Rows
		if want == rowsLineitem {
			want = lineitems
		}
		if want != 0 && ref.Rows != want {
			return fmt.Errorf("%s: %s returned %d rows, closed form says %d (%s)", e.w.Name, c.Name, ref.Rows, want, sql)
		}
		if len(res.History) == 0 {
			return fmt.Errorf("%s: reference run of %s took no report", e.w.Name, c.Name)
		}
		ref.DoneU = res.History[len(res.History)-1].DoneU
		ref.VirtualSeconds = res.VirtualSeconds
		e.refs[sql] = ref
	}
	return nil
}

// outcome is one measured op.
type outcome struct {
	WallUS, FirstUS float64
	Virt, DoneU     float64
	RemErr          float64 // NaN: no scoreable report
	Reports         int
	Class           int
	Fail            string // "" = finished and passed the oracle
}

// runtimeSample accumulates the runtime.* per-layer metrics over a pass.
type runtimeSample struct {
	mu     sync.Mutex // guards peak
	peak   uint64
	before runtime.MemStats
	after  runtime.MemStats
}

func (r *runtimeSample) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mu.Lock()
	if ms.HeapInuse > r.peak {
		r.peak = ms.HeapInuse
	}
	r.mu.Unlock()
}

// pass is the result of running an op list once.
type pass struct {
	Wall     time.Duration
	Outcomes []outcome
	RT       runtimeSample
}

// executor runs one op for one client and reports what happened.
type executor func(ctx context.Context, client int, o op) outcome

// runOps runs ops once, closed loop: each of `clients` callers takes the
// next op from one shared cursor, so the mix every run executes is the
// list itself whatever the callers' relative speed. With one client the
// loop runs on the calling goroutine. sampleRuntime reads MemStats at
// every 20th op boundary (no timer goroutine) for the runtime.* metrics;
// it is off in the passes that feed end-to-end metrics.
func runOps(ops []op, clients int, exec executor, sampleRuntime bool) *pass {
	p := &pass{Outcomes: make([]outcome, len(ops))}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cursor atomic.Int64
	loop := func(client int) {
		for ctx.Err() == nil {
			i := int(cursor.Add(1)) - 1
			if i >= len(ops) {
				return
			}
			if sampleRuntime && i%20 == 0 {
				p.RT.sample()
			}
			p.Outcomes[i] = exec(ctx, client, ops[i])
			p.Outcomes[i].Class = ops[i].Class
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&p.RT.before)
	t0 := time.Now()
	if clients == 1 {
		loop(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				loop(c)
			}(c)
		}
		wg.Wait()
	}
	p.Wall = time.Since(t0)
	runtime.ReadMemStats(&p.RT.after)
	return p
}

// watch follows one op's progress stream from the caller's side: when
// the first report arrived, whether the stream kept the indicator's
// contract, and the remaining-time estimates to score afterwards.
type watch struct {
	t0    time.Time
	first time.Duration
	chk   reportCheck
	pts   []estimate
}

// startWatch starts the op's clock; scratch is reused for the estimates.
func startWatch(scratch []estimate) watch {
	return watch{t0: time.Now(), pts: scratch[:0]}
}

// report records one progress report. final marks the terminal one;
// scored reports carry a remaining-time estimate worth scoring.
func (w *watch) report(doneU, percent, elapsed, remaining float64, final, scored bool) {
	if w.chk.n == 0 {
		w.first = time.Since(w.t0)
	}
	w.chk.see(doneU, percent, final)
	if scored {
		w.pts = append(w.pts, estimate{elapsed, remaining})
	}
}

// outcome closes the op: its wall ends now. A non-nil err fails it;
// otherwise the oracle's verdict against ref decides.
func (w *watch) outcome(virt float64, ref *reference, err error) outcome {
	out := outcome{
		WallUS: us(time.Since(w.t0)), FirstUS: us(w.first),
		Reports: w.chk.n, DoneU: w.chk.lastDoneU, Virt: virt, RemErr: math.NaN(),
	}
	if err != nil {
		out.Fail = err.Error()
		return out
	}
	out.RemErr = remainingErr(w.pts, virt)
	out.Fail = w.chk.verdict(ref)
	return out
}

// engineExec is the in-process executor of the engine_* workloads:
// DB.ExecDiscard with a progress callback.
func (e *benchEnv) engineExec() executor {
	var scratch []estimate // one client, so one scratch buffer
	return func(_ context.Context, _ int, o op) outcome {
		w := startWatch(scratch)
		res, err := e.db.ExecDiscard(o.SQL, func(r progressdb.Report) {
			w.report(r.DoneU, r.Percent, r.ElapsedSeconds, r.RemainingSeconds, r.Finished, !r.Finished)
		})
		scratch = w.pts
		if err != nil {
			return w.outcome(0, nil, err)
		}
		return w.outcome(res.VirtualSeconds, e.refs[o.SQL], nil)
	}
}

// serveExec is the served workloads' executor: client.Submit, then
// client.Stream to the terminal event, then client.Result for keep_rows
// ops — the caller who submits and watches its own progress stream. rec,
// when non-nil, gets a span around each client call; queueWait, when
// non-nil, gets StartedAtMS − SubmittedAtMS of every op (one extra GET,
// traced pass only).
func (e *benchEnv) serveExec(rec *recorder, queueWait *[]float64) executor {
	n := e.w.clients()
	cls := make([]*client.Client, n)
	scratch := make([][]estimate, n)
	for i := range cls {
		cls[i] = client.New(e.base)
	}
	var qmu sync.Mutex // guards *queueWait
	return func(ctx context.Context, ci int, o op) outcome {
		cl := cls[ci]
		c := e.w.Classes[o.Class]
		root := rec.start("op", o.ID, 0)
		defer rec.end(root)
		w := startWatch(scratch[ci])

		sp := rec.start("client.submit", o.ID, root)
		sub, err := cl.Submit(ctx, client.SubmitRequest{SQL: o.SQL, KeepRows: c.KeepRows})
		rec.end(sp)
		if err != nil {
			return w.outcome(0, nil, fmt.Errorf("submit: %w", err)) // a shed (429) lands here too
		}

		var final client.ProgressEvent
		sp = rec.start("client.stream", o.ID, root)
		fe := rec.start("client.first_event", o.ID, sp)
		err = cl.Stream(ctx, sub.ID, func(ev client.ProgressEvent) error {
			if w.chk.n == 0 {
				rec.end(fe)
			}
			if ev.Terminal() {
				final = ev
			}
			w.report(ev.DoneU, ev.Percent, ev.ElapsedSeconds, ev.RemainingSeconds, ev.Terminal(), !ev.Terminal() && !ev.Finished)
			return nil
		})
		rec.end(sp)
		scratch[ci] = w.pts
		switch {
		case err != nil:
			return w.outcome(0, nil, fmt.Errorf("stream: %w", err))
		case final.State != client.StateDone:
			return w.outcome(0, nil, fmt.Errorf("ended %s: %s", final.State, final.Error))
		}
		ref := e.refs[o.SQL]
		// The terminal event carries Result.VirtualSeconds as its elapsed time.
		out := w.outcome(final.ElapsedSeconds, ref, nil)

		if c.KeepRows && out.Fail == "" {
			sp = rec.start("client.result", o.ID, root)
			res, err := cl.Result(ctx, sub.ID)
			rec.end(sp)
			switch {
			case err != nil:
				out.Fail = "result: " + err.Error()
			case res.RowCount != ref.Rows || rowSum(res.Rows) != ref.Sum:
				out.Fail = fmt.Sprintf("result rows differ from the reference (%d rows, want %d)", res.RowCount, ref.Rows)
			}
		}
		if queueWait != nil && out.Fail == "" {
			info, err := cl.Get(ctx, sub.ID)
			if err != nil {
				out.Fail = "get: " + err.Error()
			} else {
				qmu.Lock()
				*queueWait = append(*queueWait, float64(info.StartedAtMS-info.SubmittedAtMS))
				qmu.Unlock()
			}
		}
		return out
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// checkLeaks is the engine's between-queries invariant check (no temp
// files, no orphaned or pinned pool pages).
func (e *benchEnv) checkLeaks() error {
	if err := e.db.CheckLeaks(); err != nil {
		return fmt.Errorf("%s: %w", e.w.Name, err)
	}
	return nil
}
