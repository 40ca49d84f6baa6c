package main

import (
	"context"
	"fmt"

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

// stagedEngine is an engine assembled from the internal packages the way
// progressdb.Open and internal/harness assemble one (clock group → disk
// → buffer pool → catalog → workload.Load), so the traced pass can time
// each stage of a query from outside and read the pool's and disk's own
// counters. Every virtual-clock step of DB.exec is mirrored, and the
// traced pass checks op by op that VirtualSeconds and terminal DoneU
// equal the DB path's: the trace provably measures the same work.
type stagedEngine struct {
	group   *vclock.Group
	clock   *vclock.Clock // base clock: load, DDL
	disk    *storage.Disk
	pool    *storage.BufferPool
	cat     *catalog.Catalog
	workMem int
	update  float64
}

func newStagedEngine(cfg progressdb.Config, scale float64) (*stagedEngine, error) {
	costs := vclock.DefaultCosts()
	costs.SeqPage, costs.RandPage = cfg.SeqPageCost, cfg.RandPageCost
	s := &stagedEngine{group: vclock.NewGroup(costs), workMem: cfg.WorkMemPages, update: cfg.ProgressUpdateSeconds}
	s.clock = s.group.Worker()
	s.disk = storage.NewDisk(s.clock)
	s.pool = storage.NewBufferPool(s.disk, cfg.BufferPoolPages)
	s.cat = catalog.New(s.pool)
	if _, err := workload.Load(s.cat, workload.Config{Scale: scale}); err != nil {
		return nil, fmt.Errorf("staged engine: loading data: %w", err)
	}
	for _, ix := range [][2]string{{"customer", "custkey"}, {"orders", "custkey"}} {
		t, err := s.cat.Table(ix[0])
		if err != nil {
			return nil, fmt.Errorf("staged engine: %w", err)
		}
		if err := t.Heap.Sync(); err != nil {
			return nil, fmt.Errorf("staged engine: sync %s: %w", ix[0], err)
		}
		if _, err := s.cat.CreateIndex(t, ix[1]); err != nil {
			return nil, fmt.Errorf("staged engine: index on %s.%s: %w", ix[0], ix[1], err)
		}
	}
	for _, t := range s.cat.Tables() {
		if err := t.Heap.Sync(); err != nil {
			return nil, fmt.Errorf("staged engine: sync %s: %w", t.Name, err)
		}
	}
	if err := s.cat.AnalyzeAll(); err != nil {
		return nil, fmt.Errorf("staged engine: analyze: %w", err)
	}
	s.clock.Sync()
	return s, nil
}

// countingReporter is the counting wrapper handed to exec.Env in the
// indicator's place: every boundary event the executor reports is one
// call, so calls × core.reporter_call_ns is the indicator's modelled
// cost.
type countingReporter struct {
	next  segment.WorkReporter
	calls int64
}

func (c *countingReporter) InputTuple(seg, input, bytes int) {
	c.calls++
	c.next.InputTuple(seg, input, bytes)
}
func (c *countingReporter) InputBulk(seg, input int, tuples int64, bytes float64) {
	c.calls++
	c.next.InputBulk(seg, input, tuples, bytes)
}
func (c *countingReporter) InputRepeat(seg, input int, tuples int64, bytes float64) {
	c.calls++
	c.next.InputRepeat(seg, input, tuples, bytes)
}
func (c *countingReporter) InputDone(seg, input int) { c.calls++; c.next.InputDone(seg, input) }
func (c *countingReporter) OutputTuple(seg, bytes int) {
	c.calls++
	c.next.OutputTuple(seg, bytes)
}
func (c *countingReporter) Extra(seg int, bytes float64) { c.calls++; c.next.Extra(seg, bytes) }
func (c *countingReporter) SegmentDone(seg int)          { c.calls++; c.next.SegmentDone(seg) }

// stagedCounts are the exact per-op counts the traced pass reads at the
// layer boundaries.
type stagedCounts struct {
	Segments      int
	ReporterCalls int64
	Pool          storage.PoolStats
	Disk          storage.DiskStats
}

// run executes one op stage by stage with a span around each stage,
// under a root span named rootName. onReport, when non-nil, sees every
// indicator snapshot.
func (s *stagedEngine) run(o op, rootName string, rec *recorder, onReport func(core.Snapshot)) (virt float64, counts stagedCounts, err error) {
	root := rec.start(rootName, o.ID, 0)
	defer rec.end(root)
	pool0, disk0 := s.pool.Stats(), s.disk.Stats()

	sp := rec.start("sqlparser.parse", o.ID, root)
	stmt, err := sqlparser.Parse(o.SQL)
	rec.end(sp)
	if err != nil {
		return 0, counts, fmt.Errorf("parse: %w", err)
	}
	sp = rec.start("optimizer.plan", o.ID, root)
	p, err := optimizer.Plan(s.cat, stmt, optimizer.Options{WorkMemPages: s.workMem})
	rec.end(sp)
	if err != nil {
		return 0, counts, fmt.Errorf("plan: %w", err)
	}
	sp = rec.start("segment.decompose", o.ID, root)
	d := segment.Decompose(p, s.workMem)
	rec.end(sp)
	counts.Segments = len(d.Segments)

	sp = rec.start("core.setup", o.ID, root)
	s.clock.Sync()
	clk := s.group.Worker()
	ind := core.New(clk, d, core.Options{UpdatePeriod: s.update})
	if onReport != nil {
		ind.Subscribe(onReport)
	}
	ind.Start()
	rec.end(sp)
	defer ind.Stop()

	rep := &countingReporter{next: ind}
	env := &exec.Env{Pool: s.pool, Clock: clk, WorkMemPages: s.workMem, Reporter: rep, Decomp: d}
	start := clk.Now()
	sp = rec.start("exec.run", o.ID, root)
	_, err = exec.Run(env, p, nil)
	rec.end(sp)
	if err != nil {
		env.ReleaseScans()
		env.ReclaimTemps()
		clk.Sync()
		return 0, counts, fmt.Errorf("run: %w", err)
	}
	virt = clk.Now() - start
	clk.Sync()

	counts.ReporterCalls = rep.calls
	pool1, disk1 := s.pool.Stats(), s.disk.Stats()
	counts.Pool = storage.PoolStats{
		Hits: pool1.Hits - pool0.Hits, Misses: pool1.Misses - pool0.Misses,
		Evictions: pool1.Evictions - pool0.Evictions, Writebacks: pool1.Writebacks - pool0.Writebacks,
	}
	counts.Disk = storage.DiskStats{
		SeqReads: disk1.SeqReads - disk0.SeqReads, RandReads: disk1.RandReads - disk0.RandReads,
		SeqWrites: disk1.SeqWrites - disk0.SeqWrites, RandWrites: disk1.RandWrites - disk0.RandWrites,
	}
	return virt, counts, nil
}

// warm mirrors benchEnv.referencePass on the staged engine, so both
// engines enter the op list with the same pool contents and clock.
func (s *stagedEngine) warm(ops []op) error {
	sqls, _ := distinctSQL(ops)
	for _, sql := range sqls {
		if _, _, err := s.run(op{SQL: sql}, "", nil, nil); err != nil {
			return fmt.Errorf("staged engine: warm-up: %w", err)
		}
	}
	return nil
}

// stagedExec is the staged executor: the traced pass of the engine_*
// workloads and the in-process pass of the serve_* ones. It holds every
// op to the same oracle as the DB path and collects the per-op counts.
func (s *stagedEngine) stagedExec(rootName string, refs map[string]*reference, rec *recorder, counts []stagedCounts) executor {
	var scratch []estimate
	return func(_ context.Context, _ int, o op) outcome {
		w := startWatch(scratch)
		virt, c, err := s.run(o, rootName, rec, func(sn core.Snapshot) {
			w.report(sn.DoneU, sn.Percent, sn.Elapsed, sn.RemainingSeconds, sn.Finished, !sn.Finished)
		})
		scratch = w.pts
		if err != nil {
			return w.outcome(0, nil, err)
		}
		counts[o.ID-1] = c
		return w.outcome(virt, refs[o.SQL], nil)
	}
}

// leaks is DB.CheckLeaks for the staged engine.
func (s *stagedEngine) leaks() error {
	if temps := s.disk.OpenFilesOfClass(storage.ClassTemp); len(temps) > 0 {
		return fmt.Errorf("staged engine: %d temp file(s) leaked", len(temps))
	}
	if orphans := s.pool.OrphanedPages(); len(orphans) > 0 {
		return fmt.Errorf("staged engine: pool holds %d page(s) of removed files", len(orphans))
	}
	if pins := s.pool.PinnedFrames(); pins != 0 {
		return fmt.Errorf("staged engine: %d leaked frame pin(s)", pins)
	}
	return nil
}
