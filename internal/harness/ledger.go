package harness

import (
	"fmt"
	"strconv"
	"strings"

	"progressdb/internal/core"
	"progressdb/internal/exec"
	"progressdb/internal/segment"
	"progressdb/internal/vclock"
	"progressdb/internal/workload"
)

// ledgerConfig is one of bench/'s two engine configurations.
type ledgerConfig struct {
	name               string
	poolPages, workMem int
}

// ledgerConfigs are engine_hot's resident pool and engine_spill's small
// one: misses, evictions, Grace joins and external sorts.
var ledgerConfigs = []ledgerConfig{
	{"hot", 8192, 2048},
	{"spill", 128, 16},
}

// Ledger renders results/ledger.txt: every statement of
// workload.BenchStatements on each of bench/'s engine configurations —
// its totals, its storage counters, one line per segment and one per
// refresh. A change that must leave the virtual ledger alone proves it
// by leaving this text byte-identical.
func (r Runner) Ledger() (string, error) {
	r = r.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "# bench/'s statements at scale %s, refresh %s s, each after a cold restart on a fresh clock.\n",
		ff(r.Scale), ff(r.UpdatePeriod))
	b.WriteString("# Floats are shortest round-trip; a write in a SELECT is to a temp page.\n")
	for _, c := range ledgerConfigs {
		fmt.Fprintf(&b, "# %s: pool %d pages, work_mem %d pages\n", c.name, c.poolPages, c.workMem)
	}
	for _, c := range ledgerConfigs {
		blocks, err := r.ledgerBlocks(c, workload.BenchStatements)
		if err != nil {
			return "", err
		}
		for _, blk := range blocks {
			b.WriteString(blk)
		}
	}
	return b.String(), nil
}

// ledgerBlocks loads one engine in configuration c, builds bench/'s
// indexes and renders one block per statement, in the order given. A
// block depends only on its own statement: each runs after a cold
// restart, on its own clock.
func (r Runner) ledgerBlocks(c ledgerConfig, stmts []workload.Statement) ([]string, error) {
	r.BufferPoolPages, r.WorkMemPages = c.poolPages, c.workMem
	eng, err := r.newEngine(false)
	if err != nil {
		return nil, err
	}
	for _, ix := range workload.BenchIndexes {
		t, err := eng.cat.Table(ix[0])
		if err != nil {
			return nil, err
		}
		if _, err := eng.cat.CreateIndex(t, ix[1]); err != nil {
			return nil, err
		}
	}
	if err := eng.cat.AnalyzeAll(); err != nil {
		return nil, err
	}
	blocks := make([]string, len(stmts))
	for i, st := range stmts {
		if blocks[i], err = r.ledgerBlock(eng, c.name, st); err != nil {
			return nil, fmt.Errorf("harness: ledger %s %s: %w", c.name, st.Name, err)
		}
	}
	return blocks, nil
}

// ledgerBlock runs st on eng after a cold restart, on a fresh clock, and
// renders its block.
func (r Runner) ledgerBlock(eng *engine, config string, st workload.Statement) (string, error) {
	p, d, err := r.plan(eng, st.SQL, "")
	if err != nil {
		return "", err
	}
	pool := eng.cat.Pool()
	if err := pool.Flush(); err != nil {
		return "", err
	}
	pool.Clear()
	disk0 := pool.Disk().Stats()

	clk := vclock.New(r.costs(), nil)
	ind := core.New(clk, d, core.Options{UpdatePeriod: r.UpdatePeriod, SpeedWindow: r.SpeedWindow})
	ind.Start()
	cr := &countingReporter{WorkReporter: ind}
	rows, err := exec.Run(&exec.Env{
		Pool: pool, Clock: clk, WorkMemPages: r.WorkMemPages, Reporter: cr, Decomp: d,
	}, p, nil)
	if err != nil {
		return "", err
	}
	ps, disk := pool.Stats(), pool.Disk().Stats()
	snaps := ind.Snapshots()
	segs := ind.SegmentReports()

	var b strings.Builder
	fmt.Fprintf(&b, "== %s %s ==\n", config, st.Name)
	fmt.Fprintf(&b, "rows=%d virt_s=%s est_u=%s done_u=%s refreshes=%d segments=%d reporter_calls=%d\n",
		rows, ff(clk.Now()), ff(ind.InitialTotalU()), ff(snaps[len(snaps)-1].DoneU), len(snaps), len(segs), cr.n)
	fmt.Fprintf(&b, "pool hits=%d misses=%d evictions=%d writebacks=%d disk seq_reads=%d rand_reads=%d seq_writes=%d rand_writes=%d\n",
		ps.Hits, ps.Misses, ps.Evictions, ps.Writebacks,
		disk.SeqReads-disk0.SeqReads, disk.RandReads-disk0.RandReads,
		disk.SeqWrites-disk0.SeqWrites, disk.RandWrites-disk0.RandWrites)
	for _, s := range segs {
		fmt.Fprintf(&b, "seg %d est_u=%s act_u=%s est_rows=%s act_rows=%s start=%s end=%s %s\n",
			s.ID, ff(s.EstCostU), ff(s.ActualCostU), ff(s.EstOutRows), ff(s.ActualOutRows), ff(s.StartT), ff(s.EndT), s.Root)
	}
	for _, s := range snaps {
		fmt.Fprintf(&b, "t=%s seg=%d done_u=%s est_u=%s pct=%s speed=%s remaining=%s opt_remaining=%s p=%s e1=%s e=%s\n",
			ff(s.Elapsed), s.CurrentSegment, ff(s.DoneU), ff(s.EstTotalU), ff(s.Percent), ff(s.SpeedU),
			ff(s.RemainingSeconds), ff(optimizerRemaining(ind.InitialTotalU(), r.costs().SeqPage, s.Elapsed)), ff(s.CurrentP), ff(s.CurrentE1), ff(s.CurrentE))
	}
	return b.String(), nil
}

// ff writes x in shortest round-trip form, so a change in its last bit
// shows.
func ff(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// countingReporter counts the boundary events of one run on the
// indicator it wraps: the rare calls the executor makes on it, and the
// per-row events its counter block holds — each input tuple not handed
// over in bulk, each output tuple and each multi-stage add — whether the
// executor counted them inline or handed them over.
type countingReporter struct {
	segment.WorkReporter // a *core.Indicator
	// n is the run's events as of its last rare call; the final
	// SegmentDone is a run's last event.
	n    int64
	rare int64 // InputBulk, InputRepeat, InputDone and SegmentDone calls
	bulk int64 // tuples handed over by InputBulk
}

func (c *countingReporter) InputBulk(seg, input int, tuples int64, bytes float64) {
	c.bulk += tuples
	c.WorkReporter.InputBulk(seg, input, tuples, bytes)
	c.count()
}
func (c *countingReporter) InputRepeat(seg, input int, tuples int64, bytes float64) {
	c.WorkReporter.InputRepeat(seg, input, tuples, bytes)
	c.count()
}
func (c *countingReporter) InputDone(seg, input int) {
	c.WorkReporter.InputDone(seg, input)
	c.count()
}
func (c *countingReporter) SegmentDone(seg int) {
	c.WorkReporter.SegmentDone(seg)
	c.count()
}

// count takes one rare call and recounts n.
func (c *countingReporter) count() {
	c.rare++
	c.n = c.rare - c.bulk
	for _, s := range c.WorkReporter.(*core.Indicator).Decomposition().Segments {
		c.n += s.Count.OutTuples + s.Count.Extras
		for _, in := range s.Inputs {
			c.n += in.Count.Tuples
		}
	}
}
