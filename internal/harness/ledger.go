package harness

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"progressdb"
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
	fmt.Fprintf(&b, "# bench/'s statements at scale %s, refresh %s s, each run on progressdb.DB after a cold restart.\n",
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

// ledgerBlocks opens a DB in configuration c (OpenDB), builds bench/'s
// indexes and renders one block per statement, in the order given. A
// block depends only on its own statement: each runs after a cold
// restart, and everything it prints counts from the statement's start.
func (r Runner) ledgerBlocks(c ledgerConfig, stmts []workload.Statement) ([]string, error) {
	r.BufferPoolPages, r.WorkMemPages = c.poolPages, c.workMem
	db, err := r.OpenDB(false)
	if err != nil {
		return nil, err
	}
	for _, ix := range workload.BenchIndexes {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			return nil, err
		}
	}
	if err := db.Analyze(); err != nil {
		return nil, err
	}
	blocks := make([]string, len(stmts))
	for i, st := range stmts {
		if blocks[i], err = r.ledgerBlock(db, c.name, st); err != nil {
			return nil, fmt.Errorf("harness: ledger %s %s: %w", c.name, st.Name, err)
		}
	}
	return blocks, nil
}

// ledgerBlock runs st on db after a cold restart and renders its block:
// the pool and disk counters are the run's own (Result.Plan.IO).
func (r Runner) ledgerBlock(db *progressdb.DB, config string, st workload.Statement) (string, error) {
	if err := db.ColdRestart(); err != nil {
		return "", err
	}
	stmt, err := db.Prepare(st.SQL)
	if err != nil {
		return "", err
	}
	res, err := stmt.ExecDiscardContext(context.Background(), nil)
	if err != nil {
		return "", err
	}
	estU, seqPage := stmt.CostU(), r.costs().SeqPage

	var b strings.Builder
	fmt.Fprintf(&b, "== %s %s ==\n", config, st.Name)
	fmt.Fprintf(&b, "rows=%d virt_s=%s est_u=%s done_u=%s refreshes=%d segments=%d\n",
		res.RowCount(), ff(res.VirtualSeconds), ff(estU), ff(res.History[len(res.History)-1].DoneU),
		len(res.History), len(res.Plan.Segments))
	io := res.Plan.IO
	fmt.Fprintf(&b, "pool hits=%d misses=%d evictions=%d writebacks=%d disk seq_reads=%d rand_reads=%d seq_writes=%d rand_writes=%d\n",
		io.Hits, io.Misses, io.Evictions, io.Writebacks, io.SeqReads, io.RandReads, io.SeqWrites, io.RandWrites)
	for _, s := range res.Plan.Segments {
		fmt.Fprintf(&b, "seg %d est_u=%s act_u=%s est_rows=%s act_rows=%s start=%s end=%s %s\n",
			s.ID, ff(s.EstCostU), ff(s.ActualCostU), ff(s.EstOutRows), ff(s.ActualOutRows), ff(s.StartT), ff(s.EndT), s.Root)
	}
	for _, h := range res.History {
		fmt.Fprintf(&b, "t=%s seg=%d done_u=%s est_u=%s pct=%s speed=%s remaining=%s opt_remaining=%s p=%s e1=%s e=%s\n",
			ff(h.ElapsedSeconds), h.CurrentSegment, ff(h.DoneU), ff(h.EstimatedCostU), ff(h.Percent), ff(h.SpeedU),
			ff(h.RemainingSeconds), ff(optimizerRemaining(estU, seqPage, h.ElapsedSeconds)), ff(h.CurrentP), ff(h.CurrentE1), ff(h.CurrentE))
	}
	return b.String(), nil
}

// ff writes x in shortest round-trip form, so a change in its last bit
// shows.
func ff(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
