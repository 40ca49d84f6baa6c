package exec

import (
	"fmt"
	"math"

	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
)

// partitionIter hash-partitions its child into batch files on disk — the
// "hash" operators of the paper's Figures 3 and 8. It is fully blocking:
// run drains the child at once, ending the producer segment. The files
// are then consumed batch-by-batch by the owning graceJoin.
type partitionIter struct {
	node        *plan.Partition
	env         *Env
	tag         segment.NodeInfo
	child       Iterator
	files       []*storage.HeapFile
	childOpen   bool
	childClosed bool
}

// run partitions the whole input into nbatch files. Partition nodes are
// driven directly by the owning graceJoin (not through Build), so actuals
// collection is inlined here.
func (p *partitionIter) run(nbatch int) error {
	st := p.env.Collect.Stats(p.node)
	if st != nil {
		st.StartT = p.env.Clock.Now()
		st.Loops++
	}
	rows := p.env.Met.RowsOut(opName(p.node))
	if err := p.child.Open(); err != nil {
		return err
	}
	p.childOpen = true
	p.files = make([]*storage.HeapFile, nbatch)
	for i := range p.files {
		p.files[i] = p.env.newTempFile()
	}
	p.env.Met.SpillPartitions.Add(int64(nbatch))
	rep := p.env.rep()
	var enc []byte // reused: Append copies the record
	for {
		t, ok, err := p.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		enc = t.Encode(enc[:0])
		p.env.Clock.ChargeCPU(cpuHashOp)
		rep.OutputTuple(p.tag.ProducerSeg, len(enc))
		rows.Inc()
		if st != nil {
			st.Rows++
			st.Bytes += float64(len(enc))
		}
		b := int(hashValue(t[p.node.Key]) % uint64(nbatch))
		if _, err := p.files[b].Append(enc); err != nil {
			return err
		}
	}
	if err := p.child.Close(); err != nil {
		return err
	}
	p.childClosed = true
	for _, f := range p.files {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	rep.SegmentDone(p.tag.ProducerSeg)
	if st != nil {
		st.EndT = p.env.Clock.Now()
	}
	p.env.Collect.Notef(p.node, "partitioned into %d batches", nbatch)
	return nil
}

func (p *partitionIter) drop() error {
	var firstErr error
	if p.childOpen && !p.childClosed {
		// run failed mid-drain: unwind the child so its own temp files
		// (spilled sorts, nested joins) are released.
		p.childClosed = true
		if err := p.child.Close(); err != nil {
			firstErr = err
		}
	}
	for _, f := range p.files {
		if f == nil {
			continue
		}
		if err := f.Drop(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.files = nil
	return firstErr
}

// graceJoin executes a Grace hash join over two partition sets: for each
// batch b, build partition b is loaded into an in-memory table and probe
// partition b streams against it. Both partition reads are inputs of the
// join's segment; the probe partitions are the dominant input.
type graceJoin struct {
	node      *plan.HashJoin
	env       *Env
	buildPart *partitionIter
	probePart *partitionIter
	pred      func(tuple.Tuple) (bool, error) // node.ExtraPred compiled, nil if none
	predCost  float64

	nbatch int
	batch  int

	table      rowTable
	probeScan  *storage.Scanner
	match      int32       // next build row matching curProbe, -1 when drained
	curProbe   tuple.Tuple // reused slot for probe rows read back
	buildRow   tuple.Tuple // reused slot for build rows read back
	out        tuple.Tuple // reused output row
	buildArity int
	probeArity int
}

func (g *graceJoin) Open() error {
	g.buildArity = g.node.Build.Schema().Arity()
	g.probeArity = g.node.Probe.Schema().Arity()

	// Batch count: enough that one build partition fits in memory, per
	// the optimizer's estimate.
	mem := g.env.workMemBytes()
	est := g.node.Build.Est().Bytes()
	g.nbatch = 2
	if mem > 0 {
		g.nbatch = int(math.Ceil(est / mem))
		if g.nbatch < 2 {
			g.nbatch = 2
		}
		if g.nbatch > 256 {
			g.nbatch = 256
		}
	}
	if err := g.buildPart.run(g.nbatch); err != nil {
		return err
	}
	if err := g.probePart.run(g.nbatch); err != nil {
		return err
	}
	g.batch = -1
	g.match = -1
	return nil
}

func (g *graceJoin) Next() (tuple.Tuple, bool, error) {
	rep := g.env.rep()
	for {
		for g.match >= 0 {
			b := g.table.rows[g.match]
			g.match = g.table.next[g.match]
			g.out = joinRow(g.out, b, g.curProbe)
			out := g.out
			g.env.Clock.ChargeCPU(cpuTuple + g.predCost)
			if g.pred != nil {
				pass, err := g.pred(out)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			return out, true, nil
		}

		if g.probeScan != nil {
			rec, _, ok := g.probeScan.Next()
			if ok {
				t, err := tuple.DecodeInto(g.curProbe, rec, g.probeArity, nil)
				if err != nil {
					return nil, false, err
				}
				g.curProbe = t
				g.env.Clock.ChargeCPU(cpuHashOp)
				if err := g.env.yield(); err != nil {
					return nil, false, err
				}
				rep.InputTuple(g.probePart.tag.Seg, g.probePart.tag.Input, len(rec))
				g.match = g.table.first(t[g.node.ProbeKey])
				continue
			}
			if err := g.probeScan.Err(); err != nil {
				return nil, false, err
			}
			g.probeScan = nil
		}

		// Advance to the next batch.
		g.batch++
		if g.batch >= g.nbatch {
			rep.InputDone(g.buildPart.tag.Seg, g.buildPart.tag.Input)
			rep.InputDone(g.probePart.tag.Seg, g.probePart.tag.Input)
			return nil, false, nil
		}
		if err := g.loadBuildBatch(g.batch); err != nil {
			return nil, false, err
		}
		g.probeScan = g.probePart.files[g.batch].NewScanner()
	}
}

func (g *graceJoin) loadBuildBatch(b int) error {
	g.table.reset()
	rep := g.env.rep()
	sc := g.buildPart.files[b].NewScanner()
	for {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		// Safe point: rebuilding a spilled batch table is unbounded work
		// driven by a raw scanner, so it must poll for cancellation
		// itself (found by progresslint's safepoint analyzer).
		if err := g.env.yield(); err != nil {
			return err
		}
		t, err := tuple.DecodeInto(g.buildRow, rec, g.buildArity, nil)
		if err != nil {
			return err
		}
		g.buildRow = t
		g.env.Clock.ChargeCPU(cpuHashOp)
		rep.InputTuple(g.buildPart.tag.Seg, g.buildPart.tag.Input, len(rec))
		g.table.insert(t[g.node.BuildKey], t)
	}
	return sc.Err()
}

func (g *graceJoin) Close() error {
	err1 := g.buildPart.drop()
	err2 := g.probePart.drop()
	g.table = rowTable{}
	if err1 != nil {
		return fmt.Errorf("exec: dropping grace-join build partitions: %w", err1)
	}
	if err2 != nil {
		return fmt.Errorf("exec: dropping grace-join probe partitions: %w", err2)
	}
	return nil
}
