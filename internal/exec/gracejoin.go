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
	node  *plan.Partition
	env   *Env
	tag   segment.NodeInfo
	child Iterator
	files []*storage.HeapFile
	in    *segment.InputCount // the consumer's count of the batch files
	out   *segment.SegCount   // the producer segment's count
	counter
}

// run partitions the whole input into nbatch files. Partition nodes are
// driven directly by the owning graceJoin, not as Iterators: run counts
// as the partition's open, and its successful end as its close.
func (p *partitionIter) run(nbatch int) error {
	p.opened(p.env.Clock)
	if err := p.child.Open(); err != nil {
		return err
	}
	p.files = make([]*storage.HeapFile, nbatch)
	for i := range p.files {
		p.files[i] = p.env.newTempFile()
	}
	p.env.Met.SpillPartitions.Add(int64(nbatch))
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
		p.env.countOut(p.out, p.tag.ProducerSeg, len(enc))
		p.emitBytes(len(enc))
		b := int(hashValue(t[p.node.Key]) % uint64(nbatch))
		if _, err := p.files[b].Append(enc); err != nil {
			return err
		}
	}
	if err := p.child.Close(); err != nil {
		return err
	}
	for _, f := range p.files {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	p.env.rep().SegmentDone(p.tag.ProducerSeg)
	p.closed(p.env.Clock)
	p.env.Collect.Notef(p.node, "partitioned into %d batches", nbatch)
	return nil
}

// drop is the partition's Close: it closes the child and drops the batch
// files.
func (p *partitionIter) drop() error {
	firstErr := p.child.Close()
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
	joinOut   // output row: build ++ probe, in the parent's layout
	counter

	nbatch int
	batch  int
	// Build partitions with Int keys, and of those the ones whose table
	// ended in the direct window; counted only while collecting.
	intBatches, directBatches int

	table rowTable
	// spill reads the current build batch into table, then streams the
	// probe batch: probe rows are read while its sc is not nil.
	spill      spillReader
	match      int32 // next build row matching curProbe, -1 when drained
	curProbe   tuple.Tuple
	buildArity int
	probeArity int
}

func (g *graceJoin) Open() error {
	g.opened(g.env.Clock)
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
	g.batch, g.intBatches, g.directBatches = -1, 0, 0
	g.match = -1
	return nil
}

func (g *graceJoin) Next() (tuple.Tuple, bool, error) {
	for {
		for g.match >= 0 {
			g.setLeft(g.table.rows[g.match])
			g.setRight(g.curProbe)
			g.match = g.table.next[g.match]
			g.env.Clock.ChargeCPU(cpuTuple + g.predCost)
			if g.pred != nil {
				pass, err := g.pred(g.row)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			g.emitPair(&g.joinOut)
			return g.row, true, nil
		}

		if g.spill.sc != nil {
			ok, err := g.spill.next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				g.curProbe = g.spill.row
				g.env.Clock.ChargeCPU(cpuHashOp)
				if err := g.env.yield(); err != nil {
					return nil, false, err
				}
				g.env.countIn(g.probePart.in, g.probePart.tag, len(g.spill.rec))
				g.match = g.table.first(g.curProbe[g.node.ProbeKey])
				continue
			}
		}

		// Advance to the next batch.
		g.batch++
		if g.batch >= g.nbatch {
			rep := g.env.rep()
			rep.InputDone(g.buildPart.tag.Seg, g.buildPart.tag.Input)
			rep.InputDone(g.probePart.tag.Seg, g.probePart.tag.Input)
			if g.intBatches > 0 {
				g.env.Collect.Notef(g.node, "int keys: direct window in %d of %d partitions", g.directBatches, g.intBatches)
			}
			return nil, false, nil
		}
		if err := g.loadBuildBatch(g.batch); err != nil {
			return nil, false, err
		}
		g.spill.open(g.probePart.files[g.batch], g.probeArity, nil)
	}
}

func (g *graceJoin) loadBuildBatch(b int) error {
	g.table.reset()
	r := &g.spill
	r.open(g.buildPart.files[b], g.buildArity, nil)
	for {
		ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		// Safe point: rebuilding a spilled batch table is unbounded work
		// driven by a raw reader, so it must poll for cancellation
		// itself (TestUnwindSweep's cancel bound checks it).
		if err := g.env.yield(); err != nil {
			return err
		}
		g.env.Clock.ChargeCPU(cpuHashOp)
		g.env.countIn(g.buildPart.in, g.buildPart.tag, len(r.rec))
		g.table.insert(r.row[g.node.BuildKey], r.row)
	}
	if g.env.Collect != nil && g.table.ints.n > 0 {
		g.intBatches++
		if g.table.ints.direct {
			g.directBatches++
		}
	}
	return nil
}

func (g *graceJoin) Close() error {
	g.closed(g.env.Clock)
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
