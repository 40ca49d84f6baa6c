package exec

import (
	"fmt"

	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
)

// hashJoin is a hybrid hash join.
//
// Build phase (part of the lower segment, which it terminates): the build
// child is drained into an in-memory table. If the table outgrows working
// memory the join degrades gracefully: tuples are partitioned into
// batches, batch 0 stays in memory, the rest spill to temp files. Every
// build tuple is a segment *output* of the build segment as it is
// produced, and a segment *input* of the consumer segment as the hash
// table is later consumed (the paper's double counting).
//
// Probe phase (the consumer segment's pipeline): probe tuples stream
// against batch 0; tuples of spilled batches are written to probe temp
// files (multi-stage Extra bytes) and re-read per batch (Extra again) —
// matching the cost model's 2 × spillFraction × probeBytes term.
type hashJoin struct {
	node     *plan.HashJoin
	env      *Env
	tag      segment.NodeInfo // Seg = consumer, Input = hash-table slot, ProducerSeg = build segment
	build    Iterator
	probe    Iterator
	pred     func(tuple.Tuple) (bool, error) // node.ExtraPred compiled, nil if none
	predCost float64

	table      rowTable
	tableBytes float64

	spilled     bool
	nbatch      int
	buildFiles  []*storage.HeapFile
	probeFiles  []*storage.HeapFile
	buildClosed bool

	// emission state
	match    int32 // next build row matching curProbe, -1 when drained
	curProbe tuple.Tuple
	out      tuple.Tuple // reused output row
	spillRow tuple.Tuple // reused slot for rows re-read from spill files
	enc      []byte      // reused spill-write buffer

	// batch-processing state
	probeExhausted bool
	batchIdx       int
	batchScan      *storage.Scanner

	buildArity, probeArity int
}

func (h *hashJoin) Open() error {
	h.match = -1
	h.buildArity = h.node.Build.Schema().Arity()
	h.probeArity = h.node.Probe.Schema().Arity()

	if err := h.build.Open(); err != nil {
		return err
	}
	rep := h.env.rep()
	memLimit := h.env.workMemBytes()
	inMemTuples, inMemBytes := int64(0), 0.0
	for {
		t, ok, err := h.build.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		sz := t.EncodedSize()
		h.env.Clock.ChargeCPU(cpuHashOp)
		rep.OutputTuple(h.tag.ProducerSeg, sz)

		if h.spilled {
			b := h.batchOf(t[h.node.BuildKey])
			if b == 0 {
				h.addToTable(t, sz)
				inMemTuples++
				inMemBytes += float64(sz)
			} else {
				if err := h.spillBuild(b, t); err != nil {
					return err
				}
			}
			continue
		}
		h.addToTable(t, sz)
		inMemTuples++
		inMemBytes += float64(sz)
		if h.tableBytes > memLimit && memLimit > 0 {
			if err := h.startSpill(); err != nil {
				return err
			}
			inMemTuples, inMemBytes = int64(len(h.table.rows)), h.tableBytes
		}
	}
	if err := h.build.Close(); err != nil {
		return err
	}
	h.buildClosed = true
	for _, f := range h.buildFiles {
		if f != nil {
			if err := f.Sync(); err != nil {
				return err
			}
		}
	}
	rep.SegmentDone(h.tag.ProducerSeg)
	// The in-memory part of the hash table is consumed by this segment
	// now; spilled batches are consumed when loaded.
	rep.InputBulk(h.tag.Seg, h.tag.Input, inMemTuples, inMemBytes)
	if !h.spilled {
		rep.InputDone(h.tag.Seg, h.tag.Input)
	}

	return h.probe.Open()
}

func (h *hashJoin) addToTable(t tuple.Tuple, sz int) {
	h.table.insert(t[h.node.BuildKey], t)
	h.tableBytes += float64(sz)
}

// spillBuild appends build tuple t to batch b's temp file (Append copies
// the record, so one encode buffer serves every write).
func (h *hashJoin) spillBuild(b int, t tuple.Tuple) error {
	h.enc = t.Encode(h.enc[:0])
	_, err := h.buildFiles[b].Append(h.enc)
	return err
}

// startSpill switches to multi-batch mode, redistributing the current
// in-memory table so only batch 0 remains resident.
func (h *hashJoin) startSpill() error {
	est := h.node.Build.Est().Bytes()
	mem := h.env.workMemBytes()
	h.nbatch = 2
	if mem > 0 {
		for float64(h.nbatch) < est/mem && h.nbatch < 64 {
			h.nbatch *= 2
		}
	}
	h.spilled = true
	h.buildFiles = make([]*storage.HeapFile, h.nbatch)
	h.probeFiles = make([]*storage.HeapFile, h.nbatch)
	for i := 1; i < h.nbatch; i++ {
		h.buildFiles[i] = h.env.newTempFile()
		h.probeFiles[i] = h.env.newTempFile()
	}
	h.env.Met.SpillPartitions.Add(int64(h.nbatch - 1))
	h.env.Collect.Notef(h.node, "build exceeded work_mem: spilled to %d batches", h.nbatch)
	old := h.table
	h.table = rowTable{}
	h.tableBytes = 0
	for _, t := range old.rows {
		if b := h.batchOf(t[h.node.BuildKey]); b == 0 {
			h.addToTable(t, t.EncodedSize())
		} else if err := h.spillBuild(b, t); err != nil {
			return err
		}
	}
	return nil
}

func (h *hashJoin) batchOf(k tuple.Value) int {
	return int(hashValue(k) % uint64(h.nbatch))
}

// hashValue hashes a join key (FNV-1a over its encoded form).
func hashValue(v tuple.Value) uint64 {
	var buf [16]byte
	enc := v.Encode(buf[:0])
	var h uint64 = 14695981039346656037
	for _, b := range enc {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func (h *hashJoin) Next() (tuple.Tuple, bool, error) {
	rep := h.env.rep()
	for {
		// Drain pending matches first.
		for h.match >= 0 {
			b := h.table.rows[h.match]
			h.match = h.table.next[h.match]
			h.out = joinRow(h.out, b, h.curProbe)
			out := h.out
			h.env.Clock.ChargeCPU(cpuTuple + h.predCost)
			if h.pred != nil {
				pass, err := h.pred(out)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			return out, true, nil
		}

		if !h.probeExhausted {
			t, ok, err := h.probe.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				h.probeExhausted = true
				for _, f := range h.probeFiles {
					if f != nil {
						if err := f.Sync(); err != nil {
							return nil, false, err
						}
					}
				}
				continue
			}
			h.env.Clock.ChargeCPU(cpuHashOp)
			if h.spilled {
				if b := h.batchOf(t[h.node.ProbeKey]); b != 0 {
					// Multi-stage write: counted once now, once on re-read.
					h.enc = t.Encode(h.enc[:0])
					rep.Extra(h.tag.Seg, float64(len(h.enc)))
					if _, err := h.probeFiles[b].Append(h.enc); err != nil {
						return nil, false, err
					}
					continue
				}
			}
			h.curProbe = t
			h.match = h.table.first(t[h.node.ProbeKey])
			continue
		}

		// Spilled-batch processing.
		if !h.spilled {
			return nil, false, nil
		}
		if h.batchScan == nil {
			h.batchIdx++
			if h.batchIdx >= h.nbatch {
				return nil, false, nil
			}
			if err := h.loadBatch(h.batchIdx); err != nil {
				return nil, false, err
			}
			h.batchScan = h.probeFiles[h.batchIdx].NewScanner()
		}
		rec, _, ok := h.batchScan.Next()
		if !ok {
			if err := h.batchScan.Err(); err != nil {
				return nil, false, err
			}
			h.batchScan = nil
			continue
		}
		// Safe point: a spilled probe batch streams from a raw scanner,
		// and one whose rows find no match never returns to a caller that
		// polls.
		if err := h.env.yield(); err != nil {
			return nil, false, err
		}
		t, err := tuple.DecodeInto(h.spillRow, rec, h.probeArity, nil)
		if err != nil {
			return nil, false, err
		}
		h.spillRow = t
		// Multi-stage re-read of a spilled probe tuple.
		rep.Extra(h.tag.Seg, float64(len(rec)))
		h.env.Clock.ChargeCPU(cpuHashOp)
		h.curProbe = t
		h.match = h.table.first(t[h.node.ProbeKey])
	}
}

// loadBatch replaces the in-memory table with spilled build batch b; the
// read is the consumer segment finally consuming that part of the table.
func (h *hashJoin) loadBatch(b int) error {
	h.table.reset()
	h.tableBytes = 0
	sc := h.buildFiles[b].NewScanner()
	rep := h.env.rep()
	for {
		rec, _, ok := sc.Next()
		if !ok {
			break
		}
		// Safe point: reloading a spilled build batch streams from a raw
		// scanner, outside any child Iterator's yield chain (found by
		// progresslint's safepoint analyzer).
		if err := h.env.yield(); err != nil {
			return err
		}
		t, err := tuple.DecodeInto(h.spillRow, rec, h.buildArity, nil)
		if err != nil {
			return err
		}
		h.spillRow = t
		h.env.Clock.ChargeCPU(cpuHashOp)
		rep.InputTuple(h.tag.Seg, h.tag.Input, len(rec))
		h.addToTable(t, len(rec))
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if b == h.nbatch-1 {
		rep.InputDone(h.tag.Seg, h.tag.Input)
	}
	return nil
}

func (h *hashJoin) Close() error {
	var firstErr error
	if !h.buildClosed {
		// Open failed mid-build: the build child (which may itself hold
		// spilled temp files, e.g. a sort) still needs its unwind.
		h.buildClosed = true
		if err := h.build.Close(); err != nil {
			firstErr = err
		}
	}
	if err := h.probe.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	for _, fs := range [][]*storage.HeapFile{h.buildFiles, h.probeFiles} {
		for _, f := range fs {
			if f == nil {
				continue
			}
			if err := f.Drop(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("exec: dropping hash-join temp: %w", err)
			}
		}
	}
	h.buildFiles, h.probeFiles = nil, nil
	h.table = rowTable{}
	return firstErr
}
