package exec

import (
	"progressdb/internal/btree"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
)

// seqScan reads a base relation front to back. Each tuple read is a
// segment-input event; physical page I/O is charged by the heap scanner
// through the buffer pool.
type seqScan struct {
	node *plan.SeqScan
	env  *Env
	tag  segment.NodeInfo
	scanSlot
	sc   *storage.Scanner
	done bool
}

// scanSlot is the reused row a base-table scan decodes into. need is the
// set of columns the plan reads above the scan (nil = all); the others
// stay zero Values. recLen is the encoded size of the record last
// decoded — the size of the row the slot stands for, pruned or not.
type scanSlot struct {
	need   []bool
	slot   tuple.Tuple
	recLen int
}

func (s *scanSlot) decode(rec []byte, arity int) (tuple.Tuple, error) {
	row, err := tuple.DecodeInto(s.slot, rec, arity, s.need)
	if err != nil {
		return nil, err
	}
	s.slot, s.recLen = row, len(rec)
	return row, nil
}

func (s *scanSlot) lastRowBytes() int { return s.recLen }

func (s *seqScan) Open() error {
	s.sc = s.env.newBaseScanner(s.node.Table.Heap)
	s.done = false
	return nil
}

func (s *seqScan) Next() (tuple.Tuple, bool, error) {
	rec, _, ok := s.sc.Next()
	if !ok {
		if err := s.sc.Err(); err != nil {
			return nil, false, err
		}
		if !s.done {
			s.done = true
			s.env.rep().InputDone(s.tag.Seg, s.tag.Input)
		}
		return nil, false, nil
	}
	row, err := s.decode(rec, s.node.Table.Schema.Arity())
	if err != nil {
		return nil, false, err
	}
	s.env.Clock.ChargeCPU(cpuTuple)
	s.env.rep().InputTuple(s.tag.Seg, s.tag.Input, len(rec))
	if err := s.env.yield(); err != nil {
		return nil, false, err
	}
	return row, true, nil
}

func (s *seqScan) Close() error {
	if s.sc != nil {
		s.sc.Close()
	}
	return nil
}

// indexScan walks a B+-tree range and fetches matching heap tuples. Tree
// and heap page I/O are charged through the buffer pool; heap fetches are
// typically random.
type indexScan struct {
	node *plan.IndexScan
	env  *Env
	tag  segment.NodeInfo
	scanSlot
	it   *btree.Iterator
	done bool
}

func (s *indexScan) finish() {
	if !s.done {
		s.done = true
		s.env.rep().InputDone(s.tag.Seg, s.tag.Input)
	}
}

func (s *indexScan) Open() error {
	lo := int64(-1 << 63)
	if s.node.Lo != nil {
		lo = *s.node.Lo
	}
	it, err := s.node.Index.Tree.SeekGEOn(s.env.Clock, lo)
	if err != nil {
		return err
	}
	s.it = it
	s.done = false
	return nil
}

func (s *indexScan) Next() (tuple.Tuple, bool, error) {
	for {
		e, ok, err := s.it.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.finish()
			return nil, false, nil
		}
		if s.node.Hi != nil && e.Key > *s.node.Hi {
			s.finish()
			return nil, false, nil
		}
		rec, err := s.node.Table.Heap.FetchOn(s.env.Clock, e.RID)
		if err != nil {
			return nil, false, err
		}
		row, err := s.decode(rec, s.node.Table.Schema.Arity())
		if err != nil {
			return nil, false, err
		}
		s.env.Clock.ChargeCPU(cpuTuple + 1)
		s.env.rep().InputTuple(s.tag.Seg, s.tag.Input, len(rec))
		if err := s.env.yield(); err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
}

func (s *indexScan) Close() error { return nil }
