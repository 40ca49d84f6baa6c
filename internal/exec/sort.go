package exec

import (
	"math"
	"slices"

	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// sortIter is an external merge sort. Run formation (and any intermediate
// merge passes) happens at Open and belongs to the producer segment,
// which it terminates — the paper's Figure 3, where S3/S4 sort their
// outputs "into multiple sorted runs" consumed by S5. The final merge
// streams tuples to the consumer, reported as consumer-segment input.
type sortIter struct {
	node  *plan.Sort
	env   *Env
	child Iterator
	tag   segment.NodeInfo

	slab rowSlab       // the run being formed: child rows are copied here
	mem  []tuple.Tuple // single in-memory run when nothing spilled
	runs []*storage.HeapFile
	enc  []byte // reused run-write buffer (HeapFile.Append copies)

	memIdx    int
	merge     *runMerger
	arity     int
	inputDone bool
}

// finishInput marks the sorted stream fully consumed by the parent
// segment.
func (s *sortIter) finishInput() {
	if !s.inputDone {
		s.inputDone = true
		s.env.rep().InputDone(s.tag.Seg, s.tag.Input)
	}
}

func (s *sortIter) Open() error {
	s.arity = s.node.Schema().Arity()
	if err := s.child.Open(); err != nil {
		return err
	}
	rep := s.env.rep()
	memLimit := s.env.workMemBytes()

	var buf []tuple.Tuple
	bufBytes := 0.0
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := s.sortTuples(buf); err != nil {
			return err
		}
		f := s.env.newTempFile()
		s.runs = append(s.runs, f) // Close drops it even if a write fails
		for _, t := range buf {
			s.enc = t.Encode(s.enc[:0])
			if _, err := f.Append(s.enc); err != nil {
				return err
			}
		}
		if err := f.Sync(); err != nil {
			return err
		}
		s.env.Met.SortRuns.Inc()
		buf, bufBytes = buf[:0], 0
		s.slab.reset()
		return nil
	}

	for {
		t, ok, err := s.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		sz := t.EncodedSize()
		s.env.Clock.ChargeCPU(cpuTuple)
		rep.OutputTuple(s.tag.ProducerSeg, sz)
		buf = append(buf, s.slab.keep(t))
		bufBytes += float64(sz)
		if memLimit > 0 && bufBytes >= memLimit {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := s.child.Close(); err != nil {
		return err
	}

	if len(s.runs) == 0 {
		// Everything fit: keep the single run in memory.
		if err := s.sortTuples(buf); err != nil {
			return err
		}
		s.mem = buf
	} else {
		if err := flush(); err != nil {
			return err
		}
		spilled := len(s.runs)
		if err := s.intermediateMerges(); err != nil {
			return err
		}
		s.env.Collect.Notef(s.node, "external sort: %d run(s) spilled", spilled)
	}
	rep.SegmentDone(s.tag.ProducerSeg)
	return nil
}

// sortTuples sorts in place by the sort keys, charging ~n·log2(n) CPU.
func (s *sortIter) sortTuples(ts []tuple.Tuple) error {
	if len(ts) > 1 {
		s.env.Clock.Charge(vclock.CPU, float64(len(ts))*math.Log2(float64(len(ts))))
	}
	var sortErr error
	slices.SortStableFunc(ts, func(a, b tuple.Tuple) int {
		c, err := s.compare(a, b)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c
	})
	return sortErr
}

func (s *sortIter) compare(a, b tuple.Tuple) (int, error) {
	for _, k := range s.node.Keys {
		c, err := a[k.Col].Compare(b[k.Col])
		if err != nil {
			return 0, err
		}
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c, nil
		}
	}
	return 0, nil
}

// intermediateMerges reduces the run count below the merge fan-in,
// charging each moved byte twice (read + write) as multi-stage Extra.
func (s *sortIter) intermediateMerges() error {
	fanin := s.env.WorkMemPages - 1
	if fanin < 2 {
		fanin = 2
	}
	rep := s.env.rep()
	for len(s.runs) > fanin {
		group := s.runs[:fanin]
		rest := s.runs[fanin:]
		s.env.Met.MergePasses.Inc()
		s.env.Collect.Notef(s.node, "intermediate merge: %d runs -> 1", len(group))
		m, err := newRunMerger(s, group)
		if err != nil {
			return err
		}
		out := s.env.newTempFile()
		mergeErr := func() error {
			for {
				t, ok, err := m.next()
				if err != nil {
					return err
				}
				if !ok {
					return out.Sync()
				}
				// Safe point: intermediate merges re-stream every spilled
				// byte without touching a child Iterator, so a cancel
				// mid-merge would otherwise go unseen until all passes
				// finish (found by progresslint's safepoint analyzer).
				if err := s.env.yield(); err != nil {
					return err
				}
				sz := t.EncodedSize()
				s.env.Clock.ChargeCPU(cpuTuple * 2)
				rep.Extra(s.tag.ProducerSeg, 2*float64(sz))
				s.enc = t.Encode(s.enc[:0])
				if _, err := out.Append(s.enc); err != nil {
					return err
				}
			}
		}()
		if mergeErr != nil {
			out.Drop() // best effort; the original error wins
			return mergeErr
		}
		for _, f := range group {
			if err := f.Drop(); err != nil {
				return err
			}
		}
		s.runs = append(rest, out)
	}
	return nil
}

func (s *sortIter) Next() (tuple.Tuple, bool, error) {
	rep := s.env.rep()
	if s.mem != nil {
		if s.memIdx >= len(s.mem) {
			s.finishInput()
			return nil, false, nil
		}
		t := s.mem[s.memIdx]
		s.memIdx++
		s.env.Clock.ChargeCPU(cpuTuple)
		rep.InputTuple(s.tag.Seg, s.tag.Input, t.EncodedSize())
		return t, true, nil
	}
	if s.merge == nil {
		m, err := newRunMerger(s, s.runs)
		if err != nil {
			return nil, false, err
		}
		s.merge = m
	}
	t, ok, err := s.merge.next()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		s.finishInput()
		return nil, false, nil
	}
	s.env.Clock.Charge(vclock.CPU, float64(cpuTuple)+math.Log2(float64(len(s.runs))+1))
	rep.InputTuple(s.tag.Seg, s.tag.Input, t.EncodedSize())
	return t, true, nil
}

func (s *sortIter) Close() error {
	firstErr := s.child.Close()
	disk := s.env.Pool.Disk()
	for _, f := range s.runs {
		if !disk.Exists(f.ID()) {
			continue // already dropped by a failed intermediate merge
		}
		if err := f.Drop(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.runs = nil
	s.mem, s.slab = nil, rowSlab{}
	return firstErr
}

// runMerger streams the k-way merge of sorted runs. k is bounded by the
// merge fan-in, so a linear minimum scan per tuple is fine. Each run
// decodes into its own reused head slot; next copies the winner into out
// before refilling that slot, so the tuple it returns is valid until the
// following next.
type runMerger struct {
	s     *sortIter
	scans []*storage.Scanner
	slots []tuple.Tuple
	live  []bool // slots[i] holds run i's current head
	out   tuple.Tuple
}

func newRunMerger(s *sortIter, runs []*storage.HeapFile) (*runMerger, error) {
	m := &runMerger{s: s}
	for _, f := range runs {
		m.scans = append(m.scans, f.NewScanner())
	}
	m.slots = make([]tuple.Tuple, len(runs))
	m.live = make([]bool, len(runs))
	for i := range m.scans {
		if err := m.advance(i); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *runMerger) advance(i int) error {
	rec, _, ok := m.scans[i].Next()
	if !ok {
		m.live[i] = false
		return m.scans[i].Err()
	}
	t, err := tuple.DecodeInto(m.slots[i], rec, m.s.arity, nil)
	if err != nil {
		return err
	}
	m.slots[i], m.live[i] = t, true
	return nil
}

func (m *runMerger) next() (tuple.Tuple, bool, error) {
	best := -1
	for i, h := range m.slots {
		if !m.live[i] {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		c, err := m.s.compare(h, m.slots[best])
		if err != nil {
			return nil, false, err
		}
		if c < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	m.out = append(m.out[:0], m.slots[best]...)
	if err := m.advance(best); err != nil {
		return nil, false, err
	}
	return m.out, true, nil
}
