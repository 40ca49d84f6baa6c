package exec

import (
	"cmp"
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
// A run sorts one sortKey per row, ordered by its encoded first key, then
// the other keys, then the input position: a total order, and the
// permutation a stable sort by the keys gives.
type sortIter struct {
	node  *plan.Sort
	env   *Env
	child Iterator
	tag   segment.NodeInfo
	in    *segment.InputCount
	out   *segment.SegCount // the producer segment's count
	counter

	slab rowSlab       // the run being formed: child rows are copied here
	rows []tuple.Tuple // the run's rows, in input order
	keys []sortKey     // one per row of rows; in sorted order once sorted
	runs []*storage.HeapFile
	enc  []byte // reused run-write buffer (HeapFile.Append copies)

	// kind is the first row's first-key Kind; typed reports that every
	// first key so far has it and it is numeric, so firstKey encodes it.
	kind  tuple.Type
	typed bool

	memIdx    int
	merge     *runMerger
	arity     int
	inputDone bool
}

// sortKey stands for rows[idx] in a run being sorted; size is the row's
// encoded size.
type sortKey struct {
	k    uint64
	idx  int32
	size int32
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
	s.opened(s.env.Clock)
	s.arity = s.node.Schema().Arity()
	if err := s.child.Open(); err != nil {
		return err
	}
	memLimit := s.env.workMemBytes()
	firstCol := s.node.Keys[0].Col

	bufBytes := 0.0
	flush := func() error {
		if len(s.rows) == 0 {
			return nil
		}
		if err := s.sortRun(); err != nil {
			return err
		}
		f := s.env.newTempFile()
		s.runs = append(s.runs, f) // Close drops it even if a write fails
		for _, k := range s.keys {
			s.enc = s.rows[k.idx].Encode(s.enc[:0])
			if _, err := f.Append(s.enc); err != nil {
				return err
			}
		}
		if err := f.Sync(); err != nil {
			return err
		}
		s.env.Met.SortRuns.Inc()
		s.rows, s.keys, bufBytes = s.rows[:0], s.keys[:0], 0
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
		s.env.countOut(s.out, s.tag.ProducerSeg, sz)
		if kind := t[firstCol].Kind; len(s.keys) == 0 && len(s.runs) == 0 {
			s.kind, s.typed = kind, kind != tuple.String
		} else if kind != s.kind {
			s.typed = false
		}
		s.keys = append(s.keys, sortKey{idx: int32(len(s.rows)), size: int32(sz)})
		s.rows = append(s.rows, s.slab.keep(t))
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
		if err := s.sortRun(); err != nil {
			return err
		}
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
	s.env.rep().SegmentDone(s.tag.ProducerSeg)
	return nil
}

// sortRun sorts the run's keys, charging ~n·log2(n) CPU.
func (s *sortIter) sortRun() error {
	if n := len(s.keys); n > 1 {
		s.env.Clock.Charge(vclock.CPU, float64(n)*math.Log2(float64(n)))
	}
	for i := range s.keys {
		s.keys[i].k = s.firstKey(s.rows[s.keys[i].idx])
	}
	var sortErr error
	slices.SortFunc(s.keys, func(a, b sortKey) int {
		if a.k != b.k {
			return cmp.Compare(a.k, b.k)
		}
		c, err := s.compare(s.rows[a.idx], s.rows[b.idx])
		if err != nil && sortErr == nil {
			sortErr = err
		}
		if c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	return sortErr
}

// firstKey encodes t's first sort key as an integer whose order is
// Compare's (reversed for DESC): an Int with its sign bit flipped, a
// Float by its IEEE bits made sign-magnitude, with −0 as +0 and every
// NaN 0, below every number. When the first key is not one numeric kind
// throughout, it is 0 for every row and compare starts at the first key.
func (s *sortIter) firstKey(t tuple.Tuple) uint64 {
	if !s.typed {
		return 0
	}
	key := s.node.Keys[0]
	v := t[key.Col]
	k := uint64(v.I) ^ 1<<63
	if s.kind == tuple.Float {
		switch f := v.F(); {
		case f != f:
			k = 0
		case f == 0:
			k = 1 << 63
		case v.I < 0: // a negative number: its magnitude reversed
			k = ^uint64(v.I)
		}
	}
	if key.Desc {
		k = ^k
	}
	return k
}

// compare orders two rows whose first keys firstKey encoded the same:
// by the keys it did not encode.
func (s *sortIter) compare(a, b tuple.Tuple) (int, error) {
	keys := s.node.Keys
	if s.typed {
		keys = keys[1:] // equal encodings are equal first keys
	}
	for _, k := range keys {
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
// charging each moved byte twice (read + write) as multi-stage Extra. A
// pass decodes only the sort keys, each at its own column, and appends
// the winner's record as it was read: the runs it writes hold the bytes
// an Encode of the decoded row would.
func (s *sortIter) intermediateMerges() error {
	fanin := s.env.WorkMemPages - 1
	if fanin < 2 {
		fanin = 2
	}
	keys := unplaced(s.arity)
	for _, k := range s.node.Keys {
		keys[k.Col] = k.Col
	}
	for len(s.runs) > fanin {
		group := s.runs[:fanin]
		rest := s.runs[fanin:]
		s.env.Met.MergePasses.Inc()
		s.env.Collect.Notef(s.node, "intermediate merge: %d runs -> 1", len(group))
		m, err := newRunMerger(s, group, keys)
		if err != nil {
			return err
		}
		out := s.env.newTempFile()
		mergeErr := func() error {
			for {
				_, rec, ok, err := m.next()
				if err != nil {
					return err
				}
				if !ok {
					return out.Sync()
				}
				// Safe point: intermediate merges re-stream every spilled
				// byte without touching a child Iterator, so a cancel
				// mid-merge would otherwise go unseen until all passes
				// finish (TestUnwindSweep's cancel bound checks it).
				if err := s.env.yield(); err != nil {
					return err
				}
				s.env.Clock.ChargeCPU(cpuTuple * 2)
				s.env.countExtra(s.out, s.tag.ProducerSeg, 2*len(rec))
				if _, err := out.Append(rec); err != nil {
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
	if len(s.runs) == 0 {
		if s.memIdx >= len(s.keys) {
			s.finishInput()
			return nil, false, nil
		}
		k := s.keys[s.memIdx]
		s.memIdx++
		s.env.Clock.ChargeCPU(cpuTuple)
		s.env.countIn(s.in, s.tag, int(k.size))
		s.emitBytes(int(k.size))
		return s.rows[k.idx], true, nil
	}
	if s.merge == nil {
		m, err := newRunMerger(s, s.runs, nil)
		if err != nil {
			return nil, false, err
		}
		s.merge = m
	}
	t, rec, ok, err := s.merge.next()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		s.finishInput()
		return nil, false, nil
	}
	s.env.Clock.Charge(vclock.CPU, float64(cpuTuple)+math.Log2(float64(len(s.runs))+1))
	s.env.countIn(s.in, s.tag, len(rec))
	s.emitBytes(len(rec))
	return t, true, nil
}

func (s *sortIter) Close() error {
	s.closed(s.env.Clock)
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
	s.rows, s.keys, s.slab = nil, nil, rowSlab{}
	return firstErr
}

// runMerger streams the k-way merge of sorted runs. k is bounded by the
// merge fan-in, so a linear minimum scan per tuple is fine; of equal
// heads the earlier run's wins, as runs hold the input in order. Each run
// reads its head into its own spillReader, beside the head's firstKey;
// next copies the winner into out before moving its run on, so the tuple
// it returns is valid until the following next. The record it returns
// lies in a page image, which the pool never writes in place.
type runMerger struct {
	s     *sortIter
	runs  []spillReader // a drained run's sc is nil
	heads []uint64      // heads[i] is runs[i].row's firstKey
	out   tuple.Tuple
}

// newRunMerger merges runs, decoding their rows in the layout lay (nil:
// the whole row).
func newRunMerger(s *sortIter, runs []*storage.HeapFile, lay []int) (*runMerger, error) {
	m := &runMerger{s: s, runs: make([]spillReader, len(runs)), heads: make([]uint64, len(runs))}
	for i, f := range runs {
		m.runs[i].open(f, s.arity, lay)
		if err := m.advance(i); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *runMerger) advance(i int) error {
	r := &m.runs[i]
	ok, err := r.next()
	if ok {
		m.heads[i] = m.s.firstKey(r.row)
	}
	return err
}

// next returns the least head and its record.
func (m *runMerger) next() (tuple.Tuple, []byte, bool, error) {
	best := -1
	for i := range m.runs {
		if m.runs[i].sc == nil {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		c := cmp.Compare(m.heads[i], m.heads[best])
		if c == 0 {
			var err error
			if c, err = m.s.compare(m.runs[i].row, m.runs[best].row); err != nil {
				return nil, nil, false, err
			}
		}
		if c < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, nil, false, nil
	}
	m.out = append(m.out[:0], m.runs[best].row...)
	rec := m.runs[best].rec
	if err := m.advance(best); err != nil {
		return nil, nil, false, err
	}
	return m.out, rec, true, nil
}
