package exec

import (
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/tuple"
)

// nlJoin is a nested-loops join. The inner is read once through its own
// iterator (which reports its first-pass input bytes) and cached; each
// further outer tuple replays the cache, reported as one bulk input pass
// — the paper's "bytes counted once each time they are logically read"
// rule for multi-pass leaf operators. The replay is CPU work only, like a
// buffer-pool-resident inner in a real system.
type nlJoin struct {
	node     *plan.NLJoin
	env      *Env
	outer    Iterator
	inner    Iterator
	innerTag segment.NodeInfo
	pred     func(tuple.Tuple) (bool, error) // node.Pred compiled, nil if none
	predCost float64

	slab       rowSlab
	cache      []tuple.Tuple // inner rows, copied into slab
	cacheBytes float64
	firstPass  bool
	curOuter   tuple.Tuple
	innerIdx   int
	// out is the reused output row outer‖inner. Its outer half is written
	// once per outer row and only the inner half per pair, which holds
	// because no consumer writes to a row it was handed (rows.go). The
	// other joins keep joinRow: an equijoin probe here matches one build
	// row, so the half that changes is the whole row.
	out tuple.Tuple
}

func (j *nlJoin) Open() error {
	if err := j.outer.Open(); err != nil {
		return err
	}
	if err := j.inner.Open(); err != nil {
		return err
	}
	j.firstPass = true
	j.curOuter = nil
	return nil
}

func (j *nlJoin) Next() (tuple.Tuple, bool, error) {
	for {
		if j.curOuter == nil {
			t, ok, err := j.outer.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			j.curOuter = t
			j.innerIdx = 0
			j.out = append(j.out[:0], t...)
			if !j.firstPass {
				// One full logical pass over the cached inner.
				j.env.rep().InputRepeat(j.innerTag.Seg, j.innerTag.Input,
					int64(len(j.cache)), j.cacheBytes)
			}
		}

		var innerTuple tuple.Tuple
		if j.firstPass {
			t, ok, err := j.inner.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				// Inner exhausted: first outer tuple done.
				j.firstPass = false
				j.curOuter = nil
				continue
			}
			j.cache = append(j.cache, j.slab.keep(t))
			j.cacheBytes += float64(t.EncodedSize())
			innerTuple = t
		} else {
			if j.innerIdx >= len(j.cache) {
				j.curOuter = nil
				continue
			}
			innerTuple = j.cache[j.innerIdx]
			j.innerIdx++
		}

		j.out = append(j.out[:len(j.curOuter)], innerTuple...)
		out := j.out
		j.env.Clock.ChargeCPU(cpuPairBase + j.predCost)
		if err := j.env.yield(); err != nil {
			return nil, false, err
		}
		if j.pred != nil {
			pass, err := j.pred(out)
			if err != nil {
				return nil, false, err
			}
			if !pass {
				continue
			}
		}
		return out, true, nil
	}
}

func (j *nlJoin) Close() error {
	err1 := j.outer.Close()
	err2 := j.inner.Close()
	j.cache, j.slab = nil, rowSlab{}
	if err1 != nil {
		return err1
	}
	return err2
}

// materialize drains its child at Open (terminating the child's segment)
// and streams the buffered tuples once, reporting each as a consumer
// input read.
type materialize struct {
	env   *Env
	child Iterator
	tag   segment.NodeInfo

	slab        rowSlab
	buf         []tuple.Tuple // child rows, copied into slab
	idx         int
	inputDone   bool
	childOpen   bool
	childClosed bool
}

func (m *materialize) Open() error {
	if err := m.child.Open(); err != nil {
		return err
	}
	m.childOpen = true
	rep := m.env.rep()
	for {
		t, ok, err := m.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		m.env.Clock.ChargeCPU(cpuTuple)
		rep.OutputTuple(m.tag.ProducerSeg, t.EncodedSize())
		m.buf = append(m.buf, m.slab.keep(t))
	}
	if err := m.child.Close(); err != nil {
		return err
	}
	m.childClosed = true
	rep.SegmentDone(m.tag.ProducerSeg)
	m.idx = 0
	return nil
}

func (m *materialize) Next() (tuple.Tuple, bool, error) {
	if m.idx >= len(m.buf) {
		if !m.inputDone {
			m.inputDone = true
			m.env.rep().InputDone(m.tag.Seg, m.tag.Input)
		}
		return nil, false, nil
	}
	t := m.buf[m.idx]
	m.idx++
	m.env.Clock.ChargeCPU(cpuTuple)
	m.env.rep().InputTuple(m.tag.Seg, m.tag.Input, t.EncodedSize())
	return t, true, nil
}

func (m *materialize) Close() error {
	m.buf, m.slab = nil, rowSlab{}
	if m.childOpen && !m.childClosed {
		// Open failed mid-drain: unwind the child so any temp files it
		// holds are released.
		m.childClosed = true
		return m.child.Close()
	}
	return nil
}
