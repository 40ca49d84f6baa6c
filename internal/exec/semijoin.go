package exec

import (
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/tuple"
)

// semiJoin executes EXISTS/IN (and NOT EXISTS/NOT IN as anti-joins). The
// inner side is drained at Open into a hash table keyed by the equality
// correlation column (or a plain cache when there is none); each outer
// tuple is emitted when a match exists (anti: does not exist). The inner
// drain terminates the subquery's segment; the outer is this segment's
// dominant input.
type semiJoin struct {
	node     *plan.SemiJoin
	env      *Env
	tag      segment.NodeInfo
	outer    Iterator
	inner    Iterator
	pred     func(tuple.Tuple) (bool, error) // node.ExtraPred compiled, nil if none
	predCost int64

	table rowTable      // keyed path
	slab  rowSlab       // keyless (pure NL) path: cache's rows
	cache []tuple.Tuple // keyless path
	pair  tuple.Tuple   // reused outer×inner row for ExtraPred

	innerOpen   bool
	innerClosed bool
	outerOpen   bool
}

func (j *semiJoin) Open() error {
	if err := j.inner.Open(); err != nil {
		return err
	}
	j.innerOpen = true
	rep := j.env.rep()
	keyed := j.node.OuterKey >= 0
	var tuples int64
	var bytes float64
	for {
		t, ok, err := j.inner.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		sz := t.EncodedSize()
		j.env.Clock.ChargeCPU(cpuHashOp)
		rep.OutputTuple(j.tag.ProducerSeg, sz)
		tuples++
		bytes += float64(sz)
		if keyed {
			k := t[j.node.InnerKey]
			// Without an extra predicate only key presence matters; keep
			// one witness tuple per key.
			if j.node.ExtraPred == nil && j.table.first(k) >= 0 {
				continue
			}
			j.table.insert(k, t)
		} else {
			j.cache = append(j.cache, j.slab.keep(t))
		}
	}
	if err := j.inner.Close(); err != nil {
		return err
	}
	j.innerClosed = true
	j.table.ints.noteLayout(j.env.Collect, j.node)
	rep.SegmentDone(j.tag.ProducerSeg)
	rep.InputBulk(j.tag.Seg, j.tag.Input, tuples, bytes)
	rep.InputDone(j.tag.Seg, j.tag.Input)
	if err := j.outer.Open(); err != nil {
		return err
	}
	j.outerOpen = true
	return nil
}

func (j *semiJoin) Next() (tuple.Tuple, bool, error) {
	for {
		t, ok, err := j.outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.env.Clock.ChargeCPU(cpuHashOp)
		if err := j.env.yield(); err != nil {
			return nil, false, err
		}
		matched, err := j.matches(t)
		if err != nil {
			return nil, false, err
		}
		if matched != j.node.Anti {
			return t, true, nil
		}
	}
}

func (j *semiJoin) matches(outer tuple.Tuple) (bool, error) {
	if j.node.OuterKey < 0 {
		if j.node.ExtraPred == nil {
			return len(j.cache) > 0, nil
		}
		for _, c := range j.cache {
			if pass, err := j.passes(outer, c); err != nil || pass {
				return pass, err
			}
		}
		return false, nil
	}
	i := j.table.first(outer[j.node.OuterKey])
	if j.node.ExtraPred == nil {
		return i >= 0, nil
	}
	for ; i >= 0; i = j.table.next[i] {
		if pass, err := j.passes(outer, j.table.rows[i]); err != nil || pass {
			return pass, err
		}
	}
	return false, nil
}

// passes evaluates ExtraPred over outer×inner.
func (j *semiJoin) passes(outer, inner tuple.Tuple) (bool, error) {
	j.env.Clock.ChargeCPU(j.predCost)
	j.pair = joinRow(j.pair, outer, inner)
	return j.pred(j.pair)
}

func (j *semiJoin) Close() error {
	j.table, j.slab, j.cache = rowTable{}, rowSlab{}, nil
	var firstErr error
	if j.innerOpen && !j.innerClosed {
		// Open failed mid-drain: unwind the inner so any temp files it
		// holds are released.
		j.innerClosed = true
		if err := j.inner.Close(); err != nil {
			firstErr = err
		}
	}
	if j.outerOpen {
		if err := j.outer.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
