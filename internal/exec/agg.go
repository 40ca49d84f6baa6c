package exec

import (
	"fmt"

	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/tuple"
)

// hashAgg groups its input in an in-memory table. Like every blocking
// operator it terminates its segment: the drain happens at Open, each
// result group is a segment-output tuple, and the consumer's reads are
// segment-input tuples.
type hashAgg struct {
	node  *plan.HashAgg
	env   *Env
	child Iterator
	tag   segment.NodeInfo

	slab        rowSlab
	groups      []tuple.Tuple // result rows, in slab
	idx         int
	done        bool
	childOpen   bool
	childClosed bool
}

// aggState accumulates one aggregate of one group.
type aggState struct {
	count  int64   // rows seen (for count/avg)
	sum    float64 // running sum
	minmax tuple.Value
	seen   bool
}

// groupIndex numbers group keys in first-seen order. A single Int group
// column is indexed by its int64: a word hashed per row instead of a key
// encoded and its bytes hashed. Every other key goes through its
// encoding; the two maps never hold equal keys, since Values of different
// kinds are unequal.
type groupIndex struct {
	ints map[int64]int
	enc  map[string]int
	buf  []byte
}

// lookup returns key's group number and whether it was there; a new key
// is entered as group n.
func (x *groupIndex) lookup(key tuple.Tuple, n int) (int, bool) {
	if len(key) == 1 && key[0].Kind == tuple.Int {
		g, ok := x.ints[key[0].I]
		if !ok {
			g, x.ints[key[0].I] = n, n
		}
		return g, ok
	}
	x.buf = key.Encode(x.buf[:0])
	g, ok := x.enc[string(x.buf)] // lookup does not copy buf
	if !ok {
		g, x.enc[string(x.buf)] = n, n
	}
	return g, ok
}

func (h *hashAgg) Open() error {
	if err := h.child.Open(); err != nil {
		return err
	}
	h.childOpen = true
	naggs := len(h.node.Aggs)
	// Groups are numbered in first-seen order, which is the output order;
	// group g's key is keys[g] and its accumulators are
	// states[g*naggs : (g+1)*naggs].
	index := groupIndex{ints: make(map[int64]int), enc: make(map[string]int)}
	var keys []tuple.Tuple
	var states []aggState
	keyVals := make(tuple.Tuple, len(h.node.GroupCols))
	for {
		t, ok, err := h.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		h.env.Clock.ChargeCPU(cpuHashOp)
		for i, c := range h.node.GroupCols {
			keyVals[i] = t[c]
		}
		g, seen := index.lookup(keyVals, len(keys))
		if !seen {
			keys = append(keys, h.slab.keep(keyVals))
			states = append(states, make([]aggState, naggs)...)
		}
		for i, sp := range h.node.Aggs {
			var v tuple.Value
			if sp.Col >= 0 {
				v = t[sp.Col]
			}
			acc := &states[g*naggs+i]
			acc.count++
			switch sp.Kind {
			case plan.AggCount:
				// count already incremented
			case plan.AggSum, plan.AggAvg:
				acc.sum += v.AsFloat()
			case plan.AggMin, plan.AggMax:
				if !acc.seen {
					acc.minmax = v
					acc.seen = true
					continue
				}
				c, err := v.Compare(acc.minmax)
				if err != nil {
					return err
				}
				if (sp.Kind == plan.AggMin && c < 0) || (sp.Kind == plan.AggMax && c > 0) {
					acc.minmax = v
				}
			default:
				return fmt.Errorf("exec: unknown aggregate %q", sp.Kind)
			}
		}
	}
	if err := h.child.Close(); err != nil {
		return err
	}
	h.childClosed = true

	rep := h.env.rep()
	out := make(tuple.Tuple, 0, len(h.node.GroupCols)+naggs)
	for g, key := range keys {
		out = append(out[:0], key...)
		for i, sp := range h.node.Aggs {
			acc := &states[g*naggs+i]
			switch sp.Kind {
			case plan.AggCount:
				out = append(out, tuple.NewInt(acc.count))
			case plan.AggSum:
				out = append(out, tuple.NewFloat(acc.sum))
			case plan.AggAvg:
				out = append(out, tuple.NewFloat(acc.sum/float64(acc.count)))
			case plan.AggMin, plan.AggMax:
				out = append(out, acc.minmax)
			}
		}
		h.env.Clock.ChargeCPU(cpuTuple)
		rep.OutputTuple(h.tag.ProducerSeg, out.EncodedSize())
		h.groups = append(h.groups, h.slab.keep(out))
	}
	rep.SegmentDone(h.tag.ProducerSeg)
	h.idx = 0
	return nil
}

func (h *hashAgg) Next() (tuple.Tuple, bool, error) {
	if h.idx >= len(h.groups) {
		if !h.done {
			h.done = true
			h.env.rep().InputDone(h.tag.Seg, h.tag.Input)
		}
		return nil, false, nil
	}
	t := h.groups[h.idx]
	h.idx++
	h.env.Clock.ChargeCPU(cpuTuple)
	h.env.rep().InputTuple(h.tag.Seg, h.tag.Input, t.EncodedSize())
	return t, true, nil
}

func (h *hashAgg) Close() error {
	h.groups, h.slab = nil, rowSlab{}
	if h.childOpen && !h.childClosed {
		// Open failed mid-drain: unwind the child so any temp files it
		// holds (spilled sorts, joins) are released.
		h.childClosed = true
		return h.child.Close()
	}
	return nil
}

// limitIter passes through at most N rows.
type limitIter struct {
	node  *plan.Limit
	env   *Env
	child Iterator
	n     int64
}

func (l *limitIter) Open() error {
	l.n = 0
	return l.child.Open()
}

func (l *limitIter) Next() (tuple.Tuple, bool, error) {
	if l.n >= l.node.N {
		return nil, false, nil
	}
	t, ok, err := l.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.n++
	return t, true, nil
}

func (l *limitIter) Close() error { return l.child.Close() }
