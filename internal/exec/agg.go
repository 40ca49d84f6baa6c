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
//
// A group's row is its state: its key columns, then one slot per
// aggregate, accumulated in place (a sum or avg in its Float, a min or
// max as the value) and finalised once the input is drained, when it
// becomes the output row.
type hashAgg struct {
	node  *plan.HashAgg
	env   *Env
	child Iterator
	tag   segment.NodeInfo
	in    *segment.InputCount
	out   *segment.SegCount // the producer segment's count
	counter

	slab   rowSlab
	groups []tuple.Tuple // one row per group, in slab, in first-seen order
	counts []int64       // input rows per group; every aggregate counts them
	idx    int
	done   bool
}

// groupIndex numbers group keys in first-seen order. A single Int group
// column indexes a flat intMap by its int64: a word mixed per row instead
// of a key encoded and its bytes hashed. Every other key goes through the
// encoding of its Canonical form, so Float keys group exactly when
// Compare calls them equal; the two indexes never hold equal keys, since
// Values of different kinds are unequal.
type groupIndex struct {
	ints intMap[int]
	enc  map[string]int // made on the first key that is not an Int
	buf  []byte
}

// lookup returns key's group number and whether it was there; a new key
// is entered as group n.
func (x *groupIndex) lookup(key tuple.Tuple, n int) (int, bool) {
	if len(key) == 1 && key[0].Kind == tuple.Int {
		g, ok := x.ints.put(key[0].I)
		if !ok {
			*g = n
		}
		return *g, ok
	}
	x.buf = x.buf[:0]
	for _, v := range key {
		x.buf = v.Canonical().Encode(x.buf)
	}
	if x.enc == nil {
		x.enc = make(map[string]int)
	}
	g, ok := x.enc[string(x.buf)] // lookup does not copy buf
	if !ok {
		g, x.enc[string(x.buf)] = n, n
	}
	return g, ok
}

func (h *hashAgg) Open() error {
	h.opened(h.env.Clock)
	if err := h.child.Open(); err != nil {
		return err
	}
	nkeys := len(h.node.GroupCols)
	// row is the next new group's row: the key is written per input row,
	// the slots hold their starting values.
	row := make(tuple.Tuple, nkeys+len(h.node.Aggs))
	for i, sp := range h.node.Aggs {
		if sp.Kind == plan.AggSum || sp.Kind == plan.AggAvg {
			row[nkeys+i] = tuple.NewFloat(0)
		}
	}
	var index groupIndex
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
			row[i] = t[c]
		}
		g, seen := index.lookup(row[:nkeys], len(h.groups))
		if !seen {
			h.groups = append(h.groups, h.slab.keep(row))
			h.counts = append(h.counts, 0)
		}
		h.counts[g]++
		first := h.counts[g] == 1
		slots := h.groups[g][nkeys:]
		for i, sp := range h.node.Aggs {
			var v tuple.Value
			if sp.Col >= 0 {
				v = t[sp.Col]
			}
			switch sp.Kind {
			case plan.AggCount:
				// counted in counts
			case plan.AggSum, plan.AggAvg:
				slots[i] = tuple.NewFloat(slots[i].F() + v.AsFloat())
			case plan.AggMin, plan.AggMax:
				if first {
					slots[i] = v
					continue
				}
				c, err := v.Compare(slots[i])
				if err != nil {
					return err
				}
				if (sp.Kind == plan.AggMin && c < 0) || (sp.Kind == plan.AggMax && c > 0) {
					slots[i] = v
				}
			default:
				return fmt.Errorf("exec: unknown aggregate %q", sp.Kind)
			}
		}
	}
	if err := h.child.Close(); err != nil {
		return err
	}
	index.ints.noteLayout(h.env.Collect, h.node)

	for g, out := range h.groups {
		slots := out[nkeys:]
		for i, sp := range h.node.Aggs {
			switch sp.Kind {
			case plan.AggCount:
				slots[i] = tuple.NewInt(h.counts[g])
			case plan.AggAvg:
				slots[i] = tuple.NewFloat(slots[i].F() / float64(h.counts[g]))
			}
		}
		h.env.Clock.ChargeCPU(cpuTuple)
		h.env.countOut(h.out, h.tag.ProducerSeg, out.EncodedSize())
	}
	h.env.rep().SegmentDone(h.tag.ProducerSeg)
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
	sz := t.EncodedSize()
	h.env.countIn(h.in, h.tag, sz)
	h.emitBytes(sz)
	return t, true, nil
}

func (h *hashAgg) Close() error {
	h.closed(h.env.Clock)
	h.groups, h.counts, h.slab = nil, nil, rowSlab{}
	return h.child.Close()
}

// limitIter passes through at most N rows.
type limitIter struct {
	node  *plan.Limit
	env   *Env
	child Iterator
	n     int64
	counter
}

func (l *limitIter) Open() error {
	l.opened(l.env.Clock)
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
	l.emit(t)
	return t, true, nil
}

func (l *limitIter) Close() error {
	l.closed(l.env.Clock)
	return l.child.Close()
}
