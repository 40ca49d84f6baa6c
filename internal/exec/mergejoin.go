package exec

import (
	"progressdb/internal/plan"
	"progressdb/internal/tuple"
)

// mergeJoin joins two inputs sorted on their join keys. It buffers each
// group of equal-keyed right tuples and replays it for every left tuple
// with the same key. Both inputs are dominant inputs of the enclosing
// segment: execution ends as soon as either side is exhausted, which is
// exactly why the paper uses p = max(qA, qB) for this operator.
type mergeJoin struct {
	node    *plan.MergeJoin
	env     *Env
	left    Iterator
	right   Iterator
	joinOut // output row: left ++ right, in the parent's layout
	counter

	lTuple tuple.Tuple
	rTuple tuple.Tuple // lookahead past the current group
	lOk    bool
	rOk    bool

	slab     rowSlab
	group    []tuple.Tuple // right rows of the current key, copied into slab
	haveKey  bool
	groupKey tuple.Value
	gIdx     int
}

func (m *mergeJoin) Open() error {
	m.opened(m.env.Clock)
	if err := m.left.Open(); err != nil {
		return err
	}
	if err := m.right.Open(); err != nil {
		return err
	}
	var err error
	if m.lTuple, m.lOk, err = m.left.Next(); err != nil {
		return err
	}
	if m.rTuple, m.rOk, err = m.right.Next(); err != nil {
		return err
	}
	return nil
}

func (m *mergeJoin) Next() (tuple.Tuple, bool, error) {
	for {
		// Emit pending (left × group) pairs.
		for m.haveKey && m.lOk && m.gIdx < len(m.group) {
			m.setLeft(m.lTuple)
			m.setRight(m.group[m.gIdx])
			m.gIdx++
			m.env.Clock.ChargeCPU(cpuTuple + m.predCost)
			if m.pred != nil {
				pass, err := m.pred(m.row)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			m.emitPair(&m.joinOut)
			return m.row, true, nil
		}

		if m.haveKey && m.lOk {
			// Current left tuple exhausted the group; advance left and
			// see if it still matches the group key.
			var err error
			if m.lTuple, m.lOk, err = m.left.Next(); err != nil {
				return nil, false, err
			}
			if m.lOk {
				m.env.Clock.ChargeCPU(cpuTuple)
				c, err := m.lTuple[m.node.LeftKey].Compare(m.groupKey)
				if err != nil {
					return nil, false, err
				}
				if c == 0 {
					m.gIdx = 0
					continue
				}
			}
			m.haveKey = false
			m.group = m.group[:0]
			continue
		}

		if !m.lOk || !m.rOk {
			return nil, false, nil
		}

		// Align keys.
		c, err := m.lTuple[m.node.LeftKey].Compare(m.rTuple[m.node.RightKey])
		if err != nil {
			return nil, false, err
		}
		m.env.Clock.ChargeCPU(cpuTuple)
		switch {
		case c < 0:
			if m.lTuple, m.lOk, err = m.left.Next(); err != nil {
				return nil, false, err
			}
		case c > 0:
			if m.rTuple, m.rOk, err = m.right.Next(); err != nil {
				return nil, false, err
			}
		default:
			// Collect the full right group for this key.
			m.groupKey = m.rTuple[m.node.RightKey]
			m.haveKey = true
			m.group = m.group[:0]
			m.slab.reset()
			m.gIdx = 0
			for m.rOk {
				cc, err := m.rTuple[m.node.RightKey].Compare(m.groupKey)
				if err != nil {
					return nil, false, err
				}
				if cc != 0 {
					break
				}
				m.group = append(m.group, m.slab.keep(m.rTuple))
				if m.rTuple, m.rOk, err = m.right.Next(); err != nil {
					return nil, false, err
				}
				m.env.Clock.ChargeCPU(cpuTuple)
			}
		}
	}
}

func (m *mergeJoin) Close() error {
	m.closed(m.env.Clock)
	err1 := m.left.Close()
	err2 := m.right.Close()
	m.group, m.slab = nil, rowSlab{}
	if err1 != nil {
		return err1
	}
	return err2
}
