package exec

import (
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/tuple"
)

// filterIter drops tuples failing the predicate.
type filterIter struct {
	env      *Env
	child    Iterator
	pred     func(tuple.Tuple) (bool, error) // node.Pred, compiled
	predCost int64
	// src is the child's slot. A filter hands on its child's row, pruned
	// or not, so a row's size is what the child's slot counted for it.
	src *segment.NodeCount
	counter
}

func (f *filterIter) Open() error {
	f.opened(f.env.Clock)
	return f.child.Open()
}

func (f *filterIter) Next() (tuple.Tuple, bool, error) {
	for {
		before := f.src.Bytes
		t, ok, err := f.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		f.env.Clock.ChargeCPU(f.predCost)
		pass, err := f.pred(t)
		if err != nil {
			return nil, false, err
		}
		if pass {
			f.emitBytes(int(f.src.Bytes - before))
			return t, true, nil
		}
	}
}

func (f *filterIter) Close() error {
	f.closed(f.env.Clock)
	return f.child.Close()
}

// projectIter hands up its columns. Its child writes them as the first
// k slots of its own row (rows.go), so the Project passes that row on
// without copying it — unless the child keeps whole rows (writesLayout)
// or a column repeats, which one layout slot cannot serve twice. Then
// src says which child column each output slot copies.
type projectIter struct {
	node  *plan.Project
	env   *Env
	child Iterator
	k     int
	src   []int       // nil: the child's row holds the columns in place
	out   tuple.Tuple // the copy, when src is set
	counter
}

// buildProject builds a Project whose row has output column j at slot
// lay[j], and the columns lay leaves out after those (lay nil: all of
// them, in order). Its child is asked for that same row.
func buildProject(node *plan.Project, env *Env, lay []int, c counter) (Iterator, error) {
	k := len(node.Cols)
	order := make([]int, width(lay), k) // order[s] is the output column at slot s
	for j, s := range lay {
		if s >= 0 {
			order[s] = j
		}
	}
	for j := 0; j < k; j++ {
		if lay == nil || lay[j] < 0 {
			order = append(order, j)
		}
	}
	p := &projectIter{node: node, env: env, k: k, src: make([]int, k)}
	childLay := unplaced(node.Child.Schema().Arity())
	n, repeats := 0, false
	for s, j := range order {
		c := node.Cols[j]
		if childLay[c] < 0 {
			childLay[c] = n
			n++
		} else {
			repeats = true
		}
		p.src[s] = childLay[c]
	}
	whole := !writesLayout(node.Child)
	if whole {
		for s, j := range order {
			p.src[s] = node.Cols[j]
		}
	}
	if whole || repeats {
		p.out = make(tuple.Tuple, k)
	} else {
		p.src = nil
	}
	child, err := build(node.Child, env, childLay)
	if err != nil {
		return nil, err
	}
	p.child, p.counter = child, c
	return p, nil
}

func (p *projectIter) Open() error {
	p.opened(p.env.Clock)
	return p.child.Open()
}

func (p *projectIter) Next() (tuple.Tuple, bool, error) {
	t, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.env.Clock.ChargeCPU(cpuTuple)
	if p.src == nil {
		t = t[:p.k:p.k]
	} else {
		for s, c := range p.src {
			p.out[s] = t[c]
		}
		t = p.out
	}
	p.emit(t)
	return t, true, nil
}

func (p *projectIter) Close() error {
	p.closed(p.env.Clock)
	return p.child.Close()
}
