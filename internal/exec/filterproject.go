package exec

import (
	"progressdb/internal/plan"
	"progressdb/internal/tuple"
)

// filterIter drops tuples failing the predicate.
type filterIter struct {
	env      *Env
	child    Iterator
	pred     func(tuple.Tuple) (bool, error) // node.Pred, compiled
	predCost int64
	// src is the child as a rowSizer. It is asked only by this filter's
	// statsIter, and whenever there is one the child is a statsIter too.
	src rowSizer
}

func (f *filterIter) Open() error { return f.child.Open() }

// lastRowBytes: a filter hands on its child's row, pruned or not.
func (f *filterIter) lastRowBytes() int { return f.src.lastRowBytes() }

func (f *filterIter) Next() (tuple.Tuple, bool, error) {
	for {
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
			return t, true, nil
		}
	}
}

func (f *filterIter) Close() error { return f.child.Close() }

// projectIter keeps a subset of columns.
type projectIter struct {
	node  *plan.Project
	env   *Env
	child Iterator
	out   tuple.Tuple // reused output row
}

func (p *projectIter) Open() error { return p.child.Open() }

func (p *projectIter) Next() (tuple.Tuple, bool, error) {
	t, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.out = p.out[:0]
	for _, c := range p.node.Cols {
		p.out = append(p.out, t[c])
	}
	p.env.Clock.ChargeCPU(cpuTuple)
	return p.out, true, nil
}

func (p *projectIter) Close() error { return p.child.Close() }
