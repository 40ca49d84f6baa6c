package exec

import (
	"slices"

	"progressdb/internal/expr"
	"progressdb/internal/plan"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
)

// Row ownership: the tuple an Iterator's Next returns is valid only until
// that Iterator's next Next or Close, and belongs to the operator that
// wrote it. Scans decode into one reused slot and joins gather into one
// output row, each in the layout its parent asked for (below). Filter,
// Limit and a Project hand on their child's row; a Project copies into a
// row of its own only over an operator that keeps whole rows, or for a
// repeated column. An operator that keeps a row past that point copies it
// into its rowSlab (or rowTable), which lives until the operator's Close.
// A consumer never writes to a row it was handed: between two Nexts the
// row is still its writer's, and nlJoin counts on the outer part of its
// row staying as it wrote it.

// Slab chunks start small, so a ten-row index lookup does not pay for a
// big one, and double up to slabMaxChunk values.
const (
	slabMinChunk = 64
	slabMaxChunk = 4096
)

// rowSlab holds the rows one operator retains, packed into chunks of
// values: keeping n rows costs O(log n + n/slabMaxChunk) allocations
// instead of n.
type rowSlab struct {
	chunks [][]tuple.Value
	cur    int // chunk being filled
}

// keep copies t into the slab and returns the copy.
func (s *rowSlab) keep(t tuple.Tuple) tuple.Tuple {
	for ; s.cur < len(s.chunks); s.cur++ {
		c := s.chunks[s.cur]
		if len(c)+len(t) <= cap(c) {
			off := len(c)
			c = append(c, t...)
			s.chunks[s.cur] = c
			return c[off:len(c):len(c)]
		}
		if s.cur+1 < len(s.chunks) {
			s.chunks[s.cur+1] = s.chunks[s.cur+1][:0]
		}
	}
	n := slabMinChunk
	if len(s.chunks) > 0 {
		n = min(2*cap(s.chunks[len(s.chunks)-1]), slabMaxChunk)
	}
	c := append(make([]tuple.Value, 0, max(n, len(t))), t...)
	s.chunks = append(s.chunks, c)
	return c[:len(c):len(c)]
}

// reset forgets every kept row but keeps the chunks for the next fill;
// rows handed out before are overwritten.
func (s *rowSlab) reset() {
	s.cur = 0
	if len(s.chunks) > 0 {
		s.chunks[0] = s.chunks[0][:0]
	}
}

// A layout is where an operator writes the row it hands to its parent:
// lay[i] is the slot of the operator's column i, or -1 when nothing above
// reads that column, and the slots it names are 0..n-1 for some n. A nil
// layout is the whole row in schema order. A Project passes its columns
// down as the first slots, in its own order; a Filter or join predicate
// adds the columns it reads after them (addPred). Scans decode into the
// layout and joins gather into it (joinOut); the operators that keep
// whole rows take no layout (writesLayout).

// noColumns backs the layout of a root whose rows nobody reads. It is
// only ever read: addPred copies a layout before adding to it.
var noColumns = unplaced(64)

// unplaced returns a layout of n columns that places none of them.
func unplaced(n int) []int {
	lay := make([]int, n)
	for i := range lay {
		lay[i] = -1
	}
	return lay
}

// width is the length of the row lay describes.
func width(lay []int) int {
	n := 0
	for _, s := range lay {
		n = max(n, s+1)
	}
	return n
}

// writesLayout reports whether n's operator writes its row in the layout
// its parent passes. The others — HashAgg, Sort, Limit, Materialize and
// SemiJoin — hand up whole rows, so they are built with a nil layout.
func writesLayout(n plan.Node) bool {
	switch n := n.(type) {
	case *plan.SeqScan, *plan.IndexScan, *plan.Project, *plan.HashJoin, *plan.NLJoin, *plan.MergeJoin:
		return true
	case *plan.Filter:
		return writesLayout(n.Child)
	}
	return false
}

// addPred returns lay with every column pred reads and lay leaves out
// given the next free slot, and pred remapped onto that layout. A nil
// lay — the whole row — and a nil pred come back unchanged.
func addPred(lay []int, pred expr.Expr) ([]int, expr.Expr, error) {
	if lay == nil || pred == nil {
		return lay, pred, nil
	}
	lay = slices.Clone(lay)
	next := width(lay)
	slot := make(map[int]int)
	for _, c := range expr.ColumnsUsed(pred) {
		if lay[c] < 0 {
			lay[c] = next
			next++
		}
		slot[c] = lay[c]
	}
	pred, err := expr.Remap(pred, slot)
	return lay, pred, err
}

// colMove copies column from of a join input to slot to of the output.
type colMove struct{ from, to int }

// joinOut is a join's output row, written in its parent's layout: each
// input's columns go straight from that input's row to their slots, and
// a column nothing reads is not written. It remembers the two input rows
// it last wrote from, so the size a join counts for its row is theirs
// however little of them the layout keeps.
type joinOut struct {
	lmoves, rmoves []colMove
	row            tuple.Tuple
	l, r           tuple.Tuple
	// pred is the join predicate compiled over the layout, nil if none;
	// predCost is its cost-model price, priced on the original.
	pred     func(tuple.Tuple) (bool, error)
	predCost int64
}

// newJoinOut lays out the row of a join whose inputs have nl and nr
// columns, for a parent asking for lay and a predicate over the
// concatenated (left ++ right) row.
func newJoinOut(lay []int, nl, nr int, pred expr.Expr) (joinOut, error) {
	lay, laid, err := addPred(lay, pred)
	if err != nil {
		return joinOut{}, err
	}
	o := joinOut{pred: expr.CompilePred(laid), predCost: exprCost(pred)}
	w := nl + nr
	if lay != nil {
		w = width(lay)
	}
	for c := 0; c < nl+nr; c++ {
		to := c
		if lay != nil {
			to = lay[c]
		}
		switch {
		case to < 0:
		case c < nl:
			o.lmoves = append(o.lmoves, colMove{c, to})
		default:
			o.rmoves = append(o.rmoves, colMove{c - nl, to})
		}
	}
	o.row = make(tuple.Tuple, w)
	return o, nil
}

// setLeft writes the left input's part of the row from t.
func (o *joinOut) setLeft(t tuple.Tuple) {
	o.l = t
	for _, m := range o.lmoves {
		o.row[m.to] = t[m.from]
	}
}

// setRight writes the right input's part of the row from t.
func (o *joinOut) setRight(t tuple.Tuple) {
	o.r = t
	for _, m := range o.rmoves {
		o.row[m.to] = t[m.from]
	}
}

// rowTable is the executor's one hash table of retained rows, shared by
// the hash, Grace and semi joins. Rows with equal keys are chained
// through next in insertion order, so a probe emits matches in the order
// the build side produced them, with no slice per key. Int keys — every
// join key of the paper's queries — index a flat intMap by their int64
// instead of hashing a struct holding a string; other keys go through
// their Canonical form, so Float keys match exactly when Compare calls
// them equal. The two indexes never hold equal keys, since Values of
// different kinds are unequal.
type rowTable struct {
	slab  rowSlab
	rows  []tuple.Tuple // insertion order
	next  []int32       // next row with the same key, -1 at the end
	ints  intMap[rowChain]
	other map[tuple.Value]rowChain // keys that are not Ints, canonical
}

type rowChain struct{ head, tail int32 }

// reset empties the table, keeping its memory for the next batch. The
// zero rowTable is empty and ready to use.
func (rt *rowTable) reset() {
	rt.slab.reset()
	rt.rows = rt.rows[:0]
	rt.next = rt.next[:0]
	rt.ints.reset()
	clear(rt.other)
}

// insert copies t into the table under key.
func (rt *rowTable) insert(key tuple.Value, t tuple.Tuple) {
	i := int32(len(rt.rows))
	rt.rows = append(rt.rows, rt.slab.keep(t))
	rt.next = append(rt.next, -1)
	if key.Kind == tuple.Int {
		ch, ok := rt.ints.put(key.I)
		*ch = rt.link(*ch, ok, i)
		return
	}
	if rt.other == nil {
		rt.other = make(map[tuple.Value]rowChain)
	}
	key = key.Canonical()
	ch, ok := rt.other[key]
	rt.other[key] = rt.link(ch, ok, i)
}

// link returns key's chain with row i at its end; ok false starts one.
func (rt *rowTable) link(ch rowChain, ok bool, i int32) rowChain {
	if !ok {
		return rowChain{head: i, tail: i}
	}
	rt.next[ch.tail] = i
	ch.tail = i
	return ch
}

// first returns the index of the first row inserted under key, or -1;
// follow next from there.
func (rt *rowTable) first(key tuple.Value) int32 {
	var ch rowChain
	var ok bool
	if key.Kind == tuple.Int {
		ch, ok = rt.ints.get(key.I)
	} else {
		ch, ok = rt.other[key.Canonical()]
	}
	if !ok {
		return -1
	}
	return ch.head
}

// spillReader reads the rows of a temp file back, a page at a time. row
// is the record last read, decoded in the layout lay (nil: the whole row)
// through tuple.Page, so its Strings share the page's one string and a
// spilled row allocates nothing; rec is that record's encoding. row is
// valid until the next call to next. sc is nil once the file is drained.
type spillReader struct {
	sc    *storage.Scanner
	img   []byte
	page  tuple.Page
	recs  storage.Records
	arity int
	lay   []int
	row   tuple.Tuple
	rec   []byte
}

// open starts reading f's records of arity fields.
func (r *spillReader) open(f *storage.HeapFile, arity int, lay []int) {
	r.sc, r.recs, r.arity, r.lay = f.NewScanner(), storage.Records{}, arity, lay
	if lay != nil {
		r.row = make(tuple.Tuple, width(lay))
	}
}

// next reads the next record into row and rec. It reports false at the
// end of the file or on an error.
func (r *spillReader) next() (bool, error) {
	if r.recs.Len() == 0 {
		img, _, ok := r.sc.NextPage()
		if !ok {
			err := r.sc.Err()
			r.sc = nil
			return false, err
		}
		r.img, r.recs = img, storage.PageRecords(img)
		r.page.Reset(img)
	}
	start, end := r.recs.Next()
	row, err := r.page.DecodeInto(r.row, start, end, r.arity, r.lay)
	if err != nil {
		return false, err
	}
	r.row, r.rec = row, r.img[start:end]
	return true, nil
}
