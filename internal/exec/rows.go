package exec

import "progressdb/internal/tuple"

// Row ownership: the tuple an Iterator's Next returns belongs to the
// operator that produced it and is valid only until that operator's next
// Next or Close. Scans decode into one reused slot, project and the joins
// write into one output slot, pass-through operators hand on their
// child's. An operator that keeps a row past that point copies it into
// its rowSlab (or rowTable), which lives until the operator's Close. A
// consumer never writes to a row it was handed: between two Nexts the
// slot is still the producer's, and nlJoin counts on the outer half of
// its slot staying as it wrote it.

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

// joinRow writes the concatenation a‖b — a join's output row — into dst's
// backing array and returns it.
func joinRow(dst, a, b tuple.Tuple) tuple.Tuple {
	return append(append(dst[:0], a...), b...)
}

// rowTable is the executor's one hash table of retained rows, shared by
// the hash, Grace and semi joins. Rows with equal keys are chained
// through next in insertion order, so a probe emits matches in the order
// the build side produced them, with no slice per key. Int keys — every
// join key of the paper's queries — are indexed by their int64, which
// hashes a word instead of a struct holding a string; the two indexes
// never hold equal keys, since Values of different kinds are unequal.
type rowTable struct {
	slab  rowSlab
	rows  []tuple.Tuple // insertion order
	next  []int32       // next row with the same key, -1 at the end
	ints  map[int64]rowChain
	other map[tuple.Value]rowChain // keys that are not Ints
}

type rowChain struct{ head, tail int32 }

// reset empties the table, keeping its memory for the next batch. The
// zero rowTable is empty and ready to use.
func (rt *rowTable) reset() {
	rt.slab.reset()
	rt.rows = rt.rows[:0]
	rt.next = rt.next[:0]
	clear(rt.ints)
	clear(rt.other)
}

// insert copies t into the table under key.
func (rt *rowTable) insert(key tuple.Value, t tuple.Tuple) {
	i := int32(len(rt.rows))
	rt.rows = append(rt.rows, rt.slab.keep(t))
	rt.next = append(rt.next, -1)
	if key.Kind == tuple.Int {
		if rt.ints == nil {
			rt.ints = make(map[int64]rowChain)
		}
		ch, ok := rt.ints[key.I]
		rt.ints[key.I] = rt.link(ch, ok, i)
		return
	}
	if rt.other == nil {
		rt.other = make(map[tuple.Value]rowChain)
	}
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
		ch, ok = rt.ints[key.I]
	} else {
		ch, ok = rt.other[key]
	}
	if !ok {
		return -1
	}
	return ch.head
}
