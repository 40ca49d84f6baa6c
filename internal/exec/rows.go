package exec

import "progressdb/internal/tuple"

// Row ownership: the tuple an Iterator's Next returns belongs to the
// operator that produced it and is valid only until that operator's next
// Next or Close. Scans decode into one reused slot, project and the joins
// write into one output slot, pass-through operators hand on their
// child's. An operator that keeps a row past that point copies it into
// its rowSlab (or rowTable), which lives until the operator's Close.

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
// the build side produced them, with no slice per key.
type rowTable struct {
	slab  rowSlab
	rows  []tuple.Tuple // insertion order
	next  []int32       // next row with the same key, -1 at the end
	index map[tuple.Value]rowChain
}

type rowChain struct{ head, tail int32 }

// reset empties the table, keeping its memory for the next batch. The
// zero rowTable is empty and ready to use.
func (rt *rowTable) reset() {
	rt.slab.reset()
	rt.rows = rt.rows[:0]
	rt.next = rt.next[:0]
	clear(rt.index)
}

// insert copies t into the table under key.
func (rt *rowTable) insert(key tuple.Value, t tuple.Tuple) {
	if rt.index == nil {
		rt.index = make(map[tuple.Value]rowChain)
	}
	i := int32(len(rt.rows))
	rt.rows = append(rt.rows, rt.slab.keep(t))
	rt.next = append(rt.next, -1)
	ch, ok := rt.index[key]
	if ok {
		rt.next[ch.tail] = i
		ch.tail = i
	} else {
		ch = rowChain{head: i, tail: i}
	}
	rt.index[key] = ch
}

// first returns the index of the first row inserted under key, or -1;
// follow next from there.
func (rt *rowTable) first(key tuple.Value) int32 {
	if ch, ok := rt.index[key]; ok {
		return ch.head
	}
	return -1
}
