package exec

import "progressdb/internal/plan"

// intMap is the executor's hash table from int64 keys — every join key of
// the paper's queries, and a single Int group column — to V. It does no
// deletes. The zero intMap is empty and ready to use. Its one slot array
// holds one of two layouts, and the keys it holds pick which:
//
//   - the direct window: slot k−base holds key k, so a lookup is one
//     subtraction, one bounds check and one load, and keys that arrive in
//     order read consecutive slots. The paper's join and group keys are
//     dense surrogates scanned in ascending order;
//   - the mixed layout: open addressing with a full 64-bit mixer, so keys
//     that differ only in their high words spread alike, linear probing
//     (no tombstones, since nothing is deleted) and a load of at most 3/4.
//     Hash-partitioned Grace batches and int64 edges land here.
//
// The layout is decided only where the table reallocates (relayout): the
// first put, a put outside the window, and a mixed table passing load
// 3/4. A mixed table whose keys fill in goes back to the window at its
// next grow.
type intMap[V any] struct {
	slots  []intSlot[V] // mixed: len is a power of two; empty after reset
	n      int          // keys held
	direct bool         // slots is the window [base, base+len) (mod 2^64)
	base   uint64
}

type intSlot[V any] struct {
	key  int64
	used bool
	val  V
}

// maxWindow bounds the direct window: a fill never has a window of more
// than maxWindow times the slots the mixed layout would use for the keys
// it holds, mixedSlots(n, 0), beyond what a reset kept from the last
// fill. The span rule alone (at most 4 slots per key) would let a reset
// window, re-based at a batch's first key, double at every batch whose
// second key comes from below.
const maxWindow = 4

// mix is the 64-bit finalizer of MurmurHash3: every input bit reaches
// every output bit, so masking to the table size keeps good bits.
func mix(k int64) uint64 {
	h := uint64(k)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// find returns the mixed layout's slot holding k, or the empty slot where
// k would go. The table must have a free slot.
func (m *intMap[V]) find(k int64) *intSlot[V] {
	mask := uint64(len(m.slots) - 1)
	for i := mix(k) & mask; ; i = (i + 1) & mask {
		if s := &m.slots[i]; !s.used || s.key == k {
			return s
		}
	}
}

// get returns the value under k and whether k is present.
func (m *intMap[V]) get(k int64) (v V, ok bool) {
	if m.direct {
		if i := uint64(k) - m.base; i < uint64(len(m.slots)) {
			s := &m.slots[i]
			return s.val, s.used
		}
		return v, false
	}
	if m.n == 0 {
		return v, false
	}
	s := m.find(k)
	return s.val, s.used
}

// put returns where k's value lives, entering k with the zero V first if
// it was absent (found false). The pointer is good until the next put.
func (m *intMap[V]) put(k int64) (v *V, found bool) {
	var s *intSlot[V]
	for { // at most twice: relayout makes room for k
		if m.direct {
			if i := uint64(k) - m.base; i < uint64(len(m.slots)) {
				s = &m.slots[i]
				break
			}
		} else if 4*(m.n+1) <= 3*len(m.slots) {
			s = m.find(k)
			break
		}
		m.relayout(k)
	}
	if s.used {
		return &s.val, true
	}
	s.key, s.used = k, true
	m.n++
	return &s.val, false
}

// relayout reallocates m so that k, about to be put, fits, in the layout
// the held keys plus k call for: the window while they span at most 4
// slots per key and it stays within maxWindow of the mixed size, the
// mixed layout otherwise. Every reallocation at least doubles the slots
// except a move from the window to the mixed layout, which keeps at least
// the window's; that move follows the doubling that made the window, so
// the work of all reallocations stays linear in the final size.
func (m *intMap[V]) relayout(k int64) {
	old := m.slots
	if m.n == 0 {
		// The first put makes a window from k up. A reset table keeps its
		// slots and their layout, its window moved to start at k: the next
		// batch of a Grace join looks like the last, and a mixed table
		// turned into a window here would pay a reallocation per batch.
		if cap(old) == 0 {
			old, m.direct = make([]intSlot[V], 8), true
		}
		m.slots, m.base = old[:cap(old)], uint64(k)
		return
	}
	lo, hi := k, k // over the held keys and k
	for i := range old {
		if s := &old[i]; s.used {
			lo, hi = min(lo, s.key), max(hi, s.key)
		}
	}
	n := m.n + 1
	if span := uint64(hi) - uint64(lo); span < 4*uint64(n) {
		// The window keeps its edge away from k, the old window's or the
		// held keys', and takes its slack on k's side. Keeping the old
		// window's far edge keeps the slack it had there, so keys arriving
		// alternately below and above do not double it at every key.
		below := k == lo && k != hi
		first, last := uint64(lo), uint64(hi)
		if m.direct && below {
			last = m.base + uint64(len(old)) - 1
		} else if m.direct {
			first = m.base
		}
		w := max(8, 2*len(old), int(last-first)+1)
		if w <= maxWindow*mixedSlots(n, 0) {
			base := first
			if below {
				base = last - uint64(w) + 1
			}
			m.rehash(old, w, true, base)
			return
		}
	}
	m.rehash(old, mixedSlots(n, len(old)), false, 0)
}

// rehash enters every key of old into size fresh slots of the given layout.
func (m *intMap[V]) rehash(old []intSlot[V], size int, direct bool, base uint64) {
	m.slots, m.direct, m.base = make([]intSlot[V], size), direct, base
	for i := range old {
		if s := &old[i]; s.used {
			if direct {
				m.slots[uint64(s.key)-base] = *s
			} else {
				*m.find(s.key) = *s
			}
		}
	}
}

// mixedSlots is the mixed layout's slot count for n keys: the smallest
// power of two that is at least 8 and at least atLeast and keeps the load
// at most 3/4.
func mixedSlots(n, atLeast int) int {
	size := 8
	for size < atLeast || 4*n > 3*size {
		size *= 2
	}
	return size
}

// reset empties the map, keeping its slots and layout for the next fill;
// the fill's first put re-bases a window at its key.
func (m *intMap[V]) reset() {
	clear(m.slots)
	m.slots = m.slots[:0]
	m.n = 0
}

// noteLayout records on n, when c collects and m holds keys, which layout
// they ended their fill in.
func (m *intMap[V]) noteLayout(c *Collector, n plan.Node) {
	if c == nil || m.n == 0 {
		return
	}
	layout := "mixed hash"
	if m.direct {
		layout = "direct window"
	}
	c.Notef(n, "int keys: %s", layout)
}
