// Package btree implements a page-oriented B+-tree over int64 keys mapping
// to heap-file RIDs. Index pages live on the simulated disk and are read
// through the buffer pool, so index scans charge virtual I/O like any other
// access path (the paper's engine accesses base relations by table-scan or
// index-scan; see Figure 3's index-scan leaf).
package btree

import (
	"encoding/binary"
	"fmt"
	"sort"

	"progressdb/internal/storage"
	"progressdb/internal/vclock"
)

// Page layout.
//
// Meta page (page 0):
//
//	[0:4]  root page number
//	[4:8]  height (1 = root is a leaf)
//	[8:16] key count
//
// Node pages:
//
//	[0]    kind: 0 leaf, 1 internal
//	[1:3]  entry count n
//	leaf:     [3:7] next-leaf page (-1 none), then n × (key 8B, rid 10B)
//	internal: [3:7] child0, then n × (key 8B, child 4B);
//	          subtree child[i] holds keys >= key[i-1] (key[-1] = -inf) and < key[i]
const (
	metaPage     = 0
	leafKind     = 0
	internalKind = 1

	leafHeader     = 7
	internalHeader = 7
	leafEntry      = 18 // key 8 + rid (4+4+2)
	internalEntry  = 12 // key 8 + child 4

	// MaxLeafEntries and MaxInternalEntries are the page fanouts.
	MaxLeafEntries     = (storage.PageSize - leafHeader) / leafEntry
	MaxInternalEntries = (storage.PageSize - internalHeader) / internalEntry
)

// Entry is one key/RID pair.
type Entry struct {
	Key int64
	RID storage.RID
}

// Tree is an opened B+-tree.
type Tree struct {
	pool *storage.BufferPool
	file storage.FileID
	root int32
	h    int32
	n    int64
}

// Create makes a new empty tree in a fresh file.
func Create(pool *storage.BufferPool) (*Tree, error) {
	t := &Tree{pool: pool, file: pool.Disk().Create()}
	// Meta page, then an empty leaf root at page 1.
	root := make([]byte, storage.PageSize)
	root[0] = leafKind
	putInt32(root[3:], -1)
	if err := pool.Put(storage.PageID{File: t.file, Num: metaPage}, make([]byte, storage.PageSize)); err != nil {
		return nil, err
	}
	if err := pool.Put(storage.PageID{File: t.file, Num: 1}, root); err != nil {
		return nil, err
	}
	t.root, t.h = 1, 1
	return t, t.writeMeta()
}

// BulkLoad builds a tree from entries, which are sorted by key ascending
// (duplicates allowed). It is the normal way indexes are built after data
// loading, and produces leaves in sequential page order.
func BulkLoad(pool *storage.BufferPool, entries []Entry) (*Tree, error) {
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key }) {
		return nil, fmt.Errorf("btree: bulk load input not sorted")
	}
	t := &Tree{pool: pool, file: pool.Disk().Create()}
	if err := pool.Put(storage.PageID{File: t.file, Num: metaPage}, make([]byte, storage.PageSize)); err != nil {
		return nil, err
	}
	next := int32(1)

	// Write leaves left to right.
	type childRef struct {
		firstKey int64
		page     int32
	}
	var level []childRef
	// Fill leaves to ~90% so near-sorted inserts don't split immediately.
	perLeaf := MaxLeafEntries * 9 / 10
	if perLeaf < 1 {
		perLeaf = 1
	}
	nLeaves := (len(entries) + perLeaf - 1) / perLeaf
	if nLeaves == 0 {
		nLeaves = 1
	}
	for i := 0; i < nLeaves; i++ {
		lo := i * perLeaf
		hi := lo + perLeaf
		if hi > len(entries) {
			hi = len(entries)
		}
		page := make([]byte, storage.PageSize)
		page[0] = leafKind
		putInt16(page[1:], int16(hi-lo))
		if i+1 < nLeaves {
			putInt32(page[3:], next+1)
		} else {
			putInt32(page[3:], -1)
		}
		off := leafHeader
		for _, e := range entries[lo:hi] {
			off = putLeafEntry(page, off, e)
		}
		if err := pool.Put(storage.PageID{File: t.file, Num: next}, page); err != nil {
			return nil, err
		}
		first := int64(0)
		if hi > lo {
			first = entries[lo].Key
		}
		level = append(level, childRef{firstKey: first, page: next})
		next++
	}

	// Build internal levels bottom-up.
	height := int32(1)
	for len(level) > 1 {
		var parent []childRef
		per := MaxInternalEntries * 9 / 10
		if per < 2 {
			per = 2
		}
		for i := 0; i < len(level); i += per + 1 {
			hi := i + per + 1
			if hi > len(level) {
				hi = len(level)
			}
			group := level[i:hi]
			page := make([]byte, storage.PageSize)
			page[0] = internalKind
			putInt16(page[1:], int16(len(group)-1))
			putInt32(page[3:], group[0].page)
			off := internalHeader
			for _, c := range group[1:] {
				binary.LittleEndian.PutUint64(page[off:], uint64(c.firstKey))
				putInt32(page[off+8:], c.page)
				off += internalEntry
			}
			if err := pool.Put(storage.PageID{File: t.file, Num: next}, page); err != nil {
				return nil, err
			}
			parent = append(parent, childRef{firstKey: group[0].firstKey, page: next})
			next++
		}
		level = parent
		height++
	}
	t.root = level[0].page
	t.h = height
	t.n = int64(len(entries))
	return t, t.writeMeta()
}

// Open reopens a tree previously created in file.
func Open(pool *storage.BufferPool, file storage.FileID) (*Tree, error) {
	t := &Tree{pool: pool, file: file}
	meta, err := pool.Get(storage.PageID{File: file, Num: metaPage})
	if err != nil {
		return nil, err
	}
	t.root = getInt32(meta[0:])
	t.h = getInt32(meta[4:])
	t.n = int64(binary.LittleEndian.Uint64(meta[8:]))
	if t.root < 1 || t.h < 1 {
		return nil, fmt.Errorf("btree: corrupt meta page (root %d, height %d)", t.root, t.h)
	}
	return t, nil
}

// File returns the underlying file id.
func (t *Tree) File() storage.FileID { return t.file }

// Len returns the number of entries.
func (t *Tree) Len() int64 { return t.n }

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return int(t.h) }

func (t *Tree) writeMeta() error {
	meta := make([]byte, storage.PageSize)
	putInt32(meta[0:], t.root)
	putInt32(meta[4:], t.h)
	binary.LittleEndian.PutUint64(meta[8:], uint64(t.n))
	return t.pool.Put(storage.PageID{File: t.file, Num: metaPage}, meta)
}

// getPage reads a tree page through the pool, charging clk (nil means
// the disk's base clock — the single-threaded DDL/load paths).
func (t *Tree) getPage(clk *vclock.Clock, num int32) ([]byte, error) {
	if clk == nil {
		clk = t.pool.Disk().Clock()
	}
	return t.pool.GetOn(clk, storage.PageID{File: t.file, Num: num})
}

// descend walks from the root to a leaf for key, recording the path (for
// insert splits). Duplicates of a key may straddle leaves, and the
// separator between two such leaves equals the key. A read (first=true)
// goes left of an equal separator, to the first leaf that can hold the
// key — the iterator then walks the leaf chain forward; an insert goes
// right, to the last such leaf, so duplicates stay in insertion order.
func (t *Tree) descend(clk *vclock.Clock, key int64, first bool) (leaf int32, path []int32, err error) {
	cur := t.root
	for {
		page, err := t.getPage(clk, cur)
		if err != nil {
			return 0, nil, err
		}
		if page[0] == leafKind {
			return cur, path, nil
		}
		path = append(path, cur)
		n := int(getInt16(page[1:]))
		child := getInt32(page[3:])
		off := internalHeader
		for i := 0; i < n; i++ {
			k := int64(binary.LittleEndian.Uint64(page[off:]))
			if key < k || (first && key == k) {
				break
			}
			child = getInt32(page[off+8:])
			off += internalEntry
		}
		cur = child
	}
}

// Search returns the RIDs of all entries with exactly the given key.
func (t *Tree) Search(key int64) ([]storage.RID, error) {
	it, err := t.SeekGE(key)
	if err != nil {
		return nil, err
	}
	var out []storage.RID
	for {
		e, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok || e.Key != key {
			break
		}
		out = append(out, e.RID)
	}
	return out, nil
}

// Iterator walks leaf entries in key order, charging the clock it was
// opened with (nil = the disk's base clock).
type Iterator struct {
	t    *Tree
	clk  *vclock.Clock
	page int32
	idx  int
}

// SeekGE returns an iterator positioned at the first entry with
// key >= key, charging the disk's base clock.
func (t *Tree) SeekGE(key int64) (*Iterator, error) {
	return t.SeekGEOn(nil, key)
}

// SeekGEOn is SeekGE charging the given worker clock (per-query index
// scans).
func (t *Tree) SeekGEOn(clk *vclock.Clock, key int64) (*Iterator, error) {
	leaf, _, err := t.descend(clk, key, true)
	if err != nil {
		return nil, err
	}
	it := &Iterator{t: t, clk: clk, page: leaf}
	page, err := t.getPage(clk, leaf)
	if err != nil {
		return nil, err
	}
	n := int(getInt16(page[1:]))
	// Binary search within the leaf.
	it.idx = sort.Search(n, func(i int) bool {
		return leafKeyAt(page, i) >= key
	})
	return it, nil
}

// FirstOn returns an iterator over all entries, charging the given
// clock (nil: the disk's base clock).
func (t *Tree) FirstOn(clk *vclock.Clock) (*Iterator, error) {
	// Descend along the leftmost spine.
	cur := t.root
	for {
		page, err := t.getPage(clk, cur)
		if err != nil {
			return nil, err
		}
		if page[0] == leafKind {
			return &Iterator{t: t, clk: clk, page: cur}, nil
		}
		cur = getInt32(page[3:])
	}
}

// Next returns the next entry, ok=false at the end.
func (it *Iterator) Next() (Entry, bool, error) {
	for {
		if it.page < 0 {
			return Entry{}, false, nil
		}
		page, err := it.t.getPage(it.clk, it.page)
		if err != nil {
			return Entry{}, false, err
		}
		n := int(getInt16(page[1:]))
		if it.idx < n {
			e := leafEntryAt(page, it.idx)
			it.idx++
			return e, true, nil
		}
		it.page = getInt32(page[3:])
		it.idx = 0
	}
}

// Insert adds an entry, splitting pages as needed.
func (t *Tree) Insert(key int64, rid storage.RID) error {
	leafNum, path, err := t.descend(nil, key, false)
	if err != nil {
		return err
	}
	page, err := t.getPage(nil, leafNum)
	if err != nil {
		return err
	}
	buf := clone(page)
	n := int(getInt16(buf[1:]))
	pos := sort.Search(n, func(i int) bool { return leafKeyAt(buf, i) > key })
	if n < MaxLeafEntries {
		insertLeafEntry(buf, n, pos, Entry{Key: key, RID: rid})
		putInt16(buf[1:], int16(n+1))
		if err := t.pool.Put(storage.PageID{File: t.file, Num: leafNum}, buf); err != nil {
			return err
		}
		t.n++
		return t.writeMeta()
	}
	// Split the leaf: gather entries, insert, halve.
	entries := make([]Entry, 0, n+1)
	for i := 0; i < n; i++ {
		entries = append(entries, leafEntryAt(buf, i))
	}
	entries = append(entries[:pos], append([]Entry{{Key: key, RID: rid}}, entries[pos:]...)...)
	mid := len(entries) / 2
	rightNum, err := t.appendPage()
	if err != nil {
		return err
	}
	nextLeaf := getInt32(buf[3:])

	left := newLeafPage(entries[:mid], rightNum)
	right := newLeafPage(entries[mid:], nextLeaf)
	if err := t.pool.Put(storage.PageID{File: t.file, Num: leafNum}, left); err != nil {
		return err
	}
	if err := t.pool.Put(storage.PageID{File: t.file, Num: rightNum}, right); err != nil {
		return err
	}
	t.n++
	return t.insertIntoParent(path, entries[mid].Key, rightNum)
}

// insertIntoParent threads a split (sepKey, rightChild) up the recorded path.
func (t *Tree) insertIntoParent(path []int32, sepKey int64, rightChild int32) error {
	if len(path) == 0 {
		// Grow a new root.
		rootNum, err := t.appendPage()
		if err != nil {
			return err
		}
		page := make([]byte, storage.PageSize)
		page[0] = internalKind
		putInt16(page[1:], 1)
		putInt32(page[3:], t.root)
		binary.LittleEndian.PutUint64(page[internalHeader:], uint64(sepKey))
		putInt32(page[internalHeader+8:], rightChild)
		if err := t.pool.Put(storage.PageID{File: t.file, Num: rootNum}, page); err != nil {
			return err
		}
		t.root = rootNum
		t.h++
		return t.writeMeta()
	}
	parentNum := path[len(path)-1]
	page, err := t.getPage(nil, parentNum)
	if err != nil {
		return err
	}
	buf := clone(page)
	n := int(getInt16(buf[1:]))
	pos := sort.Search(n, func(i int) bool { return internalKeyAt(buf, i) > sepKey })
	if n < MaxInternalEntries {
		// Shift entries right and insert.
		off := internalHeader + pos*internalEntry
		copy(buf[off+internalEntry:], buf[off:internalHeader+n*internalEntry])
		binary.LittleEndian.PutUint64(buf[off:], uint64(sepKey))
		putInt32(buf[off+8:], rightChild)
		putInt16(buf[1:], int16(n+1))
		if err := t.pool.Put(storage.PageID{File: t.file, Num: parentNum}, buf); err != nil {
			return err
		}
		return t.writeMeta()
	}
	// Split the internal node.
	type ik struct {
		key   int64
		child int32
	}
	keys := make([]ik, 0, n+1)
	for i := 0; i < n; i++ {
		keys = append(keys, ik{internalKeyAt(buf, i), internalChildAt(buf, i)})
	}
	keys = append(keys[:pos], append([]ik{{sepKey, rightChild}}, keys[pos:]...)...)
	child0 := getInt32(buf[3:])
	mid := len(keys) / 2
	up := keys[mid]

	leftPage := make([]byte, storage.PageSize)
	leftPage[0] = internalKind
	putInt16(leftPage[1:], int16(mid))
	putInt32(leftPage[3:], child0)
	off := internalHeader
	for _, k := range keys[:mid] {
		binary.LittleEndian.PutUint64(leftPage[off:], uint64(k.key))
		putInt32(leftPage[off+8:], k.child)
		off += internalEntry
	}
	rightPage := make([]byte, storage.PageSize)
	rightPage[0] = internalKind
	putInt16(rightPage[1:], int16(len(keys)-mid-1))
	putInt32(rightPage[3:], up.child)
	off = internalHeader
	for _, k := range keys[mid+1:] {
		binary.LittleEndian.PutUint64(rightPage[off:], uint64(k.key))
		putInt32(rightPage[off+8:], k.child)
		off += internalEntry
	}
	rightNum, err := t.appendPage()
	if err != nil {
		return err
	}
	if err := t.pool.Put(storage.PageID{File: t.file, Num: parentNum}, leftPage); err != nil {
		return err
	}
	if err := t.pool.Put(storage.PageID{File: t.file, Num: rightNum}, rightPage); err != nil {
		return err
	}
	return t.insertIntoParent(path[:len(path)-1], up.key, rightNum)
}

func (t *Tree) appendPage() (int32, error) {
	n, err := t.pool.Disk().NumPages(t.file)
	if err != nil {
		return 0, err
	}
	if err := t.pool.Put(storage.PageID{File: t.file, Num: int32(n)}, make([]byte, storage.PageSize)); err != nil {
		return 0, err
	}
	return int32(n), nil
}

// --- page encoding helpers ---

func putInt16(b []byte, v int16) { binary.LittleEndian.PutUint16(b, uint16(v)) }
func getInt16(b []byte) int16    { return int16(binary.LittleEndian.Uint16(b)) }
func putInt32(b []byte, v int32) { binary.LittleEndian.PutUint32(b, uint32(v)) }
func getInt32(b []byte) int32    { return int32(binary.LittleEndian.Uint32(b)) }
func clone(p []byte) []byte      { c := make([]byte, len(p)); copy(c, p); return c }

func leafKeyAt(page []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(page[leafHeader+i*leafEntry:]))
}

func leafEntryAt(page []byte, i int) Entry {
	off := leafHeader + i*leafEntry
	return Entry{
		Key: int64(binary.LittleEndian.Uint64(page[off:])),
		RID: storage.RID{
			Page: storage.PageID{
				File: storage.FileID(getInt32(page[off+8:])),
				Num:  getInt32(page[off+12:]),
			},
			Slot: binary.LittleEndian.Uint16(page[off+16:]),
		},
	}
}

func putLeafEntry(page []byte, off int, e Entry) int {
	binary.LittleEndian.PutUint64(page[off:], uint64(e.Key))
	putInt32(page[off+8:], int32(e.RID.Page.File))
	putInt32(page[off+12:], e.RID.Page.Num)
	binary.LittleEndian.PutUint16(page[off+16:], e.RID.Slot)
	return off + leafEntry
}

func insertLeafEntry(page []byte, n, pos int, e Entry) {
	off := leafHeader + pos*leafEntry
	copy(page[off+leafEntry:], page[off:leafHeader+n*leafEntry])
	putLeafEntry(page, off, e)
}

func newLeafPage(entries []Entry, next int32) []byte {
	page := make([]byte, storage.PageSize)
	page[0] = leafKind
	putInt16(page[1:], int16(len(entries)))
	putInt32(page[3:], next)
	off := leafHeader
	for _, e := range entries {
		off = putLeafEntry(page, off, e)
	}
	return page
}

func internalKeyAt(page []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(page[internalHeader+i*internalEntry:]))
}

func internalChildAt(page []byte, i int) int32 {
	return getInt32(page[internalHeader+i*internalEntry+8:])
}
