// Package catalog tracks the tables, indexes, and statistics known to the
// engine. It is deliberately minimal: the paper's workload is read-only
// SPJ queries over pre-loaded relations.
package catalog

import (
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
	"sync"

	"progressdb/internal/btree"
	"progressdb/internal/stats"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
)

// Index is a secondary B+-tree index over a single integer column.
type Index struct {
	Name   string
	Table  string
	Column string
	Tree   *btree.Tree
}

// Table is a named relation with its heap file, schema, optional
// statistics, and indexes.
type Table struct {
	Name    string
	Schema  *tuple.Schema
	Heap    *storage.HeapFile
	Stats   *stats.TableStats
	Indexes []*Index

	pagesMu sync.Mutex        // guards the fields below
	pages   []*PageIndex      // by page number, once a scan has read the page
	chunks  []string          // the bytes of each string a page index holds, once; append only
	strs    map[uint64]strRef // each of those strings by its hash (the last, if two share one)
	seed    maphash.Seed      // the hash's
	pageIDs map[string]uint16 // the id of each string on the page being indexed
}

// strRef is a string of a table's chunks.
type strRef struct {
	chunk      uint32
	start, end uint16
}

func (r strRef) in(chunks []string) string { return chunks[r.chunk][r.start:r.end] }

// PageIndex is the parse of one page image of a table's heap: where each
// record lies, where each of its fields starts, validated once by
// tuple.FieldOffsets, and each String field's value. An image is never
// written in place, so an index is valid for exactly the image it was
// built from, and it is never written after it is built (DESIGN.md §5).
type PageIndex struct {
	img    []byte   // the image indexed; held, so its address names it
	spans  []uint16 // record k lies in img at [spans[2k], spans[2k+1])
	fields []uint16 // field i of record k: fields[k*arity+i], see Record
	chunks []string // the table's chunks as the index was built; later ones go past its end
	strs   []strRef // the page's distinct strings, by id
	arity  int
	Err    error // DecodeInto's error for record Len(); nil if all passed
}

// StringField marks a Record field that is a String's id for Str, not an
// offset: an offset is below storage.PageSize, so the bit is free.
const StringField = 1 << 15

// indexPage builds the index of img, with t.pagesMu held. The bytes of
// the page's strings that are new to the table become one chunk, and
// neither the page's table of strings nor t.strs holds a pointer, so the
// garbage collector follows a pointer per chunk and per page, not one
// per string.
func (t *Table) indexPage(img []byte) *PageIndex {
	arity := t.Schema.Arity()
	recs := storage.PageRecords(img)
	n := recs.Len()
	ix := &PageIndex{img: img, spans: make([]uint16, 0, 2*n), fields: make([]uint16, 0, n*arity), arity: arity}
	if t.pageIDs == nil {
		t.seed, t.strs, t.pageIDs = maphash.MakeSeed(), make(map[uint64]strRef), make(map[string]uint16)
	}
	clear(t.pageIDs)
	var fresh []byte // the bytes of the page's strings new to the table
	news, chunk := 0, uint32(len(t.chunks))
	var v tuple.Value
	for range n {
		start, end := recs.Next()
		rec, at := img[start:end], len(ix.fields)
		if ix.fields, ix.Err = tuple.FieldOffsets(ix.fields, rec, arity); ix.Err != nil {
			break
		}
		for i, off := range ix.fields[at:] {
			if tuple.DecodeField(&v, rec, int(off)); v.Kind != tuple.String {
				continue
			}
			id, ok := t.pageIDs[v.S]
			if !ok {
				id = uint16(len(ix.strs))
				t.pageIDs[v.S] = id
				r, ok := t.strs[maphash.String(t.seed, v.S)]
				if !ok || r.in(t.chunks) != v.S {
					r = strRef{chunk, uint16(len(fresh)), uint16(len(fresh) + len(v.S))}
					fresh, news = append(fresh, v.S...), news+1
				}
				ix.strs = append(ix.strs, r)
			}
			ix.fields[at+i] = StringField | id
		}
		ix.spans = append(ix.spans, uint16(start), uint16(end))
	}
	if news > 0 {
		t.chunks = append(t.chunks, string(fresh))
		for _, r := range ix.strs {
			if r.chunk == chunk {
				t.strs[maphash.String(t.seed, r.in(t.chunks))] = r
			}
		}
	}
	ix.chunks = t.chunks
	return ix
}

// Len returns the number of records that passed validation.
func (ix *PageIndex) Len() int { return len(ix.spans) / 2 }

// Record returns record k, k < Len, and one entry per field: a String's
// is StringField|id, any other field's is its offset in the record.
func (ix *PageIndex) Record(k int) (rec []byte, fields []uint16) {
	return ix.img[ix.spans[2*k]:ix.spans[2*k+1]], ix.fields[k*ix.arity : (k+1)*ix.arity]
}

// Str returns the value of a String field Record returned.
func (ix *PageIndex) Str(field uint16) string { return ix.strs[field&^StringField].in(ix.chunks) }

// PageIndex returns the index of img, page num of t's heap, building it
// if no scan has read this image before.
func (t *Table) PageIndex(img []byte, num int32) *PageIndex {
	t.pagesMu.Lock()
	defer t.pagesMu.Unlock()
	for int(num) >= len(t.pages) {
		t.pages = append(t.pages, nil)
	}
	if ix := t.pages[num]; ix == nil || &ix.img[0] != &img[0] {
		t.pages[num] = t.indexPage(img)
	}
	return t.pages[num]
}

// IndexOn returns the index on the named column, or nil.
func (t *Table) IndexOn(column string) *Index {
	for _, ix := range t.Indexes {
		if strings.EqualFold(ix.Column, column) {
			return ix
		}
	}
	return nil
}

// Catalog is the set of known tables. Lookups (Table, Tables) are safe
// to call concurrently with each other and with running queries; DDL
// (CreateTable, CreateIndex, Analyze) takes the write lock
// for the name-table mutation but must not run concurrently with
// queries that use the affected table — the engine runs DDL only while
// idle, matching the paper's load-then-query methodology.
type Catalog struct {
	pool *storage.BufferPool

	mu     sync.RWMutex // guards tables
	tables map[string]*Table
}

// New creates an empty catalog whose tables live on pool.
func New(pool *storage.BufferPool) *Catalog {
	return &Catalog{pool: pool, tables: make(map[string]*Table)}
}

// Pool returns the buffer pool backing this catalog's tables.
func (c *Catalog) Pool() *storage.BufferPool { return c.pool }

// CreateTable registers a new empty table.
func (c *Catalog) CreateTable(name string, schema *tuple.Schema) (*Table, error) {
	key := strings.ToLower(name)
	// Create the heap outside the catalog lock: the name map is the only
	// state the lock guards, and holding it across pool I/O would order
	// Catalog.mu above the shard latches for no benefit.
	heap := storage.CreateHeapFile(c.pool)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[key]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{
		Name:   key,
		Schema: schema,
		Heap:   heap,
	}
	c.tables[key] = t
	return t, nil
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	t, ok := c.tables[strings.ToLower(name)]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("catalog: no table %q", name)
	}
	return t, nil
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Insert appends a row to a table, validating arity and column types.
func (c *Catalog) Insert(t *Table, row tuple.Tuple) error {
	if len(row) != t.Schema.Arity() {
		return fmt.Errorf("catalog: %s: row arity %d, schema arity %d", t.Name, len(row), t.Schema.Arity())
	}
	for i, v := range row {
		if v.Kind != t.Schema.Cols[i].Type {
			return fmt.Errorf("catalog: %s.%s: value kind %v, column type %v",
				t.Name, t.Schema.Cols[i].Name, v.Kind, t.Schema.Cols[i].Type)
		}
	}
	_, err := t.Heap.Append(row.Encode(nil))
	return err
}

// Analyze computes and stores statistics for the table, like running the
// PostgreSQL statistics collection program before the experiments.
func (c *Catalog) Analyze(t *Table) error {
	ts, err := stats.Analyze(t.Heap, t.Schema)
	if err != nil {
		return err
	}
	t.Stats = ts
	return nil
}

// AnalyzeAll analyzes every table.
func (c *Catalog) AnalyzeAll() error {
	for _, t := range c.Tables() {
		if err := c.Analyze(t); err != nil {
			return fmt.Errorf("catalog: analyze %s: %w", t.Name, err)
		}
	}
	return nil
}

// CreateIndex bulk-loads a B+-tree index over an Int column of t.
func (c *Catalog) CreateIndex(t *Table, column string) (*Index, error) {
	colIdx := t.Schema.ColIndex(column)
	if colIdx < 0 {
		return nil, fmt.Errorf("catalog: %s has no column %q", t.Name, column)
	}
	if t.Schema.Cols[colIdx].Type != tuple.Int {
		return nil, fmt.Errorf("catalog: index column %s.%s is not INT", t.Name, column)
	}
	if t.IndexOn(column) != nil {
		return nil, fmt.Errorf("catalog: index on %s.%s already exists", t.Name, column)
	}
	var entries []btree.Entry
	sc := t.Heap.NewScanner()
	for {
		rec, rid, ok := sc.Next()
		if !ok {
			break
		}
		row, err := tuple.Decode(rec, t.Schema.Arity())
		if err != nil {
			return nil, err
		}
		entries = append(entries, btree.Entry{Key: row[colIdx].I, RID: rid})
	}
	if err := sc.Err(); err != nil {
		sc.Close()
		return nil, err
	}
	sc.Close()
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	tree, err := btree.BulkLoad(c.pool, entries)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		Name:   fmt.Sprintf("%s_%s_idx", t.Name, strings.ToLower(column)),
		Table:  t.Name,
		Column: strings.ToLower(column),
		Tree:   tree,
	}
	t.Indexes = append(t.Indexes, ix)
	return ix, nil
}
