// Package catalog tracks the tables, indexes, and statistics known to the
// engine. It is deliberately minimal: the paper's workload is read-only
// SPJ queries over pre-loaded relations.
package catalog

import (
	"fmt"
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
