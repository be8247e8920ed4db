package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// tableUID hands every table a process-unique identity (see Table.UID).
var tableUID int64

// Table is an ordered list of blocks sharing one schema, format, and block
// size. Base tables are built once by a loader; intermediate tables are
// appended concurrently by work orders, so Append is synchronized.
type Table struct {
	name       string
	schema     *Schema
	format     Format
	blockBytes int
	uid        int64

	mu     sync.Mutex
	blocks []*Block

	version atomic.Int64
}

// NewTable returns an empty table.
func NewTable(name string, schema *Schema, format Format, blockBytes int) *Table {
	return &Table{
		name: name, schema: schema, format: format, blockBytes: blockBytes,
		uid: atomic.AddInt64(&tableUID, 1),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// UID returns the table's process-unique identity. Two tables never share a
// UID even when they share a name, so a plan fingerprint keyed on UID can
// never confuse one loaded dataset with another.
func (t *Table) UID() int64 { return t.uid }

// Version returns the table's data version, starting at 0. Consumers that
// cache results derived from the table (internal/reuse) key their validity
// on it.
func (t *Table) Version() int64 { return t.version.Load() }

// BumpVersion advances the data version; call it after mutating the table's
// contents so version-keyed caches invalidate.
func (t *Table) BumpVersion() { t.version.Add(1) }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Append adds a filled block to the table.
func (t *Table) Append(b *Block) {
	t.mu.Lock()
	t.blocks = append(t.blocks, b)
	t.mu.Unlock()
}

// NumBlocks returns the number of blocks.
func (t *Table) NumBlocks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.blocks)
}

// Block returns the i-th block.
func (t *Table) Block(i int) *Block {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.blocks[i]
}

// Blocks returns a snapshot of the block list.
func (t *Table) Blocks() []*Block {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Block, len(t.blocks))
	copy(out, t.blocks)
	return out
}

// NumRows returns the total tuple count.
func (t *Table) NumRows() int64 {
	var n int64
	for _, b := range t.Blocks() {
		n += int64(b.NumRows())
	}
	return n
}

// UsedBytes returns total live tuple bytes across blocks.
func (t *Table) UsedBytes() int64 {
	var n int64
	for _, b := range t.Blocks() {
		n += int64(b.UsedBytes())
	}
	return n
}

// AllocBytes returns total allocated bytes across blocks.
func (t *Table) AllocBytes() int64 {
	var n int64
	for _, b := range t.Blocks() {
		n += int64(b.AllocBytes())
	}
	return n
}

// Loader bulk-appends rows to a table, managing block boundaries. It is not
// safe for concurrent use; generators load single-threaded per table.
type Loader struct {
	t   *Table
	cur *Block
}

// NewLoader returns a loader for t.
func NewLoader(t *Table) *Loader { return &Loader{t: t} }

// Append adds one row.
func (l *Loader) Append(vals ...types.Datum) {
	if l.cur == nil {
		l.cur = NewBlock(l.t.schema, l.t.format, l.t.blockBytes)
	}
	if !l.cur.AppendRow(vals...) {
		l.t.Append(l.cur)
		l.cur = NewBlock(l.t.schema, l.t.format, l.t.blockBytes)
		l.cur.AppendRow(vals...)
	}
}

// Close flushes the final partial block.
func (l *Loader) Close() {
	if l.cur != nil && l.cur.NumRows() > 0 {
		l.t.Append(l.cur)
	}
	l.cur = nil
}

// Catalog maps table names to tables.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*Table)} }

// Add registers a table; it panics if the name is taken (a plan-construction
// error).
func (c *Catalog) Add(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[t.name]; ok {
		panic(fmt.Sprintf("storage: table %q already exists", t.name))
	}
	c.tables[t.name] = t
}

// Get returns the named table, or nil.
func (c *Catalog) Get(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// MustGet returns the named table and panics if absent.
func (c *Catalog) MustGet(name string) *Table {
	t := c.Get(name)
	if t == nil {
		panic(fmt.Sprintf("storage: no table %q", name))
	}
	return t
}
