package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/stats"
	"repro/internal/types"
)

// Format selects the physical tuple layout inside a block.
type Format uint8

const (
	// RowStore lays each tuple out contiguously (NSM).
	RowStore Format = iota
	// ColumnStore splits the block into one contiguous region per column
	// (DSM inside a block, as in Quickstep).
	ColumnStore
)

// String returns "row" or "column".
func (f Format) String() string {
	if f == RowStore {
		return "row"
	}
	return "column"
}

// Block is a fixed-capacity container of tuples of one schema in one format.
// A block is the unit of storage, of work-order input, and — grouped by the
// UoT value — of inter-operator transfer. Blocks are not internally
// synchronized: the scheduler guarantees a block is written by at most one
// work order at a time (Section III-A).
//
// A block may instead be a view (Pool.CheckOutView): a selection of rows of
// base-table blocks, which outlive every run, projected through proj. A view
// stores no cells: its row r is row rows[r] of the base block of the segment
// holding r, and data is the rows buffer. A dense view has neither: each of
// its segments is a run of base rows, recorded by its first row. Every read
// accessor gives what it gives on the view's Materialize, and the batch
// kernels resolve a base block's layout once per segment; appending cells to
// a view panics.
type Block struct {
	schema   *Schema
	format   Format
	capacity int    // max rows
	n        int    // current rows
	data     []byte // one allocation of size >= capacity*rowWidth (a view's rows buffer)
	colOff   []int  // ColumnStore: start of each column region in data

	proj []int     // a view's column i is column proj[i] of its base blocks; nil for a block
	rows []int32   // a listed view's base rows, aliasing data; nil in a dense view
	segs []viewSeg // a view's base blocks, in row order

	// A temp block's lifetime (see blockState): where it is on its path
	// through the pool, how many readers hold it once parked, and the gauge
	// Pool.Keep moved its bytes to. Set by Pool.Cut: data holds the block's
	// rows exactly, so the freelist, whose sizes are budgets, must not take
	// it.
	state  blockState
	refs   int
	keptIn *stats.MemGauge
	cut    bool
}

// viewSeg is one base block of a view: rows [previous end, end) of the view
// are rows of base, listed in the view's rows or, in a dense view, the run
// of base rows from first (0 in a listed view).
type viewSeg struct {
	base  *Block
	first int
	end   int
}

// NewBlock allocates a block with the given byte budget. Capacity is
// blockBytes / rowWidth, at least 1 row.
func NewBlock(schema *Schema, format Format, blockBytes int) *Block {
	return newBlockOver(schema, format, blockBytes, nil)
}

// newBlockOver lays an empty block with the given byte budget over buf, whose
// capacity must hold capacity*rowWidth bytes (nil allocates exactly that).
// The pool lays checkouts over recycled allocations this way.
func newBlockOver(schema *Schema, format Format, blockBytes int, buf []byte) *Block {
	cap := max(1, blockBytes/schema.RowWidth())
	size := cap * schema.RowWidth()
	if buf == nil {
		buf = make([]byte, size)
	}
	b := &Block{
		schema:   schema,
		format:   format,
		capacity: cap,
		data:     buf[:size],
	}
	if format == ColumnStore {
		b.colOff = make([]int, schema.NumCols())
		off := 0
		for i := 0; i < schema.NumCols(); i++ {
			b.colOff[i] = off
			off += cap * schema.ColWidth(i)
		}
	}
	return b
}

// Schema returns the block's schema.
func (b *Block) Schema() *Schema { return b.schema }

// Format returns the block's layout.
func (b *Block) Format() Format { return b.format }

// NumRows returns the number of tuples currently stored.
func (b *Block) NumRows() int { return b.n }

// Capacity returns the maximum number of tuples the block can hold.
func (b *Block) Capacity() int { return b.capacity }

// Full reports whether the block cannot accept another tuple.
func (b *Block) Full() bool { return b.n >= b.capacity }

// Reset empties the block for reuse without freeing its allocation.
func (b *Block) Reset() { b.Truncate(0) }

// IsView reports whether the block is a view over base blocks.
func (b *Block) IsView() bool { return b.proj != nil }

// Truncate drops rows from the end so the block holds exactly n rows (no-op
// if it already holds fewer). Cell bytes beyond n are left in place and are
// overwritten by subsequent appends; the scheduler uses this to roll a
// resumed partial block back to its pre-attempt length after a failed work
// order. A view also drops the segments past row n.
func (b *Block) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if b.n > n {
		b.n = n
	}
	for k := len(b.segs) - 1; k >= 0 && b.segStart(k) >= n; k-- {
		b.segs = b.segs[:k]
	}
	if k := len(b.segs) - 1; k >= 0 {
		b.segs[k].end = min(b.segs[k].end, n)
	}
}

// segStart returns the first view row of segment k.
func (b *Block) segStart(k int) int {
	if k == 0 {
		return 0
	}
	return b.segs[k-1].end
}

// segOf returns the segment holding view row r.
func (b *Block) segOf(r int) int {
	lo, hi := 0, len(b.segs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.segs[m].end <= r {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(b.segs) {
		panic("storage: view row out of range")
	}
	return lo
}

// Sources calls fn for each stretch of the block's rows that lies in one
// block with a layout, in row order: n rows of src, listed in rows, or the
// run first..first+n-1 when rows is nil. A block is the run (b, 0, n), a
// listed view's segments are their base block and base rows (aliasing the
// view's rows buffer), a dense view's their base block and run. Column c of
// the block is column BaseCol(c) of every source.
func (b *Block) Sources(fn func(src *Block, first, n int, rows []int32)) {
	if b.proj == nil {
		fn(b, 0, b.n, nil)
		return
	}
	b.eachSeg(func(lo, hi int, base *Block, first int, rows []int32) {
		fn(base, first, hi-lo, rows)
	})
}

// eachSeg calls fn for each segment of view b, in row order: view rows
// [lo, hi) are base rows rows of base, or, in a dense view (rows nil), the
// run of base rows from first.
func (b *Block) eachSeg(fn func(lo, hi int, base *Block, first int, rows []int32)) {
	lo := 0
	for _, sg := range b.segs {
		var rows []int32
		if b.rows != nil {
			rows = b.rows[lo:sg.end]
		}
		fn(lo, sg.end, sg.base, sg.first, rows)
		lo = sg.end
	}
}

// BaseCol returns the column of the block's sources (see Sources) that
// holds its column c: c itself for a block, the projected base column for a
// view.
func (b *Block) BaseCol(c int) int {
	if b.proj == nil {
		return c
	}
	return b.proj[c]
}

// cutToRows moves the block's cells into an allocation of exactly its rows,
// laid out for a capacity of its row count, and returns the old allocation.
// A full block, and a dense view, which has no allocation, are left alone
// (nil).
func (b *Block) cutToRows() []byte {
	if b.n >= b.capacity || b.proj != nil && b.rows == nil {
		return nil
	}
	old := b.data
	if b.proj != nil {
		buf := make([]byte, 4*b.n)
		copy(buf, old)
		b.rows = unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(buf))), b.n)
		b.data = buf
	} else {
		rw := b.schema.RowWidth()
		m := newBlockOver(b.schema, b.format, max(b.n, 1)*rw, nil)
		if b.format == RowStore {
			copy(m.data, old[:b.n*rw])
		} else {
			for c, off := range b.colOff {
				w := b.schema.ColWidth(c)
				copy(m.data[m.colOff[c]:], old[off:off+b.n*w])
			}
		}
		b.data, b.colOff = m.data, m.colOff
	}
	b.capacity, b.cut = b.n, true
	return old
}

// AllocBytes returns the size of the block's data allocation: a listed
// view's rows buffer, 4 bytes a row; 0 for a dense view.
func (b *Block) AllocBytes() int { return len(b.data) }

// UsedBytes returns the bytes occupied by live tuples (n * rowWidth); this is
// what the Section VI memory model counts for materialized intermediates. A
// view reports what its Materialize holds.
func (b *Block) UsedBytes() int { return b.n * b.schema.RowWidth() }

// cell returns the data slice holding column col of row row.
func (b *Block) cell(col, row int) []byte {
	if b.proj != nil {
		k := b.segOf(row)
		return b.segs[k].base.cell(b.proj[col], b.baseRow(k, row))
	}
	off, stride := b.colLayout(col)
	off += row * stride
	return b.data[off : off+b.schema.ColWidth(col)]
}

// baseRow returns the base row of view row r, which lies in segment k.
func (b *Block) baseRow(k, r int) int {
	if b.rows == nil {
		return b.segs[k].first + r - b.segStart(k)
	}
	return int(b.rows[r])
}

// Int64At reads an Int64 column value.
func (b *Block) Int64At(col, row int) int64 {
	return int64(binary.LittleEndian.Uint64(b.cell(col, row)))
}

// Float64At reads a Float64 column value.
func (b *Block) Float64At(col, row int) float64 {
	return float64frombits(binary.LittleEndian.Uint64(b.cell(col, row)))
}

// DateAt reads a Date column value as a day count.
func (b *Block) DateAt(col, row int) int32 {
	return int32(binary.LittleEndian.Uint32(b.cell(col, row)))
}

// BytesAt reads the raw fixed-width bytes of a Char column value, including
// zero padding. The returned slice aliases block memory; callers must not
// hold it across a block Reset.
func (b *Block) BytesAt(col, row int) []byte { return b.cell(col, row) }

// DatumAt reads any column value as a Datum. Char datums alias block memory.
func (b *Block) DatumAt(col, row int) types.Datum {
	switch b.schema.Col(col).Type {
	case types.Int64:
		return types.NewInt64(b.Int64At(col, row))
	case types.Float64:
		return types.NewFloat64(b.Float64At(col, row))
	case types.Date:
		return types.NewDate(b.DateAt(col, row))
	default:
		return types.NewChar(b.BytesAt(col, row))
	}
}

func (b *Block) setCell(col, row int, d types.Datum) {
	c := b.cell(col, row)
	switch b.schema.Col(col).Type {
	case types.Int64:
		binary.LittleEndian.PutUint64(c, uint64(d.I))
	case types.Float64:
		binary.LittleEndian.PutUint64(c, float64bits(d.F))
	case types.Date:
		binary.LittleEndian.PutUint32(c, uint32(int32(d.I)))
	default:
		n := copy(c, d.B)
		for i := n; i < len(c); i++ {
			c[i] = 0
		}
	}
}

// AppendRow appends one tuple given as datums in schema order. It returns
// false, leaving the block unchanged, if the block is full.
func (b *Block) AppendRow(vals ...types.Datum) bool {
	if b.room(1) == 0 {
		return false
	}
	if len(vals) != b.schema.NumCols() {
		panic(fmt.Sprintf("storage: AppendRow got %d values for %d columns", len(vals), b.schema.NumCols()))
	}
	for i, d := range vals {
		b.setCell(i, b.n, d)
	}
	b.n++
	return true
}

// colLayout returns where column col's cells sit in b.data: row r's cell
// starts at off + r*stride. Every columnar kernel resolves it once per column
// instead of once per cell. A view has no layout of its own; kernels resolve
// its base blocks' instead.
func (b *Block) colLayout(col int) (off, stride int) {
	if b.proj != nil {
		panic("storage: a view has no column layout")
	}
	if b.format == RowStore {
		return b.schema.ColOffset(col), b.schema.RowWidth()
	}
	return b.colOff[col], b.schema.ColWidth(col)
}

// fixedLayout is colLayout for a kernel that needs a column of one width.
func (b *Block) fixedLayout(col, width int, kernel string) (off, stride int) {
	if w := b.schema.ColWidth(col); w != width {
		panic(fmt.Sprintf("storage: %s on %d-byte column", kernel, w))
	}
	return b.colLayout(col)
}

// ColView reads one column's cells in place, with its layout resolved once:
// the typed filter and arithmetic kernels of internal/expr load a cell per
// row through it without building a Datum. It aliases block memory.
type ColView struct {
	Type types.TypeID
	Cells
	width int
}

// Cells is a column's cells in place: row r's cell starts at r*stride in
// data. It is small enough for the compiler to keep in registers across a
// kernel's loop, which a whole ColView is not. Int64, Date and Float64 load a
// cell without looking at the column's type: the typed kernels pick one per
// column, not per row.
type Cells struct {
	data   []byte
	stride int
}

// View returns the in-place view of column col. A view block's column is
// gathered into a new buffer (ViewInto reuses one) unless it is one run.
func (b *Block) View(col int) ColView { return b.ViewInto(col, nil) }

// ViewInto is View, gathering a view block's column into buf, reused when
// large enough; the result aliases the block, a dense view's one base block,
// or buf.
func (b *Block) ViewInto(col int, buf []byte) ColView {
	v := ColView{Type: b.schema.Col(col).Type, width: b.schema.ColWidth(col)}
	if b.proj == nil {
		off, stride := b.colLayout(col)
		v.Cells = Cells{b.data[off:], stride}
		return v
	}
	if len(b.segs) == 1 && b.rows == nil {
		sg := b.segs[0]
		off, stride := sg.base.colLayout(b.proj[col])
		v.Cells = Cells{sg.base.data[off+sg.first*stride:], stride}
		return v
	}
	buf = sized(buf, b.n*v.width)
	b.eachSeg(func(lo, hi int, base *Block, first int, rows []int32) {
		copySeg(v.width, buf, lo*v.width, v.width, base, b.proj[col], first, hi-lo, rows)
	})
	v.Cells = Cells{buf, v.width}
	return v
}

// copySeg writes column sc of n rows of base — rows, or the run from first
// when rows is nil — to consecutive w-byte cells of dst from d, dStride
// apart.
func copySeg(w int, dst []byte, d, dStride int, base *Block, sc, first, n int, rows []int32) {
	off, stride := base.colLayout(sc)
	if rows == nil {
		copyRun(w, dst, d, dStride, base.data, off+first*stride, stride, n)
		return
	}
	copyCells(w, dst, d, dStride, base.data, off, stride, base.capacity, rows)
}

// CharView is a char vector laid out like a column: row r's value is
// data[r*stride:][:width], zero-padded to width. A stride of 0 repeats one
// value for every row. The expression evaluator hands out computed char
// vectors, and constants, this way.
func CharView(data []byte, stride, width int) ColView {
	return ColView{Type: types.Char, Cells: Cells{data, stride}, width: width}
}

// Int returns row r of a numeric column as Datum.I holds it: an Int64's
// value, a Date's day count.
func (v ColView) Int(r int) int64 {
	if v.Type == types.Date {
		return v.Date(r)
	}
	return v.Int64(r)
}

// Float returns row r of a numeric column as Datum.Float sees it.
func (v ColView) Float(r int) float64 {
	if v.Type == types.Float64 {
		return v.Float64(r)
	}
	return float64(v.Int(r))
}

// Bytes returns row r of a Char column, zero padding included.
func (v ColView) Bytes(r int) []byte { return v.data[r*v.stride:][:v.width] }

// Width returns the column's cell width in bytes.
func (v ColView) Width() int { return v.width }

// Int64 returns row r of an Int64 column.
func (c Cells) Int64(r int) int64 { return int64(binary.LittleEndian.Uint64(c.data[r*c.stride:])) }

// Int64s copies rows lo, lo+1, ..., lo+len(dst)-1 of an 8-byte column into
// dst: one copy when the cells are contiguous (a column-store column), else
// one strided loop.
func (c Cells) Int64s(lo int, dst []int64) {
	gather64(dst, c.data, lo*c.stride, c.stride, len(dst), nil)
}

// Date returns row r of a Date column as its day count.
func (c Cells) Date(r int) int64 {
	return int64(int32(binary.LittleEndian.Uint32(c.data[r*c.stride:])))
}

// Float64 returns row r of a Float64 column.
func (c Cells) Float64(r int) float64 {
	return float64frombits(binary.LittleEndian.Uint64(c.data[r*c.stride:]))
}

// GatherInt64 copies every row of 8-byte integer column col into dst,
// reusing dst's backing array when large enough: the batch kernels' key-column
// load, one typed strided loop (one copy for a column-store column) instead
// of n cell() calls. The column must be 8 bytes wide (Int64/Float64 bits), as
// with Int64At.
func (b *Block) GatherInt64(col int, dst []int64) []int64 {
	dst = sized(dst, b.n)
	b.eachSource(col, 8, "GatherInt64", func(lo, hi int, data []byte, off, stride, lim int, rows []int32) {
		gather64(dst[lo:hi], data, off, stride, lim, rows)
	})
	return dst
}

// eachSource resolves where the cells of column col of every row lie: once
// for a block (rows nil: row r's cell is the layout's row r), once per
// segment for a view, whose rows [lo, hi) are base rows rows of data, or,
// in a dense view, the layout's rows from 0 on: its run's layout is shifted
// to the run's first row. The column must be width bytes wide.
func (b *Block) eachSource(col, width int, kernel string, fn func(lo, hi int, data []byte, off, stride, lim int, rows []int32)) {
	if b.proj == nil {
		off, stride := b.fixedLayout(col, width, kernel)
		fn(0, b.n, b.data, off, stride, b.capacity, nil)
		return
	}
	b.eachSeg(func(lo, hi int, base *Block, first int, rows []int32) {
		off, stride := base.fixedLayout(b.proj[col], width, kernel)
		fn(lo, hi, base.data, off+first*stride, stride, base.capacity-first, rows)
	})
}

// GatherDate widens every row of a 4-byte Date column into dst as int64 day
// counts, reusing dst's backing array when large enough. Together with
// GatherInt64 this covers the fixed-width group-key types of the vectorized
// aggregation path (date keys hash and compare as their day count).
func (b *Block) GatherDate(col int, dst []int64) []int64 {
	dst = sized(dst, b.n)
	b.eachSource(col, 4, "GatherDate", func(lo, hi int, data []byte, off, stride, lim int, rows []int32) {
		gatherDate(dst[lo:hi], data, off, stride, lim, rows)
	})
	return dst
}

// GatherFloat64 copies every row of an 8-byte Float64 column into dst,
// reusing dst's backing array when large enough — the aggregate-argument
// load of the columnar accumulate kernels.
func (b *Block) GatherFloat64(col int, dst []float64) []float64 {
	dst = sized(dst, b.n)
	b.eachSource(col, 8, "GatherFloat64", func(lo, hi int, data []byte, off, stride, lim int, rows []int32) {
		gather64(dst[lo:hi], data, off, stride, lim, rows)
	})
	return dst
}

// sized returns s with length n, reusing its backing array when large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AppendFromMany appends the projection projIdx of the given src rows (in
// order), stopping when the block fills, and returns how many rows were
// appended. Column layouts are resolved once per column, not once per cell
// (for a view src, once per run of rows in one base block), and 8- and
// 4-byte cells move as one word load and store each — the select
// operator's and the batch insert kernel's bulk materialization.
func (b *Block) AppendFromMany(src *Block, rows []int32, projIdx []int) int {
	take := rows[:b.room(len(rows))]
	if len(take) == 0 {
		return 0
	}
	b.copyColumns(src, take, projIdx)
	b.n += len(take)
	return len(take)
}

// room returns how many of n rows still fit in the block.
func (b *Block) room(n int) int {
	if b.proj != nil {
		panic("storage: appending cells to a view")
	}
	return max(0, min(n, b.capacity-b.n))
}

// copyColumns writes the projection projIdx of the given src rows into the
// block's first columns, in the rows after its last one.
func (b *Block) copyColumns(src *Block, rows []int32, projIdx []int) {
	if src.proj == nil {
		for ci, sc := range projIdx {
			d, dStride := b.colLayout(ci)
			sOff, sStride := src.colLayout(sc)
			copyCells(b.schema.ColWidth(ci), b.data, d+b.n*dStride, dStride, src.data, sOff, sStride, src.capacity, rows)
		}
		return
	}
	var it baseRuns
	it.v, it.rows = src, rows
	for it.next() {
		for ci, sc := range projIdx {
			d, dStride := b.colLayout(ci)
			sOff, sStride := it.base.colLayout(src.proj[sc])
			copyCells(b.schema.ColWidth(ci), b.data, d+(b.n+it.at)*dStride, dStride, it.base.data, sOff, sStride, it.base.capacity, it.buf[:it.n])
		}
	}
}

// baseRuns walks rows of view v as runs of base rows: each run lies in one
// base block and is at most len(buf) long. The runs follow rows' order;
// ascending rows resolve their segment without a search.
type baseRuns struct {
	v    *Block
	rows []int32
	// The current run: its base block, where it starts in rows, and its n
	// base rows in buf.
	base  *Block
	at, n int
	next0 int // start of the next run in rows
	k     int // segment of the current run
	buf   [256]int32
}

func (it *baseRuns) next() bool {
	if it.next0 >= len(it.rows) {
		return false
	}
	v := it.v
	it.at = it.next0
	if r := int(it.rows[it.at]); it.base == nil || r < v.segStart(it.k) || r >= v.segs[it.k].end {
		it.k = v.segOf(r)
	}
	lo, hi := v.segStart(it.k), v.segs[it.k].end
	m := 0
	for _, r := range it.rows[it.at:] {
		if int(r) < lo || int(r) >= hi || m == len(it.buf) {
			break
		}
		it.buf[m] = int32(v.baseRow(it.k, int(r)))
		m++
	}
	it.base, it.n = v.segs[it.k].base, m
	it.next0 = it.at + m
	return true
}

// AppendView appends the given rows of base block base to the listed view,
// stopping when it fills, and returns how many rows were appended.
func (b *Block) AppendView(base *Block, rows []int32) int {
	if b.proj == nil || b.rows == nil || base.proj != nil {
		panic("storage: AppendView needs a listed view over a block")
	}
	take := rows[:max(0, min(len(rows), b.capacity-b.n))]
	if len(take) == 0 {
		return 0
	}
	copy(b.rows[b.n:], take)
	b.n += len(take)
	if k := len(b.segs) - 1; k >= 0 && b.segs[k].base == base {
		b.segs[k].end = b.n
	} else {
		b.segs = append(b.segs, viewSeg{base: base, end: b.n})
	}
	return len(take)
}

// AppendDense appends base rows from, from+1, ... of base block base to the
// dense view as one run, stopping when it fills, and returns how many rows
// were appended.
func (b *Block) AppendDense(base *Block, from int) int {
	if b.proj == nil || b.rows != nil || base.proj != nil {
		panic("storage: AppendDense needs a dense view over a block")
	}
	take := max(0, min(base.n-from, b.capacity-b.n))
	if take == 0 {
		return 0
	}
	b.n += take
	b.segs = append(b.segs, viewSeg{base: base, first: from, end: b.n})
	return take
}

// AppendPairs appends joined tuples, column at a time: tuple i is the
// projection lproj of row lrows[i] of left followed by the projection rproj
// of row rrows[i] of rights[i], or zeros where rights[i] is nil (left outer
// join). It stops when the block fills and returns how many tuples were
// appended. All non-nil rights must share one schema.
func (b *Block) AppendPairs(left *Block, lrows []int32, lproj []int, rights []*Block, rrows []int32, rproj []int) int {
	n := b.room(len(lrows))
	if n == 0 {
		return 0
	}
	lrows, rights, rrows = lrows[:n], rights[:n], rrows[:n]
	b.copyColumns(left, lrows, lproj)
	b.pairColumns(len(lproj), rights, rrows, rproj)
	b.n += n
	return n
}

// AppendRows appends rows gathered from many source blocks, column at a
// time: row i is the projection proj of row rows[i] of srcs[i], or zeros
// where srcs[i] is nil. It stops when the block fills and returns how many
// rows were appended. All non-nil sources must share one schema and be
// blocks, not views — the sort merge's output kernel, whose consecutive rows
// mostly come from one run.
func (b *Block) AppendRows(srcs []*Block, rows []int32, proj []int) int {
	n := b.room(len(rows))
	if n == 0 {
		return 0
	}
	b.pairColumns(0, srcs[:n], rows[:n], proj)
	b.n += n
	return n
}

// pairColumns writes column proj[j] of row rows[i] of srcs[i] (zeros where
// srcs[i] is nil) to column first+j of the block's row b.n+i.
func (b *Block) pairColumns(first int, srcs []*Block, rows []int32, proj []int) {
	for j, sc := range proj {
		ci := first + j
		d, dStride := b.colLayout(ci)
		pairCells(b.schema.ColWidth(ci), b.data, d+b.n*dStride, dStride, srcs, sc, rows)
	}
}

// ColSource is one column of computed values for AppendColumns: I for an
// Int64 or Date column, F for a Float64 column, C for a Char column, whose
// cells are cut or zero-padded to the column's width as AppendRow does.
type ColSource struct {
	I []int64
	F []float64
	C ColView
}

// AppendColumns appends the given rows of computed columns, column at a
// time: column ci of tuple i is row rows[i] of srcs[ci]. It stops when the
// block fills and returns how many tuples were appended.
func (b *Block) AppendColumns(srcs []ColSource, rows []int32) int {
	take := rows[:b.room(len(rows))]
	if len(take) == 0 {
		return 0
	}
	for ci, s := range srcs {
		d, stride := b.colLayout(ci)
		d += b.n * stride
		switch b.schema.Col(ci).Type {
		case types.Int64:
			for _, r := range take {
				binary.LittleEndian.PutUint64(b.data[d:], uint64(s.I[r]))
				d += stride
			}
		case types.Date:
			for _, r := range take {
				binary.LittleEndian.PutUint32(b.data[d:], uint32(int32(s.I[r])))
				d += stride
			}
		case types.Float64:
			for _, r := range take {
				binary.LittleEndian.PutUint64(b.data[d:], float64bits(s.F[r]))
				d += stride
			}
		default:
			w := b.schema.ColWidth(ci)
			for _, r := range take {
				cell := b.data[d : d+w]
				clear(cell[copy(cell, s.C.Bytes(int(r))):])
				d += stride
			}
		}
	}
	b.n += len(take)
	return len(take)
}

// Row materializes row i as a datum slice (Char datums alias block memory).
func (b *Block) Row(i int) []types.Datum {
	out := make([]types.Datum, b.schema.NumCols())
	for c := range out {
		out[c] = b.DatumAt(c, i)
	}
	return out
}

func float64bits(f float64) uint64     { return math.Float64bits(f) }
func float64frombits(u uint64) float64 { return math.Float64frombits(u) }
