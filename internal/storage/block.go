package storage

import (
	"encoding/binary"
	"fmt"
	"math"

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
type Block struct {
	schema   *Schema
	format   Format
	capacity int    // max rows
	n        int    // current rows
	data     []byte // one allocation of size >= capacity*rowWidth
	colOff   []int  // ColumnStore: start of each column region in data
}

// NewBlock allocates a block with the given byte budget. Capacity is
// blockBytes / rowWidth, at least 1 row.
func NewBlock(schema *Schema, format Format, blockBytes int) *Block {
	cap := blockBytes / schema.RowWidth()
	if cap < 1 {
		cap = 1
	}
	b := &Block{
		schema:   schema,
		format:   format,
		capacity: cap,
		data:     make([]byte, cap*schema.RowWidth()),
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
func (b *Block) Reset() { b.n = 0 }

// Truncate drops rows from the end so the block holds exactly n rows (no-op
// if it already holds fewer). Cell bytes beyond n are left in place and are
// overwritten by subsequent appends; the scheduler uses this to roll a
// resumed partial block back to its pre-attempt length after a failed work
// order.
func (b *Block) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if b.n > n {
		b.n = n
	}
}

// AllocBytes returns the size of the block's data allocation.
func (b *Block) AllocBytes() int { return len(b.data) }

// UsedBytes returns the bytes occupied by live tuples (n * rowWidth); this is
// what the Section VI memory model counts for materialized intermediates.
func (b *Block) UsedBytes() int { return b.n * b.schema.RowWidth() }

// cell returns the data slice holding column col of row row.
func (b *Block) cell(col, row int) []byte {
	off, stride := b.colLayout(col)
	off += row * stride
	return b.data[off : off+b.schema.ColWidth(col)]
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
	if b.Full() {
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

// AppendFrom appends the projection projIdx of row srcRow of src. Schemas
// must line up (dst column i == src column projIdx[i]); this is the inner
// loop of the select operator's output materialization. It returns false if
// the block is full.
func (b *Block) AppendFrom(src *Block, srcRow int, projIdx []int) bool {
	if b.Full() {
		return false
	}
	for i, sc := range projIdx {
		copy(b.cell(i, b.n), src.cell(sc, srcRow))
	}
	b.n++
	return true
}

// colLayout returns where column col's cells sit in b.data: row r's cell
// starts at off + r*stride. Every columnar kernel resolves it once per column
// instead of once per cell.
func (b *Block) colLayout(col int) (off, stride int) {
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
	Type               types.TypeID
	data               []byte
	off, stride, width int
}

// View returns the in-place view of column col.
func (b *Block) View(col int) ColView {
	off, stride := b.colLayout(col)
	return ColView{Type: b.schema.Col(col).Type, data: b.data, off: off, stride: stride, width: b.schema.ColWidth(col)}
}

// Int returns row r of a numeric column as Datum.I holds it: an Int64's
// value, a Date's day count.
func (v ColView) Int(r int) int64 {
	o := v.off + r*v.stride
	if v.Type == types.Date {
		return int64(int32(binary.LittleEndian.Uint32(v.data[o:])))
	}
	return int64(binary.LittleEndian.Uint64(v.data[o:]))
}

// Float returns row r of a numeric column as Datum.Float sees it.
func (v ColView) Float(r int) float64 {
	if v.Type == types.Float64 {
		return float64frombits(binary.LittleEndian.Uint64(v.data[v.off+r*v.stride:]))
	}
	return float64(v.Int(r))
}

// Bytes returns row r of a Char column, zero padding included.
func (v ColView) Bytes(r int) []byte { return v.data[v.off+r*v.stride:][:v.width] }

// GatherInt64 copies every row of 8-byte integer column col into dst,
// reusing dst's backing array when large enough: the batch kernels' key-column
// load, a tight strided loop instead of n cell() calls. The column must be 8
// bytes wide (Int64/Float64 bits), as with Int64At.
func (b *Block) GatherInt64(col int, dst []int64) []int64 {
	off, stride := b.fixedLayout(col, 8, "GatherInt64")
	dst = sized(dst, b.n)
	for r := range dst {
		dst[r] = int64(binary.LittleEndian.Uint64(b.data[off+r*stride:]))
	}
	return dst
}

// GatherDate widens every row of a 4-byte Date column into dst as int64 day
// counts, reusing dst's backing array when large enough. Together with
// GatherInt64 this covers the fixed-width group-key types of the vectorized
// aggregation path (date keys hash and compare as their day count).
func (b *Block) GatherDate(col int, dst []int64) []int64 {
	off, stride := b.fixedLayout(col, 4, "GatherDate")
	dst = sized(dst, b.n)
	for r := range dst {
		dst[r] = int64(int32(binary.LittleEndian.Uint32(b.data[off+r*stride:])))
	}
	return dst
}

// GatherFloat64 copies every row of an 8-byte Float64 column into dst,
// reusing dst's backing array when large enough — the aggregate-argument
// load of the columnar accumulate kernels.
func (b *Block) GatherFloat64(col int, dst []float64) []float64 {
	off, stride := b.fixedLayout(col, 8, "GatherFloat64")
	dst = sized(dst, b.n)
	for r := range dst {
		dst[r] = float64frombits(binary.LittleEndian.Uint64(b.data[off+r*stride:]))
	}
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
// appended. Column layouts are resolved once per column, not once per cell,
// and 8- and 4-byte cells move as one word load and store each — the select
// operator's and the batch insert kernel's bulk materialization.
func (b *Block) AppendFromMany(src *Block, rows []int32, projIdx []int) int {
	take := rows[:b.room(len(rows))]
	if len(take) == 0 {
		return 0
	}
	for ci, sc := range projIdx {
		b.copyColumn(ci, src, sc, take)
	}
	b.n += len(take)
	return len(take)
}

// room returns how many of n rows still fit in the block.
func (b *Block) room(n int) int {
	return max(0, min(n, b.capacity-b.n))
}

// copyColumn writes column sc of the given src rows into column ci of the
// rows after the block's last one.
func (b *Block) copyColumn(ci int, src *Block, sc int, rows []int32) {
	w := b.schema.ColWidth(ci)
	d, dStride := b.colLayout(ci)
	d += b.n * dStride
	sOff, sStride := src.colLayout(sc)
	switch w {
	case 8:
		for _, r := range rows {
			binary.LittleEndian.PutUint64(b.data[d:], binary.LittleEndian.Uint64(src.data[sOff+int(r)*sStride:]))
			d += dStride
		}
	case 4:
		for _, r := range rows {
			binary.LittleEndian.PutUint32(b.data[d:], binary.LittleEndian.Uint32(src.data[sOff+int(r)*sStride:]))
			d += dStride
		}
	default:
		for _, r := range rows {
			s := sOff + int(r)*sStride
			copy(b.data[d:d+w], src.data[s:s+w])
			d += dStride
		}
	}
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
	for ci, sc := range lproj {
		b.copyColumn(ci, left, sc, lrows)
	}
	for j, sc := range rproj {
		ci := len(lproj) + j
		w := b.schema.ColWidth(ci)
		d, dStride := b.colLayout(ci)
		d += b.n * dStride
		var cur *Block
		var sOff, sStride int
		for i, r := range rrows {
			if src := rights[i]; src == nil {
				clear(b.data[d : d+w])
			} else {
				if src != cur {
					cur = src
					sOff, sStride = src.colLayout(sc)
				}
				s := sOff + int(r)*sStride
				if w == 8 {
					binary.LittleEndian.PutUint64(b.data[d:], binary.LittleEndian.Uint64(src.data[s:]))
				} else {
					copy(b.data[d:d+w], src.data[s:s+w])
				}
			}
			d += dStride
		}
	}
	b.n += n
	return n
}

// AppendGather appends rows gathered from multiple source blocks — row i of
// the batch is row rows[i] of srcs[srcIdx[i]] — stopping when the block
// fills, and returns how many rows were appended. All sources must share a
// schema; projIdx maps destination columns to source columns. Like
// AppendFromMany, layouts resolve once per (column, source-switch), so a
// merged sort stream whose consecutive rows mostly come from the same run
// copies in tight offset-stride segments; this is the sort emit kernel that
// replaces per-row AppendFrom.
func (b *Block) AppendGather(srcs []*Block, srcIdx []int32, rows []int32, projIdx []int) int {
	take := rows[:b.room(len(rows))]
	if len(take) == 0 {
		return 0
	}
	idx := srcIdx[:len(take)]
	for ci, sc := range projIdx {
		w := b.schema.ColWidth(ci)
		d, dStride := b.colLayout(ci)
		d += b.n * dStride
		cur := int32(-1)
		var src *Block
		var sOff, sStride int
		for i, r := range take {
			if idx[i] != cur {
				cur = idx[i]
				src = srcs[cur]
				sOff, sStride = src.colLayout(sc)
			}
			s := sOff + int(r)*sStride
			copy(b.data[d:d+w], src.data[s:s+w])
			d += dStride
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
