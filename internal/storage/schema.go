// Package storage implements the block-based storage manager: fixed-size
// storage blocks in row-store and column-store formats, tables as lists of
// blocks, the thread-safe global pool of temporary output blocks that work
// orders check out and check in (Quickstep's design, Section III-A of the
// paper), and byte-exact memory accounting.
package storage

import (
	"fmt"

	"repro/internal/types"
)

// Column describes one attribute of a schema. Width is the storage width in
// bytes and is only consulted for Char columns; fixed types carry their own
// width.
type Column struct {
	Name  string
	Type  types.TypeID
	Width int
}

func (c Column) width() int {
	if c.Type == types.Char {
		return c.Width
	}
	return c.Type.Width()
}

// Schema is an ordered list of columns with precomputed row layout. Schemas
// are immutable after construction and shared freely across blocks.
type Schema struct {
	cols     []Column
	offsets  []int // byte offset of each column within a row-store tuple
	rowWidth int   // total bytes per tuple
}

// NewSchema builds a schema from columns. It panics on Char columns without
// a positive width, since that is a programming error in plan construction.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{cols: cols, offsets: make([]int, len(cols))}
	for i, c := range cols {
		if c.Type == types.Char && c.Width <= 0 {
			panic(fmt.Sprintf("storage: Char column %q needs a positive width", c.Name))
		}
		s.offsets[i] = s.rowWidth
		s.rowWidth += c.width()
	}
	if s.rowWidth == 0 {
		s.rowWidth = 1 // zero-column schemas (COUNT(*)-only plans) still need rows
	}
	return s
}

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.cols) }

// Col returns the i-th column descriptor.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustColIndex is ColIndex that panics on a missing column; plan builders use
// it so typos fail fast at plan-construction time.
func (s *Schema) MustColIndex(name string) int {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("storage: schema has no column %q", name))
	}
	return i
}

// RowWidth returns the total bytes per tuple.
func (s *Schema) RowWidth() int { return s.rowWidth }

// ColWidth returns the storage width in bytes of column i.
func (s *Schema) ColWidth(i int) int { return s.cols[i].width() }

// ColOffset returns the byte offset of column i within a row-store tuple.
func (s *Schema) ColOffset(i int) int { return s.offsets[i] }

// Project returns a new schema containing the given columns of s, in order.
func (s *Schema) Project(idxs []int) *Schema {
	cols := make([]Column, len(idxs))
	for i, ix := range idxs {
		cols[i] = s.cols[ix]
	}
	return NewSchema(cols...)
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	out := "("
	for i, c := range s.cols {
		if i > 0 {
			out += ", "
		}
		out += c.Name + " " + c.Type.String()
		if c.Type == types.Char {
			out += fmt.Sprintf("(%d)", c.Width)
		}
	}
	return out + ")"
}
