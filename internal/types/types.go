// Package types defines the fixed-width value types used throughout the
// engine: 64-bit integers, 64-bit floats, dates (days since 1970-01-01,
// stored in 32 bits), and fixed-width character strings. TPC-H data needs
// nothing else; the engine does not support NULLs because TPC-H has none.
package types

import (
	"fmt"
	"strconv"
)

// TypeID identifies a value type.
type TypeID uint8

const (
	// Int64 is a signed 64-bit integer (keys, counts, quantities).
	Int64 TypeID = iota
	// Float64 is an IEEE-754 double (prices, discounts, aggregates).
	Float64
	// Date is a day count since 1970-01-01, stored in 4 bytes.
	Date
	// Char is a fixed-width byte string, padded with zero bytes.
	Char
)

// String returns the SQL-ish name of the type.
func (t TypeID) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case Date:
		return "DATE"
	case Char:
		return "CHAR"
	default:
		return fmt.Sprintf("TypeID(%d)", uint8(t))
	}
}

// Width returns the in-block storage width of the type in bytes. Char widths
// are per-column and must be supplied by the schema; Width returns 0 for
// Char.
func (t TypeID) Width() int {
	switch t {
	case Int64:
		return 8
	case Float64:
		return 8
	case Date:
		return 4
	default:
		return 0
	}
}

// Datum is a single value of any supported type. Exactly one of I, F, or B
// is meaningful, selected by Ty; Date values use I (as a day count).
type Datum struct {
	Ty TypeID
	I  int64
	F  float64
	B  []byte
}

// NewInt64 returns an Int64 datum.
func NewInt64(v int64) Datum { return Datum{Ty: Int64, I: v} }

// NewFloat64 returns a Float64 datum.
func NewFloat64(v float64) Datum { return Datum{Ty: Float64, F: v} }

// NewDate returns a Date datum from a day count since 1970-01-01.
func NewDate(days int32) Datum { return Datum{Ty: Date, I: int64(days)} }

// NewChar returns a Char datum. The byte slice is referenced, not copied.
func NewChar(b []byte) Datum { return Datum{Ty: Char, B: b} }

// NewString returns a Char datum from a Go string.
func NewString(s string) Datum { return Datum{Ty: Char, B: []byte(s)} }

// Int returns the integer view of the datum (Int64 and Date).
func (d Datum) Int() int64 { return d.I }

// Float returns the float view of the datum. Int64 and Date datums are
// converted, so arithmetic expressions can mix numeric types.
func (d Datum) Float() float64 {
	if d.Ty == Float64 {
		return d.F
	}
	return float64(d.I)
}

// Bytes returns the raw bytes of a Char datum with trailing zero padding
// stripped.
func (d Datum) Bytes() []byte { return TrimPad(d.B) }

// TrimPad strips the trailing zero-byte padding from a fixed-width Char
// value.
func TrimPad(b []byte) []byte {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return b[:n]
}

// Compare orders two datums of the same type: -1, 0, +1. Char values compare
// bytewise with padding stripped; numeric values compare numerically even
// across Int64/Float64.
func Compare(a, b Datum) int {
	switch a.Ty {
	case Char:
		x, y := TrimPad(a.B), TrimPad(b.B)
		n := len(x)
		if len(y) < n {
			n = len(y)
		}
		for i := 0; i < n; i++ {
			if x[i] != y[i] {
				if x[i] < y[i] {
					return -1
				}
				return 1
			}
		}
		switch {
		case len(x) < len(y):
			return -1
		case len(x) > len(y):
			return 1
		}
		return 0
	case Float64:
		return cmpFloat(a.F, b.Float())
	default:
		if b.Ty == Float64 {
			return cmpFloat(float64(a.I), b.F)
		}
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
}

func cmpFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// Equal reports whether two datums are equal under Compare.
func Equal(a, b Datum) bool { return Compare(a, b) == 0 }

// CompareRows orders two same-arity datum rows term by term under Compare,
// flipping term i when desc[i] is true (nil desc means all ascending). It is
// the one multi-term ordering used by both the engine's final-result sort
// and the sort operator's test oracle.
func CompareRows(a, b []Datum, desc []bool) int {
	for i := range a {
		c := Compare(a[i], b[i])
		if c == 0 {
			continue
		}
		if desc != nil && desc[i] {
			return -c
		}
		return c
	}
	return 0
}

// String renders the datum for result printing and tests.
func (d Datum) String() string {
	switch d.Ty {
	case Int64:
		return strconv.FormatInt(d.I, 10)
	case Float64:
		return strconv.FormatFloat(d.F, 'f', 4, 64)
	case Date:
		y, m, day := FromDays(int32(d.I))
		return fmt.Sprintf("%04d-%02d-%02d", y, m, day)
	case Char:
		return string(TrimPad(d.B))
	default:
		return "?"
	}
}
