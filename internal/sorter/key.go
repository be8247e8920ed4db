// Package sorter implements the vectorized sort kernels behind exec.SortOp:
// fixed-width memcmp-ordered normalized keys, per-run sorting (LSD radix for
// single-word keys, branch-light comparison sort otherwise), a k-way
// loser-tree merge with range partitioning for parallel merge work orders,
// and a bounded top-k heap for ORDER BY ... LIMIT.
//
// The normalized-key idea (see "Fine-Tuning Data Structures for Analytical
// Query Processing") is to encode every ORDER BY term into one uint64 word
// whose unsigned comparison matches the term's value order, descending terms
// by bitwise inversion. The engine has no NULLs, so no term needs a validity
// word. Sorting then touches only (word..., rowID) pairs: no Datum boxing, no
// per-comparison type dispatch, and ties resolve by row id, which makes every
// sort in this package a deterministic total order.
//
// Char terms wider than 8 bytes keep only a big-endian prefix word and are
// "approximate": equal prefixes are resolved through a Tie callback that
// compares the full source values. Layout.Exact reports whether a term list
// is free of approximate terms; only exact layouts support range
// partitioning (Splitters/LowerBound).
package sorter

import "math"

// TermType is the value type of one ORDER BY term.
type TermType uint8

// Term value types.
const (
	// Int64 is a signed 64-bit integer term; a date term is its day count.
	Int64 TermType = iota
	// Float64 is an IEEE-754 double term.
	Float64
	// Bytes is a fixed-width byte-string term; Width > 8 makes the term
	// approximate (prefix word + tie-break).
	Bytes
)

// Term describes one ORDER BY key for normalized-key encoding.
type Term struct {
	Type TermType
	Desc bool
	// Width is the fixed column width of a Bytes term.
	Width int
}

// Layout is the compiled normalized-key layout of a term list: term t is word
// t of a row's key.
type Layout struct {
	Terms []Term
	// Words is the key width in uint64 words per row, one per term.
	Words int
	// Exact reports that word comparison alone is the full term order (no
	// approximate byte-string prefixes).
	Exact bool

	approx []bool
}

// NewLayout compiles a term list.
func NewLayout(terms []Term) Layout {
	l := Layout{Terms: terms, Words: len(terms), Exact: true, approx: make([]bool, len(terms))}
	for i, t := range terms {
		if t.Type == Bytes && t.Width > 8 {
			l.approx[i] = true
			l.Exact = false
		}
	}
	return l
}

// NormInt64 maps a signed integer to a uint64 with the same order.
func NormInt64(v int64) uint64 { return uint64(v) ^ (1 << 63) }

// NormFloat64 maps a double to a uint64 with the same order: positive values
// get the sign bit set, negative values are wholly inverted (the standard
// IEEE-754 total-order flip). -0.0 orders before +0.0 and NaNs above +Inf;
// neither occurs in engine data.
func NormFloat64(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits>>63 != 0 {
		return ^bits
	}
	return bits | (1 << 63)
}

// NormBytes packs the first 8 bytes of b big-endian (zero-padded), so word
// order equals bytewise order of the zero-padded value. For fixed-width
// strings of width <= 8 this is the exact order; wider strings order by this
// prefix and need a tie-break on equal words.
func NormBytes(b []byte) uint64 {
	n := len(b)
	if n > 8 {
		n = 8
	}
	var w uint64
	for i := 0; i < n; i++ {
		w |= uint64(b[i]) << (56 - 8*i)
	}
	return w
}

// put writes term t's word for one row into keys at the row's stride slot,
// inverting it for a descending term.
func (l *Layout) put(t, row int, value uint64, keys []uint64) {
	if l.Terms[t].Desc {
		value = ^value
	}
	keys[row*l.Words+t] = value
}

// EncodeInt64 writes term t's normalized words for src (one value per row)
// into the row-major key array keys (stride Layout.Words). Date columns
// encode their widened day counts here too.
func (l *Layout) EncodeInt64(t int, src []int64, keys []uint64) {
	for i, v := range src {
		l.put(t, i, NormInt64(v), keys)
	}
}

// EncodeFloat64 writes term t's normalized words for a float64 column.
func (l *Layout) EncodeFloat64(t int, src []float64, keys []uint64) {
	for i, v := range src {
		l.put(t, i, NormFloat64(v), keys)
	}
}

// EncodeBytes writes term t's normalized prefix words for a byte-string
// column; src returns row i's raw fixed-width bytes.
func (l *Layout) EncodeBytes(t int, n int, src func(row int) []byte, keys []uint64) {
	for i := 0; i < n; i++ {
		l.put(t, i, NormBytes(src(i)), keys)
	}
}

// Tie resolves approximate terms: Compare orders the full source values of
// term for two rows, identified by a caller-meaningful run index and a row
// id, returning <0, 0, or >0 in the term's direction (descending terms must
// return the inverted comparison). Exact layouts never consult it, so nil is
// a valid Tie for them.
type Tie interface {
	Compare(term int, runA int, rowA int32, runB int, rowB int32) int
}

// CompareRowKeys orders two rows' key tuples under the layout, walking terms
// in priority order and resolving approximate terms through tie. ka and kb
// index the first word of each row's tuple in their key arrays.
func (l *Layout) CompareRowKeys(keysA []uint64, ka int, runA int, rowA int32,
	keysB []uint64, kb int, runB int, rowB int32, tie Tie) int {
	if l.Exact {
		for w := 0; w < l.Words; w++ {
			a, b := keysA[ka+w], keysB[kb+w]
			if a != b {
				if a < b {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	for t := range l.Terms {
		a, b := keysA[ka+t], keysB[kb+t]
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
		if l.approx[t] {
			if c := tie.Compare(t, runA, rowA, runB, rowB); c != 0 {
				return c
			}
		}
	}
	return 0
}
