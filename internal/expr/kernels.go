package expr

import (
	"bytes"

	"repro/internal/storage"
	"repro/internal/types"
)

// Typed filter kernels. Each keeps the rows of a selection vector where a
// predicate holds by compacting the vector in place without a branch per
// row — the row ID is always written, the write position only advances on a
// match — and loads cells through a ColView accessor chosen once per column.

// prim is one of the three comparisons every CmpOp reduces to, with a
// negation (opPrims): LT is x<y and GE is !(x<y), GT is x>y and LE is
// !(x>y), NE is x≠y and EQ is !(x≠y), where floats are ≠ when ordered and
// apart. So an unordered (NaN) pair satisfies exactly EQ, LE and GE — the
// "unordered is equal" of types.Compare.
type prim uint8

const (
	primLT prim = iota
	primGT
	primNE
)

// primOp is a CmpOp as a primitive and a negation.
type primOp struct {
	p   prim
	neg bool
}

var opPrims = [...]primOp{
	EQ: {primNE, true}, NE: {primNE, false},
	LT: {primLT, false}, GE: {primLT, true},
	GT: {primGT, false}, LE: {primGT, true},
}

// holds reports whether the primitive holds for an outcome given as x<y and
// x>y (neither means equal or unordered).
func (p prim) holds(lt, gt bool) bool {
	switch p {
	case primLT:
		return lt
	case primGT:
		return gt
	}
	return lt || gt
}

// cmpValue keeps the rows where column x compares to y: an Int64 or Date
// column against an integer, a Float64 column against y.Float().
func cmpValue(sel []int32, col storage.ColView, y types.Datum, op primOp) []int32 {
	k, neg, x := 0, op.neg, col.Cells
	switch col.Type {
	case types.Int64:
		c := y.I
		switch op.p {
		case primLT:
			for _, r := range sel {
				sel[k] = r
				if (x.Int64(int(r)) < c) != neg {
					k++
				}
			}
		case primGT:
			for _, r := range sel {
				sel[k] = r
				if (x.Int64(int(r)) > c) != neg {
					k++
				}
			}
		default:
			for _, r := range sel {
				sel[k] = r
				if (x.Int64(int(r)) != c) != neg {
					k++
				}
			}
		}
	case types.Date:
		c := y.I
		switch op.p {
		case primLT:
			for _, r := range sel {
				sel[k] = r
				if (x.Date(int(r)) < c) != neg {
					k++
				}
			}
		case primGT:
			for _, r := range sel {
				sel[k] = r
				if (x.Date(int(r)) > c) != neg {
					k++
				}
			}
		default:
			for _, r := range sel {
				sel[k] = r
				if (x.Date(int(r)) != c) != neg {
					k++
				}
			}
		}
	default:
		c := y.Float()
		switch op.p {
		case primLT:
			for _, r := range sel {
				sel[k] = r
				if (x.Float64(int(r)) < c) != neg {
					k++
				}
			}
		case primGT:
			for _, r := range sel {
				sel[k] = r
				if (x.Float64(int(r)) > c) != neg {
					k++
				}
			}
		default:
			for _, r := range sel {
				v := x.Float64(int(r))
				sel[k] = r
				if ((v < c) != (v > c)) != neg {
					k++
				}
			}
		}
	}
	return sel[:k]
}

// cmpCols keeps the rows where column x compares to column y of the same
// numeric kind.
func cmpCols(sel []int32, xcol, ycol storage.ColView, op primOp) []int32 {
	k, neg, x, y := 0, op.neg, xcol.Cells, ycol.Cells
	switch xcol.Type {
	case types.Int64:
		switch op.p {
		case primLT:
			for _, r := range sel {
				sel[k] = r
				if (x.Int64(int(r)) < y.Int64(int(r))) != neg {
					k++
				}
			}
		case primGT:
			for _, r := range sel {
				sel[k] = r
				if (x.Int64(int(r)) > y.Int64(int(r))) != neg {
					k++
				}
			}
		default:
			for _, r := range sel {
				sel[k] = r
				if (x.Int64(int(r)) != y.Int64(int(r))) != neg {
					k++
				}
			}
		}
	case types.Date:
		switch op.p {
		case primLT:
			for _, r := range sel {
				sel[k] = r
				if (x.Date(int(r)) < y.Date(int(r))) != neg {
					k++
				}
			}
		case primGT:
			for _, r := range sel {
				sel[k] = r
				if (x.Date(int(r)) > y.Date(int(r))) != neg {
					k++
				}
			}
		default:
			for _, r := range sel {
				sel[k] = r
				if (x.Date(int(r)) != y.Date(int(r))) != neg {
					k++
				}
			}
		}
	default:
		switch op.p {
		case primLT:
			for _, r := range sel {
				sel[k] = r
				if (x.Float64(int(r)) < y.Float64(int(r))) != neg {
					k++
				}
			}
		case primGT:
			for _, r := range sel {
				sel[k] = r
				if (x.Float64(int(r)) > y.Float64(int(r))) != neg {
					k++
				}
			}
		default:
			for _, r := range sel {
				u, v := x.Float64(int(r)), y.Float64(int(r))
				sel[k] = r
				if ((u < v) != (u > v)) != neg {
					k++
				}
			}
		}
	}
	return sel[:k]
}

// cmpMixed is the one loop for the numeric pairings the typed loops leave
// out: an Int64 or Date column against a Float64 value, and two columns of
// different kinds. Like types.Compare it compares as floats when either side
// is a Float64, as integers otherwise.
func cmpMixed(sel []int32, x, ycol storage.ColView, y types.Datum, rcol bool, op primOp) []int32 {
	float := x.Type == types.Float64 || y.Ty == types.Float64
	k := 0
	for _, r := range sel {
		var lt, gt bool
		if float {
			u, v := x.Float(int(r)), y.Float()
			if rcol {
				v = ycol.Float(int(r))
			}
			lt, gt = u < v, u > v
		} else {
			u, v := x.Int(int(r)), y.I
			if rcol {
				v = ycol.Int(int(r))
			}
			lt, gt = u < v, u > v
		}
		sel[k] = r
		if op.p.holds(lt, gt) != op.neg {
			k++
		}
	}
	return sel[:k]
}

// cmpChars keeps the rows where char column x compares bytewise to y, or to
// column ycol when rcol is set; with trim set both sides lose their padding
// first.
func cmpChars(sel []int32, x, ycol storage.ColView, y []byte, rcol, trim bool, op primOp) []int32 {
	k := 0
	for _, r := range sel {
		u := x.Bytes(int(r))
		if rcol {
			y = ycol.Bytes(int(r))
		}
		if trim {
			u, y = types.TrimPad(u), types.TrimPad(y)
		}
		c := bytes.Compare(u, y)
		sel[k] = r
		if op.p.holds(c < 0, c > 0) != op.neg {
			k++
		}
	}
	return sel[:k]
}

// cmpVecs keeps the rows where x compares to y element-wise: values of two
// computed operands of one kind.
func cmpVecs[T int64 | float64](sel []int32, x, y []T, op primOp) []int32 {
	k, neg := 0, op.neg
	switch op.p {
	case primLT:
		for _, r := range sel {
			sel[k] = r
			if (x[r] < y[r]) != neg {
				k++
			}
		}
	case primGT:
		for _, r := range sel {
			sel[k] = r
			if (x[r] > y[r]) != neg {
				k++
			}
		}
	default:
		for _, r := range sel {
			u, v := x[r], y[r]
			sel[k] = r
			if ((u < v) != (u > v)) != neg {
				k++
			}
		}
	}
	return sel[:k]
}

// inPadded keeps the rows whose char cell equals one of pads, the IN list
// zero-padded to the column's width.
func inPadded(sel []int32, x storage.ColView, pads [][]byte) []int32 {
	k := 0
	for _, r := range sel {
		u := x.Bytes(int(r))
		hit := false
		for _, c := range pads {
			if string(u) == string(c) {
				hit = true
				break
			}
		}
		sel[k] = r
		if hit {
			k++
		}
	}
	return sel[:k]
}

// inTrimmed keeps the rows whose char value, without its padding, equals
// one of list's (a vector of another width than In padded the list to).
func inTrimmed(sel []int32, x storage.ColView, list []types.Datum) []int32 {
	k := 0
	for _, r := range sel {
		u := types.TrimPad(x.Bytes(int(r)))
		hit := false
		for _, d := range list {
			if string(u) == string(types.TrimPad(d.B)) {
				hit = true
				break
			}
		}
		sel[k] = r
		if hit {
			k++
		}
	}
	return sel[:k]
}

// inFloats keeps the rows whose float value types.Compare finds equal to one
// of list's: an unordered (NaN) pair counts as equal.
func inFloats(sel []int32, x []float64, list []types.Datum) []int32 {
	k := 0
	for _, r := range sel {
		u := x[r]
		hit := false
		for _, d := range list {
			if c := d.Float(); !(u < c || u > c) {
				hit = true
				break
			}
		}
		sel[k] = r
		if hit {
			k++
		}
	}
	return sel[:k]
}

// inInts keeps the rows whose integer value equals one of list's: as floats
// against a Float64, as integers otherwise.
func inInts(sel []int32, x []int64, list []types.Datum) []int32 {
	k := 0
	for _, r := range sel {
		u := x[r]
		hit := false
		for _, d := range list {
			if d.Ty == types.Float64 {
				f := float64(u)
				hit = !(f < d.F || f > d.F)
			} else {
				hit = u == d.I
			}
			if hit {
				break
			}
		}
		sel[k] = r
		if hit {
			k++
		}
	}
	return sel[:k]
}

// likeCells keeps the rows whose char cell matches (or, negated, does not
// match) e's pattern. A compiled pattern that allows it matches the padded
// cell as it lies.
func likeCells(sel []int32, x storage.ColView, e *LikeExpr) []int32 {
	padded := e.segs != nil && e.segs.padded
	k := 0
	for _, r := range sel {
		u := x.Bytes(int(r))
		if !padded {
			u = types.TrimPad(u)
		}
		sel[k] = r
		if e.match(u) != e.Negate {
			k++
		}
	}
	return sel[:k]
}

// padWidth returns the width of x if x is a char column reference of known
// width, else 0.
func padWidth(x Expr) int {
	if c, ok := x.(*ColRef); ok && c.Ty == types.Char {
		return c.Width
	}
	return 0
}

// padTo returns v without its padding, zero-padded to width w — the form in
// which the kernels compare a constant against cells of that width in
// place — or nil if it does not fit.
func padTo(v []byte, w int) []byte {
	v = types.TrimPad(v)
	if len(v) > w {
		return nil
	}
	pad := make([]byte, w)
	copy(pad, v)
	return pad
}
