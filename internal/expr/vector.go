package expr

import (
	"repro/internal/storage"
	"repro/internal/types"
)

// Block-at-a-time evaluation. Operators evaluate predicates and computed
// arguments over whole blocks (the vectorized processing style of Section III
// of the paper) rather than pulling one tuple through the whole plan. Eval
// stays the one definition of semantics: the vector kernels below cover the
// node shapes that dominate the TPC-H plans and must agree with it exactly;
// every other node falls back to per-row Eval.

// FilterBlock evaluates pred over every row of b and returns the matching
// row IDs as a selection vector. scalars supplies runtime scalar-parameter
// values (may be nil). scratch, when non-nil, provides the backing array for
// the result — operators pass a pooled per-work-order buffer so the steady
// state allocates no selection vector per block (pass nil to allocate).
//
// The predicate tree is walked once per block, not once per row: starting
// from the identity selection, AND refines it kid by kid, a comparison of a
// column with a constant, a scalar parameter or another column, and IN and
// LIKE over a char column refine it through typed kernels that read the
// column in place, and any other node refines it through FilterRows.
func FilterBlock(pred Expr, b *storage.Block, scalars []types.Datum, scratch []int32) []int32 {
	return refine(pred, b, scalars, SelectAll(b, scratch))
}

// SelectAll fills a selection vector with every row ID of b, reusing scratch
// when large enough (the identity selection for predicate-less operators
// that still need a vector for downstream refinement).
func SelectAll(b *storage.Block, scratch []int32) []int32 {
	n := b.NumRows()
	if cap(scratch) < n {
		scratch = make([]int32, 0, n)
	}
	out := scratch[:n]
	for r := range out {
		out[r] = int32(r)
	}
	return out
}

// FilterRows evaluates pred over the given row IDs of b and returns the
// subset that match, refining rows in place (candidate-list refinement: the
// per-row fallback of FilterBlock and the MonetDB-style baseline).
func FilterRows(pred Expr, b *storage.Block, rows []int32, scalars []types.Datum) []int32 {
	out := rows[:0]
	c := Ctx{B: b, Scalars: scalars}
	for _, r := range rows {
		c.Row = int(r)
		if pred.Eval(&c).I != 0 {
			out = append(out, r)
		}
	}
	return out
}

// refine narrows sel, in place, to the rows of b where pred holds.
func refine(pred Expr, b *storage.Block, scalars []types.Datum, sel []int32) []int32 {
	if len(sel) == 0 {
		return sel
	}
	switch p := pred.(type) {
	case *AndExpr:
		for _, k := range p.Kids {
			sel = refine(k, b, scalars, sel)
		}
		return sel
	case *CmpExpr:
		if out, ok := refineCmp(p, b, scalars, sel); ok {
			return out
		}
	case *InExpr:
		if col, ok := charCol(p.X, b); ok && p.padW == col.Width() {
			return inPadded(sel, col, p.pads)
		}
	case *LikeExpr:
		if col, ok := charCol(p.X, b); ok {
			return likeCells(sel, col, p)
		}
	}
	return FilterRows(pred, b, sel, scalars)
}

// charCol returns the in-place view of x if x is a Primary-side reference to
// a char column.
func charCol(x Expr, b *storage.Block) (storage.ColView, bool) {
	c, ok := AsPrimaryColRef(x)
	if !ok || b.Schema().Col(c.Col).Type != types.Char {
		return storage.ColView{}, false
	}
	return b.View(c.Col), true
}

// refineCmp is the comparison kernel: a Primary column on the left, and on
// the right a constant, a scalar parameter or another Primary column of the
// same kind (char or numeric). It mirrors types.Compare with the column's
// datum on the left: char values compare bytewise with padding stripped;
// numbers compare as floats when either side is a Float64, as integers
// otherwise. A column and a value of its own kind, or two columns of one
// kind, get a typed loop per op (kernels.go); the other numeric pairings
// share one loop. It reports false for any other shape.
func refineCmp(p *CmpExpr, b *storage.Block, scalars []types.Datum, sel []int32) ([]int32, bool) {
	l, ok := AsPrimaryColRef(p.L)
	if !ok {
		return nil, false
	}
	lv := b.View(l.Col)
	// The right side is the datum k, or the column rv when rcol is set.
	var k types.Datum
	var rv storage.ColView
	rcol := false
	switch r := p.R.(type) {
	case *ConstExpr:
		k = r.D
	case *ScalarParam:
		k = scalars[r.Slot]
	case *ColRef:
		if r.S != Primary {
			return nil, false
		}
		rv, rcol = b.View(r.Col), true
		if (lv.Type == types.Char) != (rv.Type == types.Char) {
			return nil, false
		}
		k.Ty = rv.Type
	default:
		return nil, false
	}
	op := opPrims[p.Op]
	switch {
	case lv.Type == types.Char:
		// Padded cells order as trimmed ones (zero sorts lowest), so a
		// column compares in place against a column of its width or against
		// the constant Cmp padded to it; anything else compares trimmed.
		y, trim := p.pad, false
		if rcol {
			trim = rv.Width() != lv.Width()
		} else if len(y) != lv.Width() {
			y, trim = types.TrimPad(k.B), true
		}
		return cmpChars(sel, lv, rv, y, rcol, trim, op), true
	case rcol && lv.Type == rv.Type:
		return cmpCols(sel, lv, rv, op), true
	case rcol || (k.Ty == types.Float64 && lv.Type != types.Float64):
		return cmpMixed(sel, lv, rv, k, rcol, op), true
	}
	return cmpValue(sel, lv, k, op), true
}

// Vectors is caller-owned scratch for the numeric vector evaluator: the
// intermediate vectors of arithmetic subtrees, kept across blocks so that
// steady-state evaluation allocates nothing. The zero value is ready to use;
// a Vectors serves one evaluation at a time.
type Vectors struct {
	f      [][]float64
	i      [][]int64
	fd, id int // vectors in use
}

// Floats evaluates the numeric expression e over every row of c.B into dst,
// reusing dst's backing array when large enough: element r is e.Eval at row
// r, seen through Datum.Float. Column references gather, constants and scalar
// parameters fill, arithmetic runs element-wise with Eval's operations and
// conversions (so results are bit-identical), and any other subtree falls
// back to per-row Eval. c.Row is clobbered.
func (v *Vectors) Floats(e Expr, c *Ctx, dst []float64) []float64 {
	dst = sized(dst, c.B.NumRows())
	v.fd, v.id = 0, 0 // nothing is in use, even after a panic in Eval
	v.floats(e, c, dst)
	return dst
}

// Ints is Floats for an Int64- or Date-typed expression: element r is
// e.Eval at row r, seen through Datum.I.
func (v *Vectors) Ints(e Expr, c *Ctx, dst []int64) []int64 {
	dst = sized(dst, c.B.NumRows())
	v.fd, v.id = 0, 0
	v.ints(e, c, dst)
	return dst
}

func (v *Vectors) floats(e Expr, c *Ctx, dst []float64) {
	switch x := e.(type) {
	case *ColRef:
		if x.S != Primary {
			break
		}
		switch col := c.B.View(x.Col); col.Type {
		case types.Float64:
			c.B.GatherFloat64(x.Col, dst)
			return
		case types.Int64, types.Date:
			for r := range dst {
				dst[r] = col.Float(r)
			}
			return
		}
	case *ConstExpr:
		fill(dst, x.D.Float())
		return
	case *ScalarParam:
		fill(dst, c.Scalars[x.Slot].Float())
		return
	case *ArithExpr:
		if x.ty == types.Int64 {
			t := push(&v.i, &v.id, len(dst))
			v.ints(x, c, t)
			for r, n := range t {
				dst[r] = float64(n)
			}
			v.id--
			return
		}
		v.floats(x.L, c, dst)
		t := push(&v.f, &v.fd, len(dst))
		v.floats(x.R, c, t)
		arith(x.Op, dst, t)
		v.fd--
		return
	}
	for r := range dst {
		c.Row = r
		dst[r] = e.Eval(c).Float()
	}
}

func (v *Vectors) ints(e Expr, c *Ctx, dst []int64) {
	switch x := e.(type) {
	case *ColRef:
		if x.S != Primary {
			break
		}
		switch c.B.Schema().Col(x.Col).Type {
		case types.Int64:
			c.B.GatherInt64(x.Col, dst)
			return
		case types.Date:
			c.B.GatherDate(x.Col, dst)
			return
		}
	case *ConstExpr:
		fill(dst, x.D.I)
		return
	case *ScalarParam:
		fill(dst, c.Scalars[x.Slot].I)
		return
	case *ArithExpr:
		if x.ty != types.Int64 {
			break
		}
		v.ints(x.L, c, dst)
		t := push(&v.i, &v.id, len(dst))
		v.ints(x.R, c, t)
		arith(x.Op, dst, t)
		v.id--
		return
	}
	for r := range dst {
		c.Row = r
		dst[r] = e.Eval(c).I
	}
}

// push hands out the next free vector of a Vectors stack, sized n; the
// caller releases it by decrementing *depth.
func push[T any](stack *[][]T, depth *int, n int) []T {
	if *depth == len(*stack) {
		*stack = append(*stack, nil)
	}
	s := sized((*stack)[*depth], n)
	(*stack)[*depth] = s
	*depth++
	return s
}

// arith computes l = l op r element-wise, as ArithExpr.Eval does. An
// Int64-typed node is never a division, so Div only meets floats.
func arith[T int64 | float64](op ArithOp, l, r []T) {
	r = r[:len(l)]
	switch op {
	case Add:
		for k := range l {
			l[k] += r[k]
		}
	case Sub:
		for k := range l {
			l[k] -= r[k]
		}
	case Mul:
		for k := range l {
			l[k] *= r[k]
		}
	default:
		for k := range l {
			l[k] /= r[k]
		}
	}
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// sized returns s with length n, reusing its backing array when it is large
// enough. Callers overwrite every element.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EvalRow evaluates a list of expressions for one row of b.
func EvalRow(exprs []Expr, b *storage.Block, row int, scalars []types.Datum) []types.Datum {
	c := Ctx{B: b, Row: row, Scalars: scalars}
	out := make([]types.Datum, len(exprs))
	for i, e := range exprs {
		out[i] = e.Eval(&c)
	}
	return out
}

// OutputSchema derives the schema produced by evaluating exprs named names.
// Char widths are taken from column references and substring lengths; other
// Char-typed expressions default to width 32.
func OutputSchema(exprs []Expr, names []string) *storage.Schema {
	cols := make([]storage.Column, len(exprs))
	for i, e := range exprs {
		cols[i] = storage.Column{Name: names[i], Type: e.Type(), Width: charWidth(e)}
	}
	return storage.NewSchema(cols...)
}

func charWidth(e Expr) int {
	switch x := e.(type) {
	case *ColRef:
		if x.Ty == types.Char {
			return refWidth(x)
		}
	case *SubstrExpr:
		return x.Len
	case *ConstExpr:
		if x.D.Ty == types.Char {
			return len(x.D.B)
		}
	case *CaseExpr:
		if x.Type() == types.Char {
			return charWidth(x.Else)
		}
	}
	if e.Type() == types.Char {
		return 32
	}
	return 0
}

// refWidth is set by the plan layer: column references do not carry widths,
// so builders register them here when constructing projections. To keep the
// package self-contained, ColRef stores the width when built from a schema.
func refWidth(c *ColRef) int { return c.Width }
