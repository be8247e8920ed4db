package expr

import (
	"fmt"

	"repro/internal/storage"
	"repro/internal/types"
)

// Block-at-a-time evaluation. Operators evaluate predicates, group keys,
// aggregate arguments, join residuals, projections and sort keys over whole
// blocks (the vectorized processing style of Section III of the paper)
// rather than pulling one tuple through the whole plan. Eval stays the one
// definition of semantics and the tests' oracle: the vectors below cover the
// whole grammar and must agree with it exactly, and no node is evaluated one
// row at a time. Block evaluation reads Primary-side column references only;
// a join residual is rebound to one block first (Rebind).

// FilterBlock evaluates pred over every row of b and returns the matching
// row IDs as a selection vector. scalars supplies runtime scalar-parameter
// values (may be nil). scratch, when non-nil, provides the backing array for
// the result — operators pass a pooled per-work-order buffer so the steady
// state allocates no selection vector per block (pass nil to allocate).
//
// It is Vectors.Filter with a Vectors of its own, so a predicate that needs
// intermediate vectors (OR, NOT, a comparison of computed values) allocates
// them; operators keep a Vectors and call Filter instead.
func FilterBlock(pred Expr, b *storage.Block, scalars []types.Datum, scratch []int32) []int32 {
	var v Vectors
	return v.Filter(pred, &Ctx{B: b, Scalars: scalars}, scratch)
}

// SelectAll fills a selection vector with every row ID of b, reusing scratch
// when large enough (the identity selection for predicate-less operators
// that still need a vector for downstream refinement).
func SelectAll(b *storage.Block, scratch []int32) []int32 {
	return identity(sized(scratch, b.NumRows()))
}

func identity(sel []int32) []int32 {
	for r := range sel {
		sel[r] = int32(r)
	}
	return sel
}

// Vectors is caller-owned scratch for the block evaluator: the intermediate
// vectors and selections of subtrees, kept across blocks so that
// steady-state evaluation allocates nothing. The zero value is ready to use;
// a Vectors serves one evaluation at a time.
type Vectors struct {
	f [][]float64
	i [][]int64
	b [][]byte
	s [][]int32
	d depths
}

// depths counts the vectors of each stack in use; a subtree saves it and
// restores it to release what it pushed.
type depths struct{ f, i, b, s int }

// Filter returns the rows of c.B where pred holds, in order, reusing
// scratch's backing array when large enough. The predicate tree is walked
// once per block, not once per row: starting from the identity selection,
// AND refines it kid by kid, OR keeps the union of its kids' refinements and
// NOT the complement of its kid's, comparisons, IN and LIKE refine it
// through typed kernels, and any other node keeps the rows where its
// integer value is not zero.
func (v *Vectors) Filter(pred Expr, c *Ctx, scratch []int32) []int32 {
	v.d = depths{}
	return v.refine(pred, c, SelectAll(c.B, scratch))
}

// Floats evaluates the expression e over every row of c.B into dst, reusing
// dst's backing array when large enough: element r is e.Eval at row r, seen
// through Datum.Float, bit for bit.
func (v *Vectors) Floats(e Expr, c *Ctx, dst []float64) []float64 {
	dst = sized(dst, c.B.NumRows())
	v.d = depths{}
	v.floats(e, c, dst)
	return dst
}

// Ints is Floats seen through Datum.I: an Int64's value, a Date's day count,
// a boolean's 0 or 1.
func (v *Vectors) Ints(e Expr, c *Ctx, dst []int64) []int64 {
	dst = sized(dst, c.B.NumRows())
	v.d = depths{}
	v.ints(e, c, dst)
	return dst
}

// Bytes evaluates the char expression e over every row of c.B as a
// fixed-width vector: row r holds e.Eval at row r zero-padded to the
// vector's width, which is the expression's width (CharWidth) except that a
// scalar parameter is as wide as its value. A column reference is its column
// in place and a constant one value for every row; the vector aliases the
// block or v and is valid until the next call on v. A non-char expression
// has no bytes: its vector is 0 wide.
func (v *Vectors) Bytes(e Expr, c *Ctx) storage.ColView {
	v.d = depths{}
	return v.bytes(e, c)
}

// refine narrows sel, in place, to the rows of c.B where pred holds.
func (v *Vectors) refine(pred Expr, c *Ctx, sel []int32) []int32 {
	if len(sel) == 0 {
		return sel
	}
	d := v.d
	defer func() { v.d = d }()
	switch p := pred.(type) {
	case *AndExpr:
		for _, k := range p.Kids {
			sel = v.refine(k, c, sel)
		}
		return sel
	case *OrExpr:
		// Each kid refines only the rows no earlier kid kept, as Eval
		// short-circuits; the rows none kept are dropped.
		rest := v.copySel(sel)
		for _, k := range p.Kids {
			rest = minus(rest, v.refine(k, c, v.copySel(rest)))
		}
		return minus(sel, rest)
	case *NotExpr:
		return minus(sel, v.refine(p.X, c, v.copySel(sel)))
	case *CmpExpr:
		if out, ok := v.refineCmp(p, c, sel); ok {
			return out
		}
		return v.cmpValues(p, c, sel)
	case *InExpr:
		return v.refineIn(p, c, sel)
	case *LikeExpr:
		return likeCells(sel, v.bytes(p.X, c), p)
	}
	t := push(&v.i, &v.d.i, c.B.NumRows())
	v.ints(pred, c, t)
	k := 0
	for _, r := range sel {
		sel[k] = r
		if t[r] != 0 {
			k++
		}
	}
	return sel[:k]
}

// copySel returns a copy of sel on the selection stack.
func (v *Vectors) copySel(sel []int32) []int32 {
	s := push(&v.s, &v.d.s, len(sel))
	copy(s, sel)
	return s
}

// minus removes from the ascending selection a the rows of b, an ascending
// subset of a, in place.
func minus(a, b []int32) []int32 {
	k, j := 0, 0
	for _, r := range a {
		if j < len(b) && b[j] == r {
			j++
			continue
		}
		a[k] = r
		k++
	}
	return a[:k]
}

// refineCmp is the comparison kernel: a Primary column on the left, and on
// the right a constant, a scalar parameter or another Primary column of the
// same kind (char or numeric). It mirrors types.Compare with the column's
// datum on the left: char values compare bytewise with padding stripped;
// numbers compare as floats when either side is a Float64, as integers
// otherwise. A column and a value of its own kind, or two columns of one
// kind, get a typed loop per op (kernels.go); the other numeric pairings
// share one loop. It reports false for any other shape.
func (v *Vectors) refineCmp(p *CmpExpr, c *Ctx, sel []int32) ([]int32, bool) {
	l, ok := AsPrimaryColRef(p.L)
	if !ok {
		return nil, false
	}
	lv := v.view(l, c)
	// The right side is the datum k, or the column rv when rcol is set.
	var k types.Datum
	var rv storage.ColView
	rcol := false
	switch r := p.R.(type) {
	case *ConstExpr:
		k = r.D
	case *ScalarParam:
		k = c.Scalars[r.Slot]
	case *ColRef:
		if r.S != Primary {
			return nil, false
		}
		rv, rcol = v.view(r, c), true
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

// cmpValues compares any two operands as vectors over the block, as
// types.Compare orders their datums: chars bytewise without padding,
// numbers as floats when either side is a Float64, as integers otherwise.
func (v *Vectors) cmpValues(p *CmpExpr, c *Ctx, sel []int32) []int32 {
	op := opPrims[p.Op]
	n := c.B.NumRows()
	switch {
	case p.L.Type() == types.Char:
		x, y := v.bytes(p.L, c), v.bytes(p.R, c)
		return cmpChars(sel, x, y, nil, true, x.Width() != y.Width(), op)
	case p.L.Type() == types.Float64 || p.R.Type() == types.Float64:
		x, y := push(&v.f, &v.d.f, n), push(&v.f, &v.d.f, n)
		v.floats(p.L, c, x)
		v.floats(p.R, c, y)
		return cmpVecs(sel, x, y, op)
	}
	x, y := push(&v.i, &v.d.i, n), push(&v.i, &v.d.i, n)
	v.ints(p.L, c, x)
	v.ints(p.R, c, y)
	return cmpVecs(sel, x, y, op)
}

// refineIn keeps the rows whose value equals one of the list's under
// types.Equal. A char vector of the width In padded the list to compares
// cells in place.
func (v *Vectors) refineIn(p *InExpr, c *Ctx, sel []int32) []int32 {
	n := c.B.NumRows()
	switch p.X.Type() {
	case types.Char:
		x := v.bytes(p.X, c)
		if x.Width() == p.padW {
			return inPadded(sel, x, p.pads)
		}
		return inTrimmed(sel, x, p.List)
	case types.Float64:
		x := push(&v.f, &v.d.f, n)
		v.floats(p.X, c, x)
		return inFloats(sel, x, p.List)
	}
	x := push(&v.i, &v.d.i, n)
	v.ints(p.X, c, x)
	return inInts(sel, x, p.List)
}

// floats writes e's Datum.Float view for every row of c.B into dst. Nodes
// whose datum is not a Float64 go through ints.
func (v *Vectors) floats(e Expr, c *Ctx, dst []float64) {
	switch x := e.(type) {
	case *ColRef:
		if colType(x, c) == types.Float64 {
			c.B.GatherFloat64(x.Col, dst)
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
			break
		}
		d := v.d
		v.floats(x.L, c, dst)
		t := push(&v.f, &v.d.f, len(dst))
		v.floats(x.R, c, t)
		arith(x.Op, dst, t)
		v.d = d
		return
	case *CaseExpr:
		v.floats(x.Else, c, dst)
		d := v.d
		t := push(&v.f, &v.d.f, len(dst))
		for k := len(x.Whens) - 1; k >= 0; k-- { // the first WHEN that holds wins
			v.floats(x.Whens[k].Then, c, t)
			for _, r := range v.holds(x.Whens[k].Cond, c) {
				dst[r] = t[r]
			}
		}
		v.d = d
		return
	}
	d := v.d
	t := push(&v.i, &v.d.i, len(dst))
	v.ints(e, c, t)
	for r, n := range t {
		dst[r] = float64(n)
	}
	v.d = d
}

// ints writes e's Datum.I view for every row of c.B into dst: 0 for a
// Float64 or Char datum.
func (v *Vectors) ints(e Expr, c *Ctx, dst []int64) {
	switch x := e.(type) {
	case *ColRef:
		switch colType(x, c) {
		case types.Int64:
			c.B.GatherInt64(x.Col, dst)
		case types.Date:
			c.B.GatherDate(x.Col, dst)
		default:
			clear(dst)
		}
	case *ConstExpr:
		fill(dst, x.D.I)
	case *ScalarParam:
		fill(dst, c.Scalars[x.Slot].I)
	case *ArithExpr:
		if x.ty != types.Int64 {
			clear(dst)
			return
		}
		d := v.d
		v.ints(x.L, c, dst)
		t := push(&v.i, &v.d.i, len(dst))
		v.ints(x.R, c, t)
		arith(x.Op, dst, t)
		v.d = d
	case *YearExpr:
		v.ints(x.X, c, dst)
		for r, days := range dst {
			dst[r] = int64(types.Year(int32(days)))
		}
	case *CaseExpr:
		v.ints(x.Else, c, dst)
		d := v.d
		t := push(&v.i, &v.d.i, len(dst))
		for k := len(x.Whens) - 1; k >= 0; k-- {
			v.ints(x.Whens[k].Then, c, t)
			for _, r := range v.holds(x.Whens[k].Cond, c) {
				dst[r] = t[r]
			}
		}
		v.d = d
	case *SubstrExpr:
		clear(dst)
	case *CmpExpr, *AndExpr, *OrExpr, *NotExpr, *InExpr, *LikeExpr:
		clear(dst)
		d := v.d
		for _, r := range v.holds(e, c) {
			dst[r] = 1
		}
		v.d = d
	case BlockExpr:
		cc := *c // a copy, so that c does not escape through the call
		x.EvalBlock(&cc, dst)
	default:
		panic(fmt.Sprintf("expr: no block kernel for %T", e))
	}
}

// BlockExpr is an expression outside the grammar (a test's gate, say) that
// evaluates itself a block at a time: EvalBlock writes the Datum.I view of
// every row of c.B into dst, which has one element per row. The evaluator
// reads it as an integer or a boolean.
type BlockExpr interface {
	Expr
	EvalBlock(c *Ctx, dst []int64)
}

// holds returns the rows of c.B where pred holds, on the selection stack.
func (v *Vectors) holds(pred Expr, c *Ctx) []int32 {
	return v.refine(pred, c, identity(push(&v.s, &v.d.s, c.B.NumRows())))
}

// bytes is Bytes without resetting the stacks.
func (v *Vectors) bytes(e Expr, c *Ctx) storage.ColView {
	switch x := e.(type) {
	case *ColRef:
		if colType(x, c) == types.Char {
			return v.view(x, c)
		}
	case *ConstExpr:
		return storage.CharView(x.D.B, 0, len(x.D.B))
	case *ScalarParam:
		d := c.Scalars[x.Slot]
		return storage.CharView(d.B, 0, len(d.B))
	case *SubstrExpr:
		// The window [Start-1, Start-1+Len) of the unpadded value is taken
		// before clamping, as Eval does, so it is never wider than Len.
		src := v.bytes(x.X, c)
		w := max(x.Len, 0)
		out := push(&v.b, &v.d.b, c.B.NumRows()*w)
		for r := range c.B.NumRows() {
			s := types.TrimPad(src.Bytes(r))
			lo := min(max(x.Start-1, 0), len(s))
			hi := min(max(x.Start-1+x.Len, lo), len(s))
			cell := out[r*w : (r+1)*w]
			clear(cell[copy(cell, s[lo:hi]):])
		}
		return storage.CharView(out, w, w)
	case *CaseExpr:
		w := width(x, c.Scalars)
		out := push(&v.b, &v.d.b, c.B.NumRows()*w)
		d := v.d
		put := func(src storage.ColView, rows []int32) {
			for _, r := range rows {
				cell := out[int(r)*w : int(r+1)*w]
				clear(cell[copy(cell, src.Bytes(int(r))):])
			}
		}
		put(v.bytes(x.Else, c), identity(push(&v.s, &v.d.s, c.B.NumRows())))
		v.d = d
		for k := len(x.Whens) - 1; k >= 0; k-- {
			put(v.bytes(x.Whens[k].Then, c), v.holds(x.Whens[k].Cond, c))
			v.d = d
		}
		return storage.CharView(out, w, w)
	}
	return storage.CharView(nil, 0, 0)
}

// view returns the cells of the column x reads: in place, or for a view
// block (storage.Block.IsView) gathered onto the byte stack, so that one
// kernel loop serves both.
func (v *Vectors) view(x *ColRef, c *Ctx) storage.ColView {
	colType(x, c) // rejects a build-side column
	if !c.B.IsView() {
		return c.B.View(x.Col)
	}
	return c.B.ViewInto(x.Col, push(&v.b, &v.d.b, c.B.NumRows()*c.B.Schema().ColWidth(x.Col)))
}

// colType returns the type of the block column x reads.
func colType(x *ColRef, c *Ctx) types.TypeID {
	if x.S != Primary {
		panic("expr: block evaluation of a build-side column; rebind the residual first")
	}
	return c.B.Schema().Col(x.Col).Type
}

// push hands out the next free vector of a Vectors stack, sized n; the
// caller releases it by restoring the depths it saved.
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

// OutputSchema derives the schema produced by evaluating exprs named names,
// with CharWidth as the width of each char column.
func OutputSchema(exprs []Expr, names []string) *storage.Schema {
	cols := make([]storage.Column, len(exprs))
	for i, e := range exprs {
		cols[i] = storage.Column{Name: names[i], Type: e.Type(), Width: CharWidth(e)}
	}
	return storage.NewSchema(cols...)
}

// paramWidth is the width a char scalar parameter is given at plan time.
const paramWidth = 32

// CharWidth returns the width of a char expression's values at plan time:
// a column reference's width, a constant's length, a substring's length, the
// widest branch of a CASE, paramWidth for a scalar parameter; 0 for a
// non-char expression. Bytes vectors are this wide.
func CharWidth(e Expr) int { return width(e, nil) }

// width is CharWidth, with a scalar parameter as wide as its value when
// scalars is set.
func width(e Expr, scalars []types.Datum) int {
	switch x := e.(type) {
	case *ColRef:
		if x.Ty == types.Char {
			return x.Width
		}
	case *ConstExpr:
		return len(x.D.B)
	case *ScalarParam:
		switch {
		case x.Ty != types.Char:
		case scalars == nil:
			return paramWidth
		default:
			return len(scalars[x.Slot].B)
		}
	case *SubstrExpr:
		return max(x.Len, 0)
	case *CaseExpr:
		w := width(x.Else, scalars)
		for _, wh := range x.Whens {
			w = max(w, width(wh.Then, scalars))
		}
		return w
	}
	return 0
}
