package expr

import "sort"

// Children returns the direct sub-expressions of e. Leaf expressions return
// nil.
func Children(e Expr) []Expr {
	switch x := e.(type) {
	case *CmpExpr:
		return []Expr{x.L, x.R}
	case *ArithExpr:
		return []Expr{x.L, x.R}
	case *AndExpr:
		return x.Kids
	case *OrExpr:
		return x.Kids
	case *NotExpr:
		return []Expr{x.X}
	case *YearExpr:
		return []Expr{x.X}
	case *SubstrExpr:
		return []Expr{x.X}
	case *LikeExpr:
		return []Expr{x.X}
	case *InExpr:
		return []Expr{x.X}
	case *CaseExpr:
		out := make([]Expr, 0, 2*len(x.Whens)+1)
		for _, w := range x.Whens {
			out = append(out, w.Cond, w.Then)
		}
		return append(out, x.Else)
	default:
		return nil
	}
}

// Walk visits e and all sub-expressions depth-first.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	for _, k := range Children(e) {
		Walk(k, fn)
	}
}

// PrimaryCols returns the sorted, de-duplicated Primary-side column indexes
// referenced by the given expressions (nil expressions are skipped). The
// select and probe operators use it to charge the cache model only for the
// columns a column-store scan actually touches (Section IV-B).
func PrimaryCols(exprs ...Expr) []int {
	seen := map[int]bool{}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		Walk(e, func(x Expr) {
			if c, ok := x.(*ColRef); ok && c.S == Primary {
				seen[c.Col] = true
			}
		})
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Rebind returns a copy of e with every column reference replaced by
// col(ref). The copy is rebuilt through the constructors, so what they
// precompute from a column's width (the char paddings of comparisons and IN
// lists) follows the new references. A join residual is rebound this way to
// one block holding the columns of both sides.
func Rebind(e Expr, col func(*ColRef) *ColRef) Expr {
	rb := func(x Expr) Expr { return Rebind(x, col) }
	all := func(xs []Expr) []Expr {
		out := make([]Expr, len(xs))
		for i, x := range xs {
			out[i] = rb(x)
		}
		return out
	}
	switch x := e.(type) {
	case *ColRef:
		return col(x)
	case *CmpExpr:
		return Cmp(x.Op, rb(x.L), rb(x.R))
	case *ArithExpr:
		return Arith(x.Op, rb(x.L), rb(x.R))
	case *AndExpr:
		return &AndExpr{Kids: all(x.Kids)}
	case *OrExpr:
		return &OrExpr{Kids: all(x.Kids)}
	case *NotExpr:
		return Not(rb(x.X))
	case *YearExpr:
		return Year(rb(x.X))
	case *SubstrExpr:
		return Substr(rb(x.X), x.Start, x.Len)
	case *LikeExpr:
		y := *x
		y.X = rb(x.X)
		return &y
	case *InExpr:
		return In(rb(x.X), x.List...)
	case *CaseExpr:
		whens := make([]When, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = When{Cond: rb(w.Cond), Then: rb(w.Then)}
		}
		return Case(rb(x.Else), whens...)
	}
	return e
}
