// Package expr implements typed scalar expressions evaluated block-at-a-time:
// column references (over one block, or over a probe/build block pair for
// join residual predicates), constants, arithmetic, comparisons, boolean
// connectives, BETWEEN, IN, LIKE, CASE, EXTRACT(YEAR), SUBSTRING, and
// runtime scalar parameters (for scalar-subquery results). Types are
// inferred at construction time so plan building fails fast.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/storage"
	"repro/internal/types"
)

// Ctx is the evaluation context: a primary block and, for per-row Eval, a
// row; for Eval, an optional secondary block/row (a join residual's build
// side, before the probe rebinds the residual to one block); and runtime
// scalar parameters. Block evaluation (Vectors) reads B and Scalars only.
type Ctx struct {
	B    *storage.Block
	Row  int
	B2   *storage.Block
	Row2 int
	// Scalars holds values produced by scalar subqueries, indexed by
	// ScalarParam slots; the engine fills them before dependent operators
	// run.
	Scalars []types.Datum
}

// Expr is a typed scalar expression.
type Expr interface {
	// Type returns the result type.
	Type() types.TypeID
	// Eval evaluates the expression for one row. Boolean expressions
	// return Int64 0/1. It defines the semantics the block kernels
	// (Vectors) must match; the engine itself never calls it.
	Eval(c *Ctx) types.Datum
	// String renders the expression for plan display.
	String() string
}

// Side selects which block of the Ctx a column reference reads.
type Side uint8

const (
	// Primary reads Ctx.B/Ctx.Row.
	Primary Side = iota
	// Secondary reads Ctx.B2/Ctx.Row2.
	Secondary
)

// ColRef reads a column of the context block. Width carries the storage
// width of Char columns so projections can derive output schemas.
type ColRef struct {
	S     Side
	Col   int
	Ty    types.TypeID
	Width int
	Name  string
}

// C builds a Primary-side column reference resolved against schema.
func C(s *storage.Schema, name string) *ColRef {
	i := s.MustColIndex(name)
	return &ColRef{S: Primary, Col: i, Ty: s.Col(i).Type, Width: s.ColWidth(i), Name: name}
}

// C2 builds a Secondary-side column reference resolved against schema.
func C2(s *storage.Schema, name string) *ColRef {
	i := s.MustColIndex(name)
	return &ColRef{S: Secondary, Col: i, Ty: s.Col(i).Type, Width: s.ColWidth(i), Name: name}
}

// ColIdx builds a Primary-side reference by position.
func ColIdx(s *storage.Schema, i int) *ColRef {
	return &ColRef{S: Primary, Col: i, Ty: s.Col(i).Type, Width: s.ColWidth(i), Name: s.Col(i).Name}
}

// AsPrimaryColRef returns e as a plain Primary-side column reference, if it
// is one. Operators use this to detect expressions they can satisfy by
// copying or reading the column in place (the select fast-copy path, the
// sort's tie-break on wide char columns).
func AsPrimaryColRef(e Expr) (*ColRef, bool) {
	c, ok := e.(*ColRef)
	if !ok || c.S != Primary {
		return nil, false
	}
	return c, true
}

// Type implements Expr.
func (e *ColRef) Type() types.TypeID { return e.Ty }

// Eval implements Expr.
func (e *ColRef) Eval(c *Ctx) types.Datum {
	b, r := c.B, c.Row
	if e.S == Secondary {
		b, r = c.B2, c.Row2
	}
	return b.DatumAt(e.Col, r)
}

// String implements Expr.
func (e *ColRef) String() string {
	if e.S == Secondary {
		return "build." + e.Name
	}
	return e.Name
}

// ConstExpr is a literal.
type ConstExpr struct{ D types.Datum }

// Const wraps a datum literal.
func Const(d types.Datum) *ConstExpr { return &ConstExpr{D: d} }

// Int is a convenience Int64 literal.
func Int(v int64) *ConstExpr { return Const(types.NewInt64(v)) }

// Float is a convenience Float64 literal.
func Float(v float64) *ConstExpr { return Const(types.NewFloat64(v)) }

// Str is a convenience Char literal.
func Str(s string) *ConstExpr { return Const(types.NewString(s)) }

// Date is a convenience Date literal from a civil date.
func Date(y, m, d int) *ConstExpr { return Const(types.NewDate(types.ToDays(y, m, d))) }

// Type implements Expr.
func (e *ConstExpr) Type() types.TypeID { return e.D.Ty }

// Eval implements Expr.
func (e *ConstExpr) Eval(*Ctx) types.Datum { return e.D }

// String implements Expr.
func (e *ConstExpr) String() string { return e.D.String() }

// ScalarParam reads a runtime scalar (a scalar subquery's result) by slot.
type ScalarParam struct {
	Slot int
	Ty   types.TypeID
}

// Param builds a scalar parameter reference.
func Param(slot int, ty types.TypeID) *ScalarParam { return &ScalarParam{Slot: slot, Ty: ty} }

// Type implements Expr.
func (e *ScalarParam) Type() types.TypeID { return e.Ty }

// Eval implements Expr.
func (e *ScalarParam) Eval(c *Ctx) types.Datum { return c.Scalars[e.Slot] }

// String implements Expr.
func (e *ScalarParam) String() string { return fmt.Sprintf("$%d", e.Slot) }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

var cmpNames = [...]string{"=", "<>", "<", "<=", ">", ">="}

// CmpExpr compares two expressions of compatible types.
type CmpExpr struct {
	Op   CmpOp
	L, R Expr
	// pad is R's char constant zero-padded to the width of L's char column,
	// built by Cmp for the filter kernel (nil if it does not apply).
	pad []byte
}

// Cmp builds a comparison.
func Cmp(op CmpOp, l, r Expr) *CmpExpr {
	e := &CmpExpr{Op: op, L: l, R: r}
	if k, ok := r.(*ConstExpr); ok && padWidth(l) > 0 {
		e.pad = padTo(k.D.B, padWidth(l))
	}
	return e
}

// Eq builds l = r.
func Eq(l, r Expr) *CmpExpr { return Cmp(EQ, l, r) }

// Ne builds l <> r.
func Ne(l, r Expr) *CmpExpr { return Cmp(NE, l, r) }

// Lt builds l < r.
func Lt(l, r Expr) *CmpExpr { return Cmp(LT, l, r) }

// Le builds l <= r.
func Le(l, r Expr) *CmpExpr { return Cmp(LE, l, r) }

// Gt builds l > r.
func Gt(l, r Expr) *CmpExpr { return Cmp(GT, l, r) }

// Ge builds l >= r.
func Ge(l, r Expr) *CmpExpr { return Cmp(GE, l, r) }

// Type implements Expr; comparisons are boolean (Int64 0/1).
func (e *CmpExpr) Type() types.TypeID { return types.Int64 }

// Eval implements Expr.
func (e *CmpExpr) Eval(c *Ctx) types.Datum {
	cmp := types.Compare(e.L.Eval(c), e.R.Eval(c))
	var ok bool
	switch e.Op {
	case EQ:
		ok = cmp == 0
	case NE:
		ok = cmp != 0
	case LT:
		ok = cmp < 0
	case LE:
		ok = cmp <= 0
	case GT:
		ok = cmp > 0
	case GE:
		ok = cmp >= 0
	}
	return boolDatum(ok)
}

// String implements Expr.
func (e *CmpExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, cmpNames[e.Op], e.R)
}

// Between builds lo <= x AND x <= hi.
func Between(x, lo, hi Expr) Expr { return And(Ge(x, lo), Le(x, hi)) }

// AndExpr is an n-ary conjunction with short-circuit evaluation.
type AndExpr struct{ Kids []Expr }

// And builds a conjunction.
func And(kids ...Expr) Expr {
	if len(kids) == 1 {
		return kids[0]
	}
	return &AndExpr{Kids: kids}
}

// Type implements Expr.
func (e *AndExpr) Type() types.TypeID { return types.Int64 }

// Eval implements Expr.
func (e *AndExpr) Eval(c *Ctx) types.Datum {
	for _, k := range e.Kids {
		if k.Eval(c).I == 0 {
			return boolDatum(false)
		}
	}
	return boolDatum(true)
}

// String implements Expr.
func (e *AndExpr) String() string { return nary("AND", e.Kids) }

// OrExpr is an n-ary disjunction with short-circuit evaluation.
type OrExpr struct{ Kids []Expr }

// Or builds a disjunction.
func Or(kids ...Expr) Expr {
	if len(kids) == 1 {
		return kids[0]
	}
	return &OrExpr{Kids: kids}
}

// Type implements Expr.
func (e *OrExpr) Type() types.TypeID { return types.Int64 }

// Eval implements Expr.
func (e *OrExpr) Eval(c *Ctx) types.Datum {
	for _, k := range e.Kids {
		if k.Eval(c).I != 0 {
			return boolDatum(true)
		}
	}
	return boolDatum(false)
}

// String implements Expr.
func (e *OrExpr) String() string { return nary("OR", e.Kids) }

// NotExpr negates a boolean expression.
type NotExpr struct{ X Expr }

// Not builds a negation.
func Not(x Expr) *NotExpr { return &NotExpr{X: x} }

// Type implements Expr.
func (e *NotExpr) Type() types.TypeID { return types.Int64 }

// Eval implements Expr.
func (e *NotExpr) Eval(c *Ctx) types.Datum { return boolDatum(e.X.Eval(c).I == 0) }

// String implements Expr.
func (e *NotExpr) String() string { return "NOT " + e.X.String() }

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

var arithNames = [...]string{"+", "-", "*", "/"}

// ArithExpr computes arithmetic over numeric expressions. If both operands
// are Int64 the result is Int64, otherwise Float64.
type ArithExpr struct {
	Op   ArithOp
	L, R Expr
	ty   types.TypeID
}

// Arith builds an arithmetic expression.
func Arith(op ArithOp, l, r Expr) *ArithExpr {
	ty := types.Float64
	if l.Type() == types.Int64 && r.Type() == types.Int64 && op != Div {
		ty = types.Int64
	}
	return &ArithExpr{Op: op, L: l, R: r, ty: ty}
}

// AddE builds l + r.
func AddE(l, r Expr) *ArithExpr { return Arith(Add, l, r) }

// SubE builds l - r.
func SubE(l, r Expr) *ArithExpr { return Arith(Sub, l, r) }

// MulE builds l * r.
func MulE(l, r Expr) *ArithExpr { return Arith(Mul, l, r) }

// DivE builds l / r (always Float64).
func DivE(l, r Expr) *ArithExpr { return Arith(Div, l, r) }

// Type implements Expr.
func (e *ArithExpr) Type() types.TypeID { return e.ty }

// Eval implements Expr.
func (e *ArithExpr) Eval(c *Ctx) types.Datum {
	l, r := e.L.Eval(c), e.R.Eval(c)
	if e.ty == types.Int64 {
		switch e.Op {
		case Add:
			return types.NewInt64(l.I + r.I)
		case Sub:
			return types.NewInt64(l.I - r.I)
		default:
			return types.NewInt64(l.I * r.I)
		}
	}
	lf, rf := l.Float(), r.Float()
	switch e.Op {
	case Add:
		return types.NewFloat64(lf + rf)
	case Sub:
		return types.NewFloat64(lf - rf)
	case Mul:
		return types.NewFloat64(lf * rf)
	default:
		return types.NewFloat64(lf / rf)
	}
}

// String implements Expr.
func (e *ArithExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, arithNames[e.Op], e.R)
}

// YearExpr extracts the calendar year of a Date expression.
type YearExpr struct{ X Expr }

// Year builds EXTRACT(YEAR FROM x).
func Year(x Expr) *YearExpr { return &YearExpr{X: x} }

// Type implements Expr.
func (e *YearExpr) Type() types.TypeID { return types.Int64 }

// Eval implements Expr.
func (e *YearExpr) Eval(c *Ctx) types.Datum {
	return types.NewInt64(int64(types.Year(int32(e.X.Eval(c).I))))
}

// String implements Expr.
func (e *YearExpr) String() string { return fmt.Sprintf("YEAR(%s)", e.X) }

// SubstrExpr extracts a byte substring of a Char expression (1-based start,
// as in SQL SUBSTRING).
type SubstrExpr struct {
	X          Expr
	Start, Len int
}

// Substr builds SUBSTRING(x FROM start FOR length).
func Substr(x Expr, start, length int) *SubstrExpr {
	return &SubstrExpr{X: x, Start: start, Len: length}
}

// Type implements Expr.
func (e *SubstrExpr) Type() types.TypeID { return types.Char }

// Eval implements Expr.
func (e *SubstrExpr) Eval(c *Ctx) types.Datum {
	// The window [Start-1, Start-1+Len) is taken before clamping, so a start
	// below 1 shortens the result as in SQL.
	b := e.X.Eval(c).Bytes()
	lo := min(max(e.Start-1, 0), len(b))
	hi := min(max(e.Start-1+e.Len, lo), len(b))
	return types.NewChar(b[lo:hi])
}

// String implements Expr.
func (e *SubstrExpr) String() string {
	return fmt.Sprintf("SUBSTR(%s,%d,%d)", e.X, e.Start, e.Len)
}

// CaseExpr is a searched CASE with an ELSE branch.
type CaseExpr struct {
	Whens []When
	Else  Expr
}

// When pairs a condition with its result.
type When struct {
	Cond Expr
	Then Expr
}

// Case builds CASE WHEN ... ELSE els END.
func Case(els Expr, whens ...When) *CaseExpr { return &CaseExpr{Whens: whens, Else: els} }

// Type implements Expr.
func (e *CaseExpr) Type() types.TypeID { return e.Else.Type() }

// Eval implements Expr.
func (e *CaseExpr) Eval(c *Ctx) types.Datum {
	for _, w := range e.Whens {
		if w.Cond.Eval(c).I != 0 {
			return w.Then.Eval(c)
		}
	}
	return e.Else.Eval(c)
}

// String implements Expr.
func (e *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	fmt.Fprintf(&sb, " ELSE %s END", e.Else)
	return sb.String()
}

// InExpr tests membership of x in a literal list.
type InExpr struct {
	X    Expr
	List []types.Datum
	// pads is List zero-padded to padW, the width of X's char values
	// (CharWidth), built by In for the filter kernel; values longer than
	// padW, which no value can equal, are left out. padW is 0 if X is not a
	// char expression.
	pads [][]byte
	padW int
}

// In builds x IN (list).
func In(x Expr, list ...types.Datum) *InExpr {
	e := &InExpr{X: x, List: list}
	if x.Type() == types.Char {
		e.padW = CharWidth(x)
		for _, d := range list {
			if pad := padTo(d.B, e.padW); pad != nil {
				e.pads = append(e.pads, pad)
			}
		}
	}
	return e
}

// InStrings builds x IN ('a','b',...).
func InStrings(x Expr, ss ...string) *InExpr {
	ds := make([]types.Datum, len(ss))
	for i, s := range ss {
		ds[i] = types.NewString(s)
	}
	return In(x, ds...)
}

// Type implements Expr.
func (e *InExpr) Type() types.TypeID { return types.Int64 }

// Eval implements Expr.
func (e *InExpr) Eval(c *Ctx) types.Datum {
	v := e.X.Eval(c)
	for _, d := range e.List {
		if types.Equal(v, d) {
			return boolDatum(true)
		}
	}
	return boolDatum(false)
}

// String implements Expr.
func (e *InExpr) String() string {
	parts := make([]string, len(e.List))
	for i, d := range e.List {
		parts[i] = d.String()
	}
	return fmt.Sprintf("%s IN (%s)", e.X, strings.Join(parts, ","))
}

func boolDatum(b bool) types.Datum {
	if b {
		return types.NewInt64(1)
	}
	return types.NewInt64(0)
}

func nary(op string, kids []Expr) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, " "+op+" ") + ")"
}
