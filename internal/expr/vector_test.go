package expr

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// vecSchema has two columns of every kind, so that column-vs-column kernels
// see every pairing: i, i2 Int64; f, f2 Float64; d, d2 Date; c, c2 Char(6).
var vecSchema = storage.NewSchema(
	storage.Column{Name: "i", Type: types.Int64},
	storage.Column{Name: "i2", Type: types.Int64},
	storage.Column{Name: "f", Type: types.Float64},
	storage.Column{Name: "f2", Type: types.Float64},
	storage.Column{Name: "d", Type: types.Date},
	storage.Column{Name: "d2", Type: types.Date},
	storage.Column{Name: "c", Type: types.Char, Width: 6},
	storage.Column{Name: "c2", Type: types.Char, Width: 6},
)

const vecCap = 64 // rows per full test block

// Value pools: NaN, both zeros and both infinities, the int64 extremes,
// integers that equal float constants, char values that fill the column
// width, are prefixes of others or hold an interior zero byte, and constants
// longer than the width.
var (
	vecInts   = []int64{math.MinInt64, -3, -1, 0, 1, 2, 3, 7, 1 << 40, math.MaxInt64}
	vecFloats = []float64{math.NaN(), 0, math.Copysign(0, -1), -1, 1, 2, 2.5, 3, -7.25, math.Inf(1), math.Inf(-1)}
	vecDates  = []int32{-40, 0, 9000, 9001, 10000}
	vecChars  = []string{"", "a", "ab", "abc", "abcdef", "abd", "b", "zzzzzz", "a\x00b", "ab\x00", "abcdefg", "abcdeg"}
	vecLikes  = []string{"%", "%%", "a%", "%b%", "ab_", "_b%", "abcdef", "%c", "", "a%a", "a%b%", "%\x00%", "%abcdefg%"}
)

func vecBlock(rng *rand.Rand, format storage.Format, n int) *storage.Block {
	b := storage.NewBlock(vecSchema, format, vecCap*vecSchema.RowWidth())
	for r := 0; r < n; r++ {
		b.AppendRow(
			types.NewInt64(vecInts[rng.Intn(len(vecInts))]),
			types.NewInt64(vecInts[rng.Intn(len(vecInts))]),
			types.NewFloat64(vecFloats[rng.Intn(len(vecFloats))]),
			types.NewFloat64(vecFloats[rng.Intn(len(vecFloats))]),
			types.NewDate(vecDates[rng.Intn(len(vecDates))]),
			types.NewDate(vecDates[rng.Intn(len(vecDates))]),
			types.NewString(vecChars[rng.Intn(len(vecChars))]),
			types.NewString(vecChars[rng.Intn(len(vecChars))]),
		)
	}
	return b
}

// vecScalars are the scalar-parameter slots: an Int64, a Float64, a Date, a
// NaN, the largest Int64 and a char constant.
var vecScalars = []types.Datum{types.NewInt64(2), types.NewFloat64(2.5), types.NewDate(9000),
	types.NewFloat64(math.NaN()), types.NewInt64(math.MaxInt64), types.NewString("ab")}

func col(name string) *ColRef { return C(vecSchema, name) }

// numLeaf returns a numeric leaf: a column, a constant or a scalar parameter
// of Int64, Float64 or Date type.
func numLeaf(rng *rand.Rand) Expr {
	switch rng.Intn(9) {
	case 0:
		return col([]string{"i", "i2"}[rng.Intn(2)])
	case 1:
		return col([]string{"f", "f2"}[rng.Intn(2)])
	case 2:
		return col([]string{"d", "d2"}[rng.Intn(2)])
	case 3:
		return Int(vecInts[rng.Intn(len(vecInts))])
	case 4:
		return Float(vecFloats[rng.Intn(len(vecFloats))])
	case 5:
		return Const(types.NewDate(vecDates[rng.Intn(len(vecDates))]))
	default:
		slot := rng.Intn(len(vecScalars) - 1) // the numeric slots
		return Param(slot, vecScalars[slot].Ty)
	}
}

// numExpr builds a numeric tree: arithmetic over leaves, with CASE and YEAR
// subtrees that the vector evaluator runs per row.
func numExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 {
		return numLeaf(rng)
	}
	switch rng.Intn(6) {
	case 0:
		return numLeaf(rng)
	case 1:
		return Case(Float(0.5), When{Cond: predExpr(rng, 1), Then: col("f")})
	case 2:
		return Year(col("d"))
	default:
		return Arith(ArithOp(rng.Intn(4)), numExpr(rng, depth-1), numExpr(rng, depth-1))
	}
}

// charExpr builds a char tree: columns, constants (some longer than the
// columns, some with zero bytes), the char scalar parameter, substrings
// (windows that start before the value or run past it) and CASE over them.
func charExpr(rng *rand.Rand, depth int) Expr {
	k := rng.Intn(5)
	if depth <= 0 {
		k %= 3
	}
	switch k {
	case 0:
		return col([]string{"c", "c2"}[rng.Intn(2)])
	case 1:
		if rng.Intn(4) == 0 {
			return Param(5, types.Char)
		}
		return Str(vecChars[rng.Intn(len(vecChars))])
	case 2, 3:
		return Substr(charExpr(rng, depth-1), rng.Intn(8)-1, rng.Intn(8))
	}
	return Case(charExpr(rng, depth-1), When{Cond: predExpr(rng, 1), Then: charExpr(rng, depth-1)},
		When{Cond: predExpr(rng, 0), Then: charExpr(rng, depth-1)})
}

// predExpr builds a predicate tree mixing the kernel shapes (column vs
// constant, scalar parameter or column; IN and LIKE over a char column) with
// the shapes that compare computed vectors (reversed operands, arithmetic
// operands, substrings, CASE) under AND/OR/NOT nesting.
func predExpr(rng *rand.Rand, depth int) Expr {
	if depth > 0 {
		switch rng.Intn(6) {
		case 0:
			return And(predExpr(rng, depth-1), predExpr(rng, depth-1), predExpr(rng, depth-1))
		case 1:
			return Or(predExpr(rng, depth-1), predExpr(rng, depth-1))
		case 2:
			return Not(predExpr(rng, depth-1))
		}
	}
	op := CmpOp(rng.Intn(6))
	chars := []string{"c", "c2"}
	switch rng.Intn(12) {
	case 9:
		return Cmp(op, charExpr(rng, 2), charExpr(rng, 2))
	case 10:
		return InStrings(charExpr(rng, 2), vecChars[rng.Intn(len(vecChars))], vecChars[rng.Intn(len(vecChars))])
	case 11:
		return Like(charExpr(rng, 2), vecLikes[rng.Intn(len(vecLikes))])
	case 0, 1:
		return Cmp(op, numLeaf(rng), numLeaf(rng))
	case 2:
		return Cmp(op, col(chars[rng.Intn(2)]), Str(vecChars[rng.Intn(len(vecChars))]))
	case 3:
		return Cmp(op, col(chars[rng.Intn(2)]), col(chars[rng.Intn(2)]))
	case 4:
		list := make([]string, 1+rng.Intn(3))
		for i := range list {
			list[i] = vecChars[rng.Intn(len(vecChars))]
		}
		return InStrings(col(chars[rng.Intn(2)]), list...)
	case 5:
		if rng.Intn(2) == 0 {
			return Like(col(chars[rng.Intn(2)]), vecLikes[rng.Intn(len(vecLikes))])
		}
		return NotLike(col(chars[rng.Intn(2)]), vecLikes[rng.Intn(len(vecLikes))])
	case 6:
		return Cmp(op, col("f"), numExpr(rng, 1))
	case 7:
		return InStrings(Substr(col("c"), 1, 2), "ab", "a")
	default:
		return Between(numLeaf(rng), numLeaf(rng), numLeaf(rng))
	}
}

// evalRows is the row-at-a-time reference selection.
func evalRows(pred Expr, b *storage.Block) []int32 {
	c := Ctx{B: b, Scalars: vecScalars}
	var out []int32
	for r := 0; r < b.NumRows(); r++ {
		c.Row = r
		if pred.Eval(&c).I != 0 {
			out = append(out, int32(r))
		}
	}
	return out
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestVectorMatchesEval is a seeded property test: FilterBlock and the
// numeric vector evaluator must agree exactly with per-row Eval over both
// formats, at block sizes 0, 1, odd and full, with scratch that holds stale
// values from earlier calls.
func TestVectorMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sel := make([]int32, vecCap)
	for i := range sel {
		sel[i] = -1
	}
	var vec Vectors
	fs := make([]float64, 3)
	is := make([]int64, 3)
	for _, format := range []storage.Format{storage.RowStore, storage.ColumnStore} {
		for _, n := range []int{0, 1, 37, vecCap} {
			for iter := 0; iter < 150; iter++ {
				b := vecBlock(rng, format, n)
				pred := predExpr(rng, 3)
				got := FilterBlock(pred, b, vecScalars, sel[:0])
				want := evalRows(pred, b)
				if len(got) != len(want) {
					t.Fatalf("%v n=%d %s: FilterBlock %v, Eval %v", format, n, pred, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v n=%d %s: FilterBlock %v, Eval %v", format, n, pred, got, want)
					}
				}

				c := Ctx{B: b, Scalars: vecScalars}
				ce := charExpr(rng, 3)
				cv := vec.Bytes(ce, &c)
				for r := 0; r < n; r++ {
					c.Row = r
					d := ce.Eval(&c)
					if want := string(padTo(d.B, cv.Width())); string(cv.Bytes(r)) != want || len(d.B) > cv.Width() {
						t.Fatalf("%v %s row %d: Bytes %q, Eval %q", format, ce, r, cv.Bytes(r), d.B)
					}
				}

				e := numExpr(rng, 3)
				fs = vec.Floats(e, &c, fs)
				if e.Type() != types.Float64 {
					is = vec.Ints(e, &c, is)
				}
				if len(fs) != n {
					t.Fatalf("%s: Floats returned %d values for %d rows", e, len(fs), n)
				}
				for r := 0; r < n; r++ {
					c.Row = r
					d := e.Eval(&c)
					if !sameFloat(fs[r], d.Float()) {
						t.Fatalf("%v %s row %d: Floats %v, Eval %v", format, e, r, fs[r], d.Float())
					}
					if e.Type() != types.Float64 && is[r] != d.I {
						t.Fatalf("%v %s row %d: Ints %d, Eval %d", format, e, r, is[r], d.I)
					}
				}
			}
		}
	}
}

// TestCmpKernelsMatchEval walks every comparison kernel shape — each column
// kind against a constant, a scalar parameter and a column of every kind,
// under all six ops — and checks FilterBlock against per-row Eval.
func TestCmpKernelsMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cols := []string{"i", "d", "f", "c"}
	rights := func(kind string) []Expr {
		if kind == "c" {
			out := []Expr{col("c2"), Param(5, types.Char)}
			for _, v := range vecChars {
				out = append(out, Str(v))
			}
			return out
		}
		out := []Expr{col("i2"), col("d2"), col("f2"), Param(0, types.Int64), Param(1, types.Float64),
			Param(2, types.Date), Param(3, types.Float64), Param(4, types.Int64)}
		for _, v := range vecInts {
			out = append(out, Int(v))
		}
		for _, v := range vecFloats {
			out = append(out, Float(v))
		}
		for _, v := range vecDates {
			out = append(out, Const(types.NewDate(v)))
		}
		return out
	}
	sel := make([]int32, vecCap)
	for _, format := range []storage.Format{storage.RowStore, storage.ColumnStore} {
		b := vecBlock(rng, format, vecCap)
		for _, l := range cols {
			for _, r := range rights(l) {
				for op := EQ; op <= GE; op++ {
					pred := Cmp(op, col(l), r)
					got := FilterBlock(pred, b, vecScalars, sel[:0])
					if want := evalRows(pred, b); !slices.Equal(got, want) {
						t.Fatalf("%v %s: FilterBlock %v, Eval %v", format, pred, got, want)
					}
				}
			}
		}
	}
}

// TestFilterBlockAllocs checks that the kernel path allocates nothing per
// block once the caller's selection scratch is warm.
func TestFilterBlockAllocs(t *testing.T) {
	b := vecBlock(rand.New(rand.NewSource(1)), storage.ColumnStore, vecCap)
	pred := And(
		Ge(col("d"), Const(types.NewDate(0))), Lt(col("d"), col("d2")),
		Ge(col("f"), Float(-1)), Le(col("i"), Param(1, types.Float64)), Ne(col("i"), Int(7)),
		Ge(col("c"), Str("a")), InStrings(col("c2"), "abc", "ab", "b"), NotLike(col("c"), "%z%"),
	)
	sel := FilterBlock(pred, b, vecScalars, nil)
	if allocs := testing.AllocsPerRun(100, func() { sel = FilterBlock(pred, b, vecScalars, sel) }); allocs != 0 {
		t.Fatalf("FilterBlock allocates %v per block with warm scratch", allocs)
	}
	// OR, NOT and comparisons of computed values need intermediate vectors:
	// a warm Vectors holds them.
	or := Or(And(Lt(col("i"), Int(0)), Not(Eq(Substr(col("c"), 1, 2), Str("ab")))),
		Gt(AddE(col("f"), col("f2")), Float(1)), Like(Case(col("c2"), When{Cond: Gt(col("i"), Int(2)), Then: col("c")}), "a%"))
	c := &Ctx{B: b, Scalars: vecScalars}
	var vec Vectors
	sel = vec.Filter(or, c, sel)
	if allocs := testing.AllocsPerRun(100, func() { sel = vec.Filter(or, c, sel) }); allocs != 0 {
		t.Fatalf("Vectors.Filter of an OR allocates %v per block with warm scratch", allocs)
	}
}

// TestEvalVectorAllocs checks that the numeric vector evaluator allocates
// nothing per block once the caller's Vectors and result vectors are warm.
func TestEvalVectorAllocs(t *testing.T) {
	b := vecBlock(rand.New(rand.NewSource(1)), storage.RowStore, vecCap)
	// Q1's charge, and an integer expression over a date.
	charge := MulE(MulE(col("f"), SubE(Float(1), col("f2"))), AddE(Float(1), Param(1, types.Float64)))
	days := AddE(MulE(col("i"), Int(3)), SubE(col("i2"), Param(0, types.Int64)))
	// A CASE over YEAR, and a char CASE over a substring, as bytes.
	year := Case(Int(0), When{Cond: Ge(col("d"), Const(types.NewDate(9000))), Then: Year(col("d"))})
	chars := Case(Substr(col("c"), 2, 3), When{Cond: Lt(col("i"), Int(0)), Then: col("c2")})
	c := &Ctx{B: b, Scalars: vecScalars}
	var vec Vectors
	fs := vec.Floats(charge, c, nil)
	is := vec.Ints(days, c, nil)
	ys := vec.Ints(year, c, nil)
	vec.Bytes(chars, c)
	allocs := testing.AllocsPerRun(100, func() {
		fs = vec.Floats(charge, c, fs)
		is = vec.Ints(days, c, is)
		ys = vec.Ints(year, c, ys)
		vec.Bytes(chars, c)
	})
	if allocs != 0 {
		t.Fatalf("vector evaluation allocates %v per block with warm scratch", allocs)
	}
}
