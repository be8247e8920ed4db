package expr

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// FuzzExprEval drives a typed stack machine over the fuzz input to build
// arbitrary well-typed expression trees, then checks the evaluator's
// invariants on every row of a row-store and a column-store block:
//
//   - Eval never panics on a well-typed tree;
//   - the evaluated datum's type matches the tree's static Type();
//   - boolean-valued operators return exactly 0 or 1;
//   - evaluation is deterministic (same row, same result);
//   - FilterBlock agrees with row-at-a-time evaluation for every Int64 tree
//     (a predicate, or any value read as a boolean);
//   - the numeric vectors agree bitwise (NaN with any NaN) with row-at-a-time
//     evaluation for every non-char tree, and the bytes vector holds each
//     row's char value zero-padded for every char tree.
//
// Run as a fuzzer with `go test ./internal/expr -fuzz FuzzExprEval`; in
// normal test runs it replays the seed corpus.
func FuzzExprEval(f *testing.F) {
	f.Add([]byte{0, 3, 7, 7}, int64(42), -1.5)
	f.Add([]byte{0, 1, 6, 0, 6, 1, 6, 2, 6, 3}, int64(7), 0.0)
	f.Add([]byte{2, 14, 2, 7, 5, 12, 8, 9, 10}, int64(-9), math.MaxFloat64)
	f.Add([]byte{13, 13, 7, 0, 3, 11, 15}, int64(0), math.NaN())
	f.Add([]byte{2, 16, 3, 2, 16, 0, 17, 0, 7, 4, 8}, int64(3), 2.0)
	f.Add([]byte{1, 17, 1, 6, 2, 0, 17, 0, 6, 1, 7, 5}, int64(-4), math.Inf(-1))
	f.Add([]byte{18, 13, 9, 7, 4, 18, 19, 1, 7, 5, 18, 18, 7, 2}, int64(math.MaxInt64), math.NaN())
	f.Add([]byte{0, 17, 0, 7, 3, 1, 17, 1, 7, 1, 0, 3, 1, 7, 2}, int64(math.MinInt64), math.Copysign(0, -1))
	f.Add([]byte{2, 5, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 7, 1, 2, 12, 2, 9, 0, 2, 1, 2, 3}, int64(0), 0.0)
	// Dozens of nested INs: the block evaluator must evaluate each operand
	// once, not once per list value.
	f.Add([]byte("bbb7777"+strings.Repeat("\xe8", 200)), int64(1), 0.5)
	f.Fuzz(func(t *testing.T, program []byte, seedI int64, seedF float64) {
		if len(program) > 256 {
			program = program[:256]
		}
		schema := storage.NewSchema(
			storage.Column{Name: "i", Type: types.Int64},
			storage.Column{Name: "f", Type: types.Float64},
			storage.Column{Name: "c", Type: types.Char, Width: 8},
			storage.Column{Name: "d", Type: types.Date},
		)
		scalars := []types.Datum{types.NewInt64(seedI), types.NewFloat64(seedF), types.NewDate(int32(seedI)),
			types.NewString(strings.Repeat("ax", int(uint64(seedI)%5)))}
		exprs := interpret(program, schema)
		for _, format := range []storage.Format{storage.RowStore, storage.ColumnStore} {
			b := storage.NewBlock(schema, format, 6*schema.RowWidth())
			for r := 0; r < 6; r++ {
				c := string(rune('a'+r)) + "xyzw"
				switch r {
				case 4:
					c = "ax\x00" // an interior zero byte
				case 5:
					c = "axyzwxyz" // fills the column width; "axyzw" is its prefix
				}
				b.AppendRow(
					types.NewInt64(seedI+int64(r)*3-1),
					types.NewFloat64(seedF*float64(r-2)),
					types.NewString(c),
					types.NewDate(int32(seedI)+int32(r)-2),
				)
			}
			for _, e := range exprs {
				checkExpr(t, e, b, scalars)
			}
		}
	})
}

func checkExpr(t *testing.T, e Expr, b *storage.Block, scalars []types.Datum) {
	ty := e.Type()
	_ = e.String() // must not panic either
	c := Ctx{B: b, Scalars: scalars}
	for r := 0; r < b.NumRows(); r++ {
		c.Row = r
		d1 := e.Eval(&c)
		d2 := e.Eval(&c)
		if d1.Ty != ty {
			t.Fatalf("%s: Eval type %v, static Type %v", e, d1.Ty, ty)
		}
		if !sameDatum(d1, d2) {
			t.Fatalf("%s: non-deterministic: %v then %v", e, d1, d2)
		}
		if isBoolean(e) && d1.I != 0 && d1.I != 1 {
			t.Fatalf("%s: boolean value %d", e, d1.I)
		}
	}
	if ty == types.Char {
		var vec Vectors
		v := vec.Bytes(e, &c)
		for r := 0; r < b.NumRows(); r++ {
			c.Row = r
			d := e.Eval(&c)
			cell := v.Bytes(r)
			if len(d.B) > len(cell) || !slices.Equal(cell[:len(d.B)], d.B) || strings.Trim(string(cell[len(d.B):]), "\x00") != "" {
				t.Fatalf("%s row %d: Bytes %q, Eval %q", e, r, cell, d.B)
			}
		}
		return
	}
	// Predicates: the vectorized filter must agree with Eval.
	if ty == types.Int64 {
		got := FilterBlock(e, b, scalars, nil)
		var want []int32
		for r := 0; r < b.NumRows(); r++ {
			c.Row = r
			if e.Eval(&c).I != 0 {
				want = append(want, int32(r))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: FilterBlock %v, row-at-a-time %v", e, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: FilterBlock %v, row-at-a-time %v", e, got, want)
			}
		}
	}
	// Numeric vectors must match Eval's values exactly.
	var vec Vectors
	fs := vec.Floats(e, &c, nil)
	is := vec.Ints(e, &c, nil)
	for r := 0; r < b.NumRows(); r++ {
		c.Row = r
		d := e.Eval(&c)
		if x, y := fs[r], d.Float(); math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			t.Fatalf("%s row %d: Floats %v, Eval %v", e, r, x, y)
		}
		if ty != types.Float64 && is[r] != d.I {
			t.Fatalf("%s row %d: Ints %d, Eval %d", e, r, is[r], d.I)
		}
	}
}

// interpret builds well-typed expressions from the program bytes with a
// stack machine; ill-typed opcodes are skipped, so every input maps to some
// (possibly empty) set of trees.
func interpret(program []byte, schema *storage.Schema) []Expr {
	var stack []Expr
	pop := func() Expr {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return e
	}
	numeric := func(e Expr) bool {
		return e.Type() == types.Int64 || e.Type() == types.Float64
	}
	next := func(i *int) byte {
		if *i >= len(program) {
			return 0
		}
		v := program[*i]
		*i++
		return v
	}
	for i := 0; i < len(program); {
		op := next(&i)
		switch op % 20 {
		case 0:
			stack = append(stack, ColIdx(schema, 0))
		case 1:
			stack = append(stack, ColIdx(schema, 1))
		case 2:
			stack = append(stack, ColIdx(schema, 2))
		case 3:
			stack = append(stack, Int(int64(int8(next(&i)))))
		case 4:
			stack = append(stack, Float(float64(int8(next(&i)))/4))
		case 5:
			// Up to 9 bytes, so some constants are longer than the 8-byte
			// column, some hold zero bytes.
			str := make([]byte, next(&i)%10)
			for j := range str {
				str[j] = "ax\x00z"[next(&i)%4]
			}
			stack = append(stack, Str(string(str)))
		case 6:
			if len(stack) >= 2 && numeric(stack[len(stack)-1]) && numeric(stack[len(stack)-2]) {
				r, l := pop(), pop()
				stack = append(stack, Arith(ArithOp(next(&i)%4), l, r))
			}
		case 7:
			if len(stack) >= 2 {
				a, b := stack[len(stack)-1], stack[len(stack)-2]
				bothNum := numeric(a) && numeric(b)
				bothChar := a.Type() == types.Char && b.Type() == types.Char
				bothDate := a.Type() == types.Date && b.Type() == types.Date
				if bothNum || bothChar || bothDate {
					r, l := pop(), pop()
					stack = append(stack, Cmp(CmpOp(next(&i)%6), l, r))
				}
			}
		case 8:
			if len(stack) >= 2 && stack[len(stack)-1].Type() == types.Int64 && stack[len(stack)-2].Type() == types.Int64 {
				r, l := pop(), pop()
				stack = append(stack, And(l, r))
			}
		case 9:
			if len(stack) >= 2 && stack[len(stack)-1].Type() == types.Int64 && stack[len(stack)-2].Type() == types.Int64 {
				r, l := pop(), pop()
				stack = append(stack, Or(l, r))
			}
		case 10:
			if len(stack) >= 1 && stack[len(stack)-1].Type() == types.Int64 {
				stack = append(stack, Not(pop()))
			}
		case 11:
			if len(stack) >= 3 && numeric(stack[len(stack)-1]) && numeric(stack[len(stack)-2]) && numeric(stack[len(stack)-3]) {
				hi, lo, x := pop(), pop(), pop()
				stack = append(stack, Between(x, lo, hi))
			}
		case 12:
			if len(stack) >= 1 {
				x := pop()
				var list []types.Datum
				for n := int(next(&i)%3) + 1; n > 0; n-- {
					switch x.Type() {
					case types.Float64:
						list = append(list, types.NewFloat64(float64(int8(next(&i)))))
					case types.Char:
						list = append(list, types.NewString(string([]byte{next(&i)%26 + 'a', 'x'})))
					default:
						list = append(list, types.NewInt64(int64(int8(next(&i)))))
					}
				}
				stack = append(stack, In(x, list...))
			}
		case 13:
			stack = append(stack, Const(types.NewDate(int32(int16(next(&i)))*37)))
		case 14:
			if len(stack) >= 1 && stack[len(stack)-1].Type() == types.Char {
				stack = append(stack, Substr(pop(), int(next(&i)%6), int(next(&i)%6)))
			} else if len(stack) >= 1 && stack[len(stack)-1].Type() == types.Date {
				stack = append(stack, Year(pop()))
			}
		case 15:
			if len(stack) >= 3 && stack[len(stack)-3].Type() == types.Int64 &&
				stack[len(stack)-1].Type() == stack[len(stack)-2].Type() {
				els, then, cond := pop(), pop(), pop()
				stack = append(stack, Case(els, When{Cond: cond, Then: then}))
			}
		case 16:
			if len(stack) >= 1 && stack[len(stack)-1].Type() == types.Char {
				pat := make([]byte, next(&i)%4)
				for j := range pat {
					pat[j] = "ax%_"[next(&i)%4]
				}
				if next(&i)%2 == 0 {
					stack = append(stack, Like(pop(), string(pat)))
				} else {
					stack = append(stack, NotLike(pop(), string(pat)))
				}
			}
		case 17:
			switch next(&i) % 3 {
			case 0:
				stack = append(stack, Param(0, types.Int64))
			case 1:
				stack = append(stack, Param(1, types.Float64))
			default:
				stack = append(stack, Param(3, types.Char))
			}
		case 18:
			stack = append(stack, ColIdx(schema, 3))
		case 19:
			stack = append(stack, Param(2, types.Date))
		}
		if len(stack) > 32 {
			break
		}
	}
	return stack
}

// isBoolean reports whether the root operator is boolean-valued by
// construction.
func isBoolean(e Expr) bool {
	switch e.(type) {
	case *CmpExpr, *AndExpr, *OrExpr, *NotExpr, *InExpr, *LikeExpr:
		return true
	}
	return false
}

// sameDatum is exact equality including NaN == NaN (determinism check, not
// SQL comparison).
func sameDatum(a, b types.Datum) bool {
	if a.Ty != b.Ty || a.I != b.I {
		return false
	}
	if a.F != b.F && !(math.IsNaN(a.F) && math.IsNaN(b.F)) {
		return false
	}
	return string(a.B) == string(b.B)
}

// FuzzLike checks the compiled LIKE matcher against likeMatch, the
// backtracking reference, on every pattern it compiles (those without '_'),
// and — where it claims to allow it — on the text followed by zero padding.
// Run as a fuzzer with `go test ./internal/expr -fuzz FuzzLike`.
func FuzzLike(f *testing.F) {
	for _, seed := range []struct{ p, s string }{
		{"", ""}, {"", "a"}, {"%", ""}, {"%%", "a"}, {"a%a", "a"}, {"a%a", "aa"},
		{"_", "a"}, {"a_%", "ab"}, {"%special%requests%", "xspecialyrequests"},
		{"%BRASS", "SMALL BRASS"}, {"PROMO%", "PROMO X"}, {"%a\x00%", "ba\x00c"},
	} {
		f.Add(seed.p, []byte(seed.s))
	}
	f.Fuzz(func(t *testing.T, pattern string, text []byte) {
		m := compileLike(pattern)
		if m == nil {
			if strings.IndexByte(pattern, '_') < 0 {
				t.Fatalf("%q has no '_' but did not compile", pattern)
			}
			return
		}
		s := types.TrimPad(text)
		want := likeMatch(s, pattern)
		if got := m.match(s); got != want {
			t.Fatalf("%q on %q: compiled %v, likeMatch %v", pattern, s, got, want)
		}
		if m.padded {
			padded := append(slices.Clip(s), 0, 0, 0)
			if got := m.match(padded); got != want {
				t.Fatalf("%q on padded %q: compiled %v, likeMatch %v", pattern, s, got, want)
			}
		}
	})
}
