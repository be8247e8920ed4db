package expr

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

func makeBlock(t *testing.T) (*storage.Schema, *storage.Block) {
	t.Helper()
	s := storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "price", Type: types.Float64},
		storage.Column{Name: "ship", Type: types.Date},
		storage.Column{Name: "name", Type: types.Char, Width: 12},
	)
	b := storage.NewBlock(s, storage.ColumnStore, 4096)
	b.AppendRow(types.NewInt64(1), types.NewFloat64(10.0), types.NewDate(types.ToDays(1995, 1, 1)), types.NewString("PROMO BRASS"))
	b.AppendRow(types.NewInt64(2), types.NewFloat64(20.0), types.NewDate(types.ToDays(1996, 6, 15)), types.NewString("SMALL BRASS"))
	b.AppendRow(types.NewInt64(3), types.NewFloat64(30.0), types.NewDate(types.ToDays(1997, 12, 31)), types.NewString("PROMO STEEL"))
	return s, b
}

func evalOne(e Expr, b *storage.Block, row int) types.Datum {
	return e.Eval(&Ctx{B: b, Row: row})
}

func TestColRefAndConst(t *testing.T) {
	s, b := makeBlock(t)
	if got := evalOne(C(s, "k"), b, 1); got.I != 2 {
		t.Errorf("col k row 1 = %v", got)
	}
	if got := evalOne(C(s, "price"), b, 2); got.F != 30.0 {
		t.Errorf("col price row 2 = %v", got)
	}
	if got := evalOne(Int(7), b, 0); got.I != 7 {
		t.Errorf("const = %v", got)
	}
	if C(s, "name").Width != 12 {
		t.Error("ColRef should carry Char width")
	}
}

func TestComparisons(t *testing.T) {
	s, b := makeBlock(t)
	cases := []struct {
		e    Expr
		row  int
		want int64
	}{
		{Eq(C(s, "k"), Int(2)), 1, 1},
		{Eq(C(s, "k"), Int(2)), 0, 0},
		{Ne(C(s, "k"), Int(2)), 0, 1},
		{Lt(C(s, "price"), Float(15)), 0, 1},
		{Le(C(s, "price"), Float(10)), 0, 1},
		{Gt(C(s, "price"), Float(25)), 2, 1},
		{Ge(C(s, "price"), Float(30)), 2, 1},
		{Ge(C(s, "ship"), Date(1996, 1, 1)), 0, 0},
		{Ge(C(s, "ship"), Date(1996, 1, 1)), 1, 1},
		{Between(C(s, "k"), Int(2), Int(3)), 1, 1},
		{Between(C(s, "k"), Int(2), Int(3)), 0, 0},
	}
	for i, c := range cases {
		if got := evalOne(c.e, b, c.row).I; got != c.want {
			t.Errorf("case %d %s row %d = %d, want %d", i, c.e, c.row, got, c.want)
		}
	}
}

func TestBooleans(t *testing.T) {
	s, b := makeBlock(t)
	e := And(Gt(C(s, "k"), Int(1)), Lt(C(s, "price"), Float(25)))
	if evalOne(e, b, 1).I != 1 || evalOne(e, b, 0).I != 0 || evalOne(e, b, 2).I != 0 {
		t.Error("AND wrong")
	}
	o := Or(Eq(C(s, "k"), Int(1)), Eq(C(s, "k"), Int(3)))
	if evalOne(o, b, 0).I != 1 || evalOne(o, b, 1).I != 0 {
		t.Error("OR wrong")
	}
	if evalOne(Not(Eq(C(s, "k"), Int(1))), b, 0).I != 0 {
		t.Error("NOT wrong")
	}
	// And/Or with a single child collapse to that child.
	if And(Eq(C(s, "k"), Int(1))) != Eq(C(s, "k"), Int(1)) {
		// pointer inequality expected; just check type collapse
		if _, ok := And(Eq(C(s, "k"), Int(1))).(*AndExpr); ok {
			t.Error("single-child And should collapse")
		}
	}
}

func TestArithmetic(t *testing.T) {
	s, b := makeBlock(t)
	// The canonical TPC-H revenue expression.
	rev := MulE(C(s, "price"), SubE(Float(1), Float(0.1)))
	if got := evalOne(rev, b, 1).F; got != 18.0 {
		t.Errorf("revenue = %v", got)
	}
	if Arith(Add, Int(1), Int(2)).Type() != types.Int64 {
		t.Error("int+int should be Int64")
	}
	if got := evalOne(AddE(Int(1), Int(2)), b, 0).I; got != 3 {
		t.Errorf("1+2 = %d", got)
	}
	if DivE(Int(1), Int(2)).Type() != types.Float64 {
		t.Error("div is always float")
	}
	if got := evalOne(DivE(Int(1), Int(2)), b, 0).F; got != 0.5 {
		t.Errorf("1/2 = %v", got)
	}
	if got := evalOne(SubE(Int(5), Int(7)), b, 0).I; got != -2 {
		t.Errorf("5-7 = %d", got)
	}
	if got := evalOne(MulE(Int(3), Int(4)), b, 0).I; got != 12 {
		t.Errorf("3*4 = %d", got)
	}
}

func TestYearSubstr(t *testing.T) {
	s, b := makeBlock(t)
	if got := evalOne(Year(C(s, "ship")), b, 1).I; got != 1996 {
		t.Errorf("year = %d", got)
	}
	if got := string(evalOne(Substr(C(s, "name"), 1, 5), b, 0).Bytes()); got != "PROMO" {
		t.Errorf("substr = %q", got)
	}
	if got := string(evalOne(Substr(C(s, "name"), 7, 20), b, 0).Bytes()); got != "BRASS" {
		t.Errorf("substr past end = %q", got)
	}
}

// TestSubstrStartBelowOne checks SQL's window rule: positions before 1 count
// toward the length, so SUBSTRING('abcdef' FROM 0 FOR 2) is 'a'.
func TestSubstrStartBelowOne(t *testing.T) {
	cases := []struct {
		start, length int
		want          string
	}{
		{0, 2, "a"}, {-1, 3, "a"}, {-5, 2, ""}, {0, 0, ""}, {1, 2, "ab"},
		{5, 10, "ef"}, {7, 2, ""}, {10, 2, ""}, {2, -1, ""},
	}
	for _, c := range cases {
		if got := string(Substr(Str("abcdef"), c.start, c.length).Eval(&Ctx{}).Bytes()); got != c.want {
			t.Errorf("SUBSTRING('abcdef' FROM %d FOR %d) = %q, want %q", c.start, c.length, got, c.want)
		}
	}
}

func TestCase(t *testing.T) {
	s, b := makeBlock(t)
	// Q14-style: CASE WHEN name LIKE 'PROMO%' THEN price ELSE 0 END
	e := Case(Float(0), When{Cond: Like(C(s, "name"), "PROMO%"), Then: C(s, "price")})
	if got := evalOne(e, b, 0).Float(); got != 10.0 {
		t.Errorf("case row 0 = %v", got)
	}
	if got := evalOne(e, b, 1).Float(); got != 0.0 {
		t.Errorf("case row 1 = %v", got)
	}
}

func TestIn(t *testing.T) {
	s, b := makeBlock(t)
	e := In(C(s, "k"), types.NewInt64(1), types.NewInt64(3))
	if evalOne(e, b, 0).I != 1 || evalOne(e, b, 1).I != 0 || evalOne(e, b, 2).I != 1 {
		t.Error("IN wrong")
	}
	se := InStrings(Substr(C(s, "name"), 1, 5), "PROMO", "LARGE")
	if evalOne(se, b, 0).I != 1 || evalOne(se, b, 1).I != 0 {
		t.Error("IN strings wrong")
	}
}

func TestScalarParam(t *testing.T) {
	s, b := makeBlock(t)
	e := Gt(C(s, "price"), Param(0, types.Float64))
	c := Ctx{B: b, Row: 2, Scalars: []types.Datum{types.NewFloat64(25)}}
	if e.Eval(&c).I != 1 {
		t.Error("param compare wrong")
	}
	c.Row = 0
	if e.Eval(&c).I != 0 {
		t.Error("param compare wrong (row 0)")
	}
}

func TestSecondarySide(t *testing.T) {
	s, b := makeBlock(t)
	s2 := storage.NewSchema(storage.Column{Name: "x", Type: types.Int64})
	b2 := storage.NewBlock(s2, storage.RowStore, 64)
	b2.AppendRow(types.NewInt64(2))
	// probe.k <> build.x — the Q21 residual shape.
	e := Ne(C(s, "k"), C2(s2, "x"))
	c := Ctx{B: b, Row: 1, B2: b2, Row2: 0}
	if e.Eval(&c).I != 0 {
		t.Error("2 <> 2 should be false")
	}
	c.Row = 0
	if e.Eval(&c).I != 1 {
		t.Error("1 <> 2 should be true")
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"PROMO BRASS", "PROMO%", true},
		{"PROMO BRASS", "%BRASS", true},
		{"PROMO BRASS", "%OMO%", true},
		{"PROMO BRASS", "%MO%BR%", true},
		{"PROMO BRASS", "BRASS%", false},
		{"special packages requests", "%special%requests%", true},
		{"special requests packages", "%special%requests%", true},
		{"specialrequests", "%special%requests%", true},
		{"requests special", "%special%requests%", false},
		{"abc", "abc", true},
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "%", true},
		{"", "%", true},
		{"", "", true},
		{"", "_", false},
		{"aaa", "%a", true},
		{"ab", "a%b%", true},
		{"mississippi", "%iss%ippi", true},
		{"mississippi", "%iss%issi", false},
	}
	for _, c := range cases {
		if got := likeMatch([]byte(c.s), c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestFilterBlock(t *testing.T) {
	s, b := makeBlock(t)
	got := FilterBlock(Ge(C(s, "price"), Float(20)), b, nil, nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("FilterBlock = %v", got)
	}
	// FilterRows refines a candidate list in place.
	refined := FilterRows(Like(C(s, "name"), "PROMO%"), b, got, nil)
	if len(refined) != 1 || refined[0] != 2 {
		t.Fatalf("FilterRows = %v", refined)
	}
}

func TestFilterBlockScratchReuse(t *testing.T) {
	s, b := makeBlock(t)
	scratch := make([]int32, 0, 64)
	got := FilterBlock(Ge(C(s, "price"), Float(20)), b, nil, scratch)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("FilterBlock = %v", got)
	}
	if &scratch[:1][0] != &got[:1][0] {
		t.Fatal("FilterBlock did not reuse the caller's scratch buffer")
	}
	// A too-small scratch must still produce a correct (freshly grown) vector.
	small := make([]int32, 0, 1)
	got2 := FilterBlock(Ge(C(s, "price"), Float(20)), b, nil, small)
	if len(got2) != 2 || got2[0] != 1 || got2[1] != 2 {
		t.Fatalf("FilterBlock with small scratch = %v", got2)
	}
}

func TestSelectAll(t *testing.T) {
	_, b := makeBlock(t)
	sel := SelectAll(b, nil)
	if len(sel) != b.NumRows() {
		t.Fatalf("SelectAll len = %d, want %d", len(sel), b.NumRows())
	}
	for i, r := range sel {
		if int(r) != i {
			t.Fatalf("SelectAll[%d] = %d", i, r)
		}
	}
	scratch := make([]int32, 0, 64)
	sel2 := SelectAll(b, scratch)
	if &scratch[:1][0] != &sel2[:1][0] {
		t.Fatal("SelectAll did not reuse the caller's scratch buffer")
	}
}

func TestOutputSchema(t *testing.T) {
	s, _ := makeBlock(t)
	exprs := []Expr{C(s, "k"), MulE(C(s, "price"), Float(2)), C(s, "name"), Substr(C(s, "name"), 1, 5)}
	out := OutputSchema(exprs, []string{"k", "p2", "name", "pfx"})
	if out.Col(0).Type != types.Int64 || out.Col(1).Type != types.Float64 {
		t.Error("numeric types wrong")
	}
	if out.Col(2).Type != types.Char || out.ColWidth(2) != 12 {
		t.Errorf("char width from ColRef = %d", out.ColWidth(2))
	}
	if out.ColWidth(3) != 5 {
		t.Errorf("char width from Substr = %d", out.ColWidth(3))
	}
}

func TestStrings(t *testing.T) {
	s, _ := makeBlock(t)
	e := And(Ge(C(s, "ship"), Date(1995, 1, 1)), Like(C(s, "name"), "PROMO%"))
	if e.String() == "" {
		t.Error("expression rendering should be non-empty")
	}
	if got := Cmp(EQ, C(s, "k"), Int(1)).String(); got != "(k = 1)" {
		t.Errorf("Cmp string = %q", got)
	}
}
