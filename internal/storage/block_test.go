package storage

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "k", Type: types.Int64},
		Column{Name: "v", Type: types.Float64},
		Column{Name: "d", Type: types.Date},
		Column{Name: "s", Type: types.Char, Width: 10},
	)
}

func TestSchemaLayout(t *testing.T) {
	s := testSchema()
	if s.RowWidth() != 8+8+4+10 {
		t.Fatalf("row width = %d", s.RowWidth())
	}
	if s.ColOffset(0) != 0 || s.ColOffset(1) != 8 || s.ColOffset(2) != 16 || s.ColOffset(3) != 20 {
		t.Fatal("column offsets wrong")
	}
	if s.MustColIndex("d") != 2 {
		t.Fatal("ColIndex wrong")
	}
	if s.ColIndex("nope") != -1 {
		t.Fatal("missing column should be -1")
	}
}

func TestSchemaProject(t *testing.T) {
	s := testSchema()
	p := s.Project([]int{3, 0})
	if p.NumCols() != 2 || p.Col(0).Name != "s" || p.Col(1).Name != "k" {
		t.Fatalf("projection wrong: %v", p.Names())
	}
	if p.RowWidth() != 18 {
		t.Fatalf("projected row width = %d", p.RowWidth())
	}
}

func TestSchemaPanicsOnBadChar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Char without width")
		}
	}()
	NewSchema(Column{Name: "x", Type: types.Char})
}

func roundTrip(t *testing.T, format Format) {
	t.Helper()
	s := testSchema()
	b := NewBlock(s, format, 1024)
	rows := [][]types.Datum{
		{types.NewInt64(1), types.NewFloat64(1.5), types.NewDate(100), types.NewString("alpha")},
		{types.NewInt64(-7), types.NewFloat64(-0.25), types.NewDate(-5), types.NewString("0123456789")},
		{types.NewInt64(0), types.NewFloat64(0), types.NewDate(0), types.NewString("")},
	}
	for _, r := range rows {
		if !b.AppendRow(r...) {
			t.Fatal("append failed")
		}
	}
	if b.NumRows() != len(rows) {
		t.Fatalf("NumRows = %d", b.NumRows())
	}
	for i, r := range rows {
		if got := b.Int64At(0, i); got != r[0].I {
			t.Errorf("row %d int: got %d want %d", i, got, r[0].I)
		}
		if got := b.Float64At(1, i); got != r[1].F {
			t.Errorf("row %d float: got %v want %v", i, got, r[1].F)
		}
		if got := b.DateAt(2, i); got != int32(r[2].I) {
			t.Errorf("row %d date: got %d want %d", i, got, r[2].I)
		}
		if got := string(types.TrimPad(b.BytesAt(3, i))); got != string(r[3].B) {
			t.Errorf("row %d char: got %q want %q", i, got, r[3].B)
		}
	}
}

func TestBlockRoundTripRowStore(t *testing.T)    { roundTrip(t, RowStore) }
func TestBlockRoundTripColumnStore(t *testing.T) { roundTrip(t, ColumnStore) }

func TestBlockCapacityAndFull(t *testing.T) {
	s := NewSchema(Column{Name: "k", Type: types.Int64})
	b := NewBlock(s, ColumnStore, 64) // 8 rows
	if b.Capacity() != 8 {
		t.Fatalf("capacity = %d", b.Capacity())
	}
	for i := 0; i < 8; i++ {
		if !b.AppendRow(types.NewInt64(int64(i))) {
			t.Fatalf("append %d failed early", i)
		}
	}
	if !b.Full() {
		t.Fatal("block should be full")
	}
	if b.AppendRow(types.NewInt64(99)) {
		t.Fatal("append to full block should fail")
	}
	if b.UsedBytes() != 64 {
		t.Fatalf("UsedBytes = %d", b.UsedBytes())
	}
	b.Reset()
	if b.NumRows() != 0 || b.Full() {
		t.Fatal("Reset should empty the block")
	}
}

func TestBlockMinimumCapacityOneRow(t *testing.T) {
	s := testSchema()             // 30-byte rows
	b := NewBlock(s, RowStore, 1) // budget smaller than one row
	if b.Capacity() != 1 {
		t.Fatalf("capacity = %d, want 1", b.Capacity())
	}
}

func TestAppendFromProjection(t *testing.T) {
	s := testSchema()
	src := NewBlock(s, ColumnStore, 4096)
	src.AppendRow(types.NewInt64(5), types.NewFloat64(2.5), types.NewDate(9), types.NewString("hello"))

	dstSchema := s.Project([]int{3, 1})
	dst := NewBlock(dstSchema, RowStore, 4096)
	if !dst.AppendFrom(src, 0, []int{3, 1}) {
		t.Fatal("AppendFrom failed")
	}
	if got := string(types.TrimPad(dst.BytesAt(0, 0))); got != "hello" {
		t.Errorf("projected char = %q", got)
	}
	if got := dst.Float64At(1, 0); got != 2.5 {
		t.Errorf("projected float = %v", got)
	}
}

// TestAppendPairsJoinRows: each tuple is its left row's projection followed
// by its right row's, a nil right block zero-fills (left outer join
// padding), right blocks may change from pair to pair, and the append stops
// where the block fills, in both destination layouts.
func TestAppendPairsJoinRows(t *testing.T) {
	ls := NewSchema(Column{Name: "a", Type: types.Int64}, Column{Name: "b", Type: types.Float64})
	rs := NewSchema(Column{Name: "c", Type: types.Int64}, Column{Name: "d", Type: types.Char, Width: 3})
	l := NewBlock(ls, ColumnStore, 1024)
	for i := 0; i < 4; i++ {
		l.AppendRow(types.NewInt64(int64(i)), types.NewFloat64(float64(i)+0.5))
	}
	r1 := NewBlock(rs, RowStore, 1024)
	r1.AppendRow(types.NewInt64(42), types.NewString("x"))
	r2 := NewBlock(rs, RowStore, 1024)
	r2.AppendRow(types.NewInt64(7), types.NewString("yz"))
	r2.AppendRow(types.NewInt64(8), types.NewString("w"))

	outSch := NewSchema(ls.Col(1), ls.Col(0), rs.Col(1), rs.Col(0))
	for _, format := range []Format{RowStore, ColumnStore} {
		out := NewBlock(outSch, format, 4*outSch.RowWidth())
		for !out.Full() { // stale cells a zero fill must overwrite
			out.AppendRow(types.NewFloat64(9), types.NewInt64(9), types.NewString("zzz"), types.NewInt64(9))
		}
		out.Reset()
		lrows := []int32{3, 1, 1, 0, 2}
		rights := []*Block{r1, r2, nil, r2, r1}
		rrows := []int32{0, 1, 0, 0, 0}
		if got := out.AppendPairs(l, lrows, []int{1, 0}, rights, rrows, []int{1, 0}); got != 4 {
			t.Fatalf("%s: appended %d pairs into a 4-row block", format, got)
		}
		want := []string{"[3.5 3 x 42]", "[1.5 1 w 8]", "[1.5 1  0]", "[0.5 0 yz 7]"}
		for i, w := range want {
			row := out.Row(i)
			got := fmt.Sprintf("[%v %v %s %v]", row[0].F, row[1].I, types.TrimPad(row[2].B), row[3].I)
			if got != w {
				t.Errorf("%s: row %d = %s, want %s", format, i, got, w)
			}
		}
		if out.AppendPairs(l, lrows[4:], []int{1, 0}, rights[4:], rrows[4:], []int{1, 0}) != 0 {
			t.Errorf("%s: appended into a full block", format)
		}
	}
}

// Property: for any sequence of rows, row-store and column-store blocks
// return identical data.
func TestFormatsEquivalentProperty(t *testing.T) {
	s := testSchema()
	f := func(seed int64, nRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rb := NewBlock(s, RowStore, 1<<14)
		cb := NewBlock(s, ColumnStore, 1<<14)
		n := int(nRows%64) + 1
		for i := 0; i < n; i++ {
			str := make([]byte, rng.Intn(11))
			for j := range str {
				str[j] = byte('a' + rng.Intn(26))
			}
			row := []types.Datum{
				types.NewInt64(rng.Int63() - rng.Int63()),
				types.NewFloat64(rng.NormFloat64()),
				types.NewDate(int32(rng.Int31() - rng.Int31())),
				types.NewChar(str),
			}
			rb.AppendRow(row...)
			cb.AppendRow(row...)
		}
		for i := 0; i < n; i++ {
			for c := 0; c < s.NumCols(); c++ {
				if !types.Equal(rb.DatumAt(c, i), cb.DatumAt(c, i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCharPaddingZeroed(t *testing.T) {
	// Overwriting a longer string with a shorter one must re-pad, so stale
	// bytes cannot leak through block reuse.
	s := NewSchema(Column{Name: "s", Type: types.Char, Width: 8})
	b := NewBlock(s, RowStore, 64)
	b.AppendRow(types.NewString("longtext"))
	b.Reset()
	b.AppendRow(types.NewString("ab"))
	if got := string(types.TrimPad(b.BytesAt(0, 0))); got != "ab" {
		t.Fatalf("stale padding leaked: %q", got)
	}
}

func TestGatherInt64MatchesInt64At(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Type: types.Int64},
		Column{Name: "f", Type: types.Float64},
		Column{Name: "b", Type: types.Int64},
	)
	rng := rand.New(rand.NewSource(11))
	for _, format := range []Format{RowStore, ColumnStore} {
		b := NewBlock(s, format, 4096)
		for !b.Full() {
			b.AppendRow(
				types.NewInt64(rng.Int63()-rng.Int63()),
				types.NewFloat64(rng.NormFloat64()),
				types.NewInt64(rng.Int63()-rng.Int63()),
			)
		}
		var dst []int64
		for _, col := range []int{0, 2} {
			dst = b.GatherInt64(col, dst)
			if len(dst) != b.NumRows() {
				t.Fatalf("%v col %d: gathered %d rows, want %d", format, col, len(dst), b.NumRows())
			}
			for r, v := range dst {
				if want := b.Int64At(col, r); v != want {
					t.Fatalf("%v col %d row %d: got %d want %d", format, col, r, v, want)
				}
			}
		}
		// Reuse: a large-enough dst must be reused, not reallocated.
		before := &dst[:1][0]
		dst = b.GatherInt64(0, dst)
		if &dst[:1][0] != before {
			t.Errorf("%v: GatherInt64 reallocated a sufficient dst", format)
		}
	}
}

func TestAppendFromManyMatchesAppendFrom(t *testing.T) {
	src := NewBlock(testSchema(), ColumnStore, 8192)
	rng := rand.New(rand.NewSource(12))
	for !src.Full() {
		str := make([]byte, rng.Intn(11))
		for j := range str {
			str[j] = byte('a' + rng.Intn(26))
		}
		src.AppendRow(
			types.NewInt64(rng.Int63()-rng.Int63()),
			types.NewFloat64(rng.NormFloat64()),
			types.NewDate(int32(rng.Int31()-rng.Int31())),
			types.NewChar(str),
		)
	}
	proj := []int{3, 0, 2} // Char, Int64 and Date cells (memmove, 8- and 4-byte words), out of order
	dstSch := src.Schema().Project(proj)
	rows := make([]int32, 0, src.NumRows())
	for r := src.NumRows() - 1; r >= 0; r-- { // scattered (reverse) row order
		rows = append(rows, int32(r))
	}
	for _, format := range []Format{RowStore, ColumnStore} {
		want := NewBlock(dstSch, format, 2048)
		for _, r := range rows {
			if !want.AppendFrom(src, int(r), proj) {
				break
			}
		}
		got := NewBlock(dstSch, format, 2048)
		n := got.AppendFromMany(src, rows, proj)
		if n != want.NumRows() {
			t.Fatalf("%v: AppendFromMany appended %d rows, per-row path %d", format, n, want.NumRows())
		}
		for r := 0; r < n; r++ {
			for c := 0; c < dstSch.NumCols(); c++ {
				if !types.Equal(got.DatumAt(c, r), want.DatumAt(c, r)) {
					t.Fatalf("%v row %d col %d: got %v want %v", format, r, c, got.DatumAt(c, r), want.DatumAt(c, r))
				}
			}
		}
		// Second call continues from where the block left off and respects
		// the remaining capacity.
		rest := got.AppendFromMany(src, rows[n:], proj)
		if got.NumRows() != n+rest || got.NumRows() > got.Capacity() {
			t.Fatalf("%v: second AppendFromMany overflowed: n=%d rest=%d cap=%d", format, n, rest, got.Capacity())
		}
		if full := NewBlock(dstSch, format, 2048); full.AppendFromMany(src, nil, proj) != 0 {
			t.Fatalf("%v: AppendFromMany with no rows must append 0", format)
		}
	}
}

func TestGatherDateWidensMatchesDateAt(t *testing.T) {
	s := NewSchema(
		Column{Name: "k", Type: types.Int64},
		Column{Name: "d", Type: types.Date},
	)
	rng := rand.New(rand.NewSource(13))
	for _, format := range []Format{RowStore, ColumnStore} {
		b := NewBlock(s, format, 4096)
		for !b.Full() {
			// Include negative day counts: the widening must sign-extend.
			b.AppendRow(types.NewInt64(rng.Int63()), types.NewDate(int32(rng.Uint32())))
		}
		var dst []int64
		dst = b.GatherDate(1, dst)
		if len(dst) != b.NumRows() {
			t.Fatalf("%v: gathered %d rows, want %d", format, len(dst), b.NumRows())
		}
		for r, v := range dst {
			if want := int64(b.DateAt(1, r)); v != want {
				t.Fatalf("%v row %d: got %d want %d", format, r, v, want)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: GatherDate on an 8-byte column did not panic", format)
				}
			}()
			b.GatherDate(0, nil)
		}()
	}
}

func TestGatherFloat64MatchesFloat64At(t *testing.T) {
	s := NewSchema(
		Column{Name: "d", Type: types.Date},
		Column{Name: "f", Type: types.Float64},
	)
	rng := rand.New(rand.NewSource(17))
	for _, format := range []Format{RowStore, ColumnStore} {
		b := NewBlock(s, format, 4096)
		for !b.Full() {
			b.AppendRow(types.NewDate(int32(rng.Intn(20000))), types.NewFloat64(rng.NormFloat64()))
		}
		var dst []float64
		dst = b.GatherFloat64(1, dst)
		if len(dst) != b.NumRows() {
			t.Fatalf("%v: gathered %d rows, want %d", format, len(dst), b.NumRows())
		}
		for r, v := range dst {
			if want := b.Float64At(1, r); v != want {
				t.Fatalf("%v row %d: got %v want %v", format, r, v, want)
			}
		}
		// Reuse: a large-enough dst must be reused, not reallocated.
		before := &dst[:1][0]
		dst = b.GatherFloat64(1, dst)
		if &dst[:1][0] != before {
			t.Errorf("%v: GatherFloat64 reallocated a sufficient dst", format)
		}
	}
}

// TestColViewMatchesDatumAt checks the in-place column view against DatumAt:
// Int and Float give a cell's Datum.I and Datum.Float, Bytes its padded char
// cell, in both formats.
func TestColViewMatchesDatumAt(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, format := range []Format{RowStore, ColumnStore} {
		b := NewBlock(testSchema(), format, 4096)
		for !b.Full() {
			b.AppendRow(types.NewInt64(rng.Int63()-rng.Int63()), types.NewFloat64(rng.NormFloat64()),
				types.NewDate(int32(rng.Uint32())), types.NewString(string(rune('a'+rng.Intn(26)))))
		}
		for col := 0; col < 3; col++ {
			v := b.View(col)
			for r := 0; r < b.NumRows(); r++ {
				d := b.DatumAt(col, r)
				if v.Float(r) != d.Float() || (d.Ty != types.Float64 && v.Int(r) != d.I) {
					t.Fatalf("%v col %d row %d: view (%d, %v), datum %v", format, col, r, v.Int(r), v.Float(r), d)
				}
			}
		}
		for r, v := 0, b.View(3); r < b.NumRows(); r++ {
			if got, want := v.Bytes(r), b.BytesAt(3, r); string(got) != string(want) {
				t.Fatalf("%v row %d: view %q, BytesAt %q", format, r, got, want)
			}
		}
	}
}
