package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/types"
)

// viewBaseSchema has a column of every width a block kernel treats
// differently: 8-byte Int64 and Float64, the 4-byte Date, and chars of 1, 3,
// 8 and 13 bytes.
func viewBaseSchema() *Schema {
	return NewSchema(
		Column{Name: "i", Type: types.Int64},
		Column{Name: "c1", Type: types.Char, Width: 1},
		Column{Name: "f", Type: types.Float64},
		Column{Name: "d", Type: types.Date},
		Column{Name: "c3", Type: types.Char, Width: 3},
		Column{Name: "c8", Type: types.Char, Width: 8},
		Column{Name: "i2", Type: types.Int64},
		Column{Name: "c13", Type: types.Char, Width: 13},
	)
}

// randomBase fills a base block of schema s with random rows.
func randomBase(rng *rand.Rand, s *Schema, format Format, blockBytes int) *Block {
	b := NewBlock(s, format, blockBytes)
	for !b.Full() {
		row := make([]types.Datum, s.NumCols())
		for c := range row {
			switch col := s.Col(c); col.Type {
			case types.Int64:
				row[c] = types.NewInt64(rng.Int63() - rng.Int63())
			case types.Float64:
				row[c] = types.NewFloat64(rng.NormFloat64() * 1e6)
			case types.Date:
				row[c] = types.NewDate(rng.Int31() - rng.Int31())
			default:
				str := make([]byte, rng.Intn(col.Width+1))
				for j := range str {
					str[j] = byte(1 + rng.Intn(255))
				}
				row[c] = types.NewChar(str)
			}
		}
		b.AppendRow(row...)
	}
	b.Truncate(b.Capacity() - rng.Intn(3)) // a base block need not be full
	return b
}

// ascending returns a random ascending selection of b's rows.
func ascending(rng *rand.Rand, n int) []int32 {
	keep := rng.Float64()
	var sel []int32
	for r := 0; r < n; r++ {
		if rng.Float64() < keep {
			sel = append(sel, int32(r))
		}
	}
	return sel
}

// viewCase is one random view and the temp block it stands for, filled as a
// select fills them: each base block's selection appended in turn, the view
// checked in after every block and resumed for the next.
type viewCase struct {
	pool  *Pool
	bases []*Block
	proj  []int
	view  *Block
	mat   *Block // the view's Materialize
	copy  *Block // the rows copied as the select copies them
}

func newViewCase(rng *rand.Rand) (*viewCase, error) {
	s := viewBaseSchema()
	baseFormat, viewFormat := Format(rng.Intn(2)), Format(rng.Intn(2))
	vc := &viewCase{pool: NewPool(new(stats.MemGauge), nil)}
	for range 1 + rng.Intn(4) {
		vc.bases = append(vc.bases, randomBase(rng, s, baseFormat, 512+rng.Intn(1024)))
	}
	for range 1 + rng.Intn(2*s.NumCols()) {
		vc.proj = append(vc.proj, rng.Intn(s.NumCols())) // columns may repeat
	}
	out := s.Project(vc.proj)
	budget := 256 + rng.Intn(4096)
	vc.copy = NewBlock(out, viewFormat, budget)
	for _, base := range vc.bases {
		sel := ascending(rng, base.NumRows())
		v := vc.pool.CheckOutView(0, out, vc.proj, viewFormat, budget)
		took := v.AppendView(base, sel)
		if took != vc.copy.AppendFromMany(base, sel, vc.proj) {
			return nil, fmt.Errorf("view took %d rows, the copy %d", took, vc.copy.NumRows())
		}
		vc.pool.CheckIn(0, v)
	}
	ps := vc.pool.TakePartials(0)
	if len(ps) != 1 {
		return nil, fmt.Errorf("%d partial views, want the one resumed view", len(ps))
	}
	vc.view = ps[0]
	// A second view of the same rows is the one materialized in place.
	vc.mat = vc.pool.CheckOutView(1, out, vc.proj, viewFormat, budget)
	for _, sg := range segments(vc.view) {
		vc.mat.AppendView(sg.base, sg.rows)
	}
	vc.pool.Materialize(vc.mat, budget)
	return vc, nil
}

type segRows struct {
	base *Block
	rows []int32
}

// segments returns the view's base blocks and their rows, in view order.
func segments(v *Block) []segRows {
	var out []segRows
	lo := 0
	for _, sg := range v.segs {
		out = append(out, segRows{sg.base, v.rows[lo:sg.end]})
		lo = sg.end
	}
	return out
}

// dump returns every cell of b, row by row, through DatumAt.
func dump(b *Block) string {
	var sb bytes.Buffer
	for r := range b.NumRows() {
		fmt.Fprintln(&sb, b.Row(r))
	}
	return sb.String()
}

// TestViewMatchesMaterialize checks, over random views of one to four base
// blocks in either format, every read accessor on a view against the same
// call on its Materialize and on the block the select's copy fills: Gather*,
// View, AppendFromMany and AppendPairs with the view as source, NumRows,
// UsedBytes and the codec.
func TestViewMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for i := range 300 {
		vc, err := newViewCase(rng)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := vc.check(rng); err != nil {
			t.Fatalf("case %d (%d bases, proj %v): %v", i, len(vc.bases), vc.proj, err)
		}
	}
}

func (vc *viewCase) check(rng *rand.Rand) error {
	v, m := vc.view, vc.mat
	if !v.IsView() || m.IsView() {
		return fmt.Errorf("IsView: view %v, materialized %v", v.IsView(), m.IsView())
	}
	if v.NumRows() != m.NumRows() || v.NumRows() != vc.copy.NumRows() || v.Capacity() != m.Capacity() {
		return fmt.Errorf("rows %d/%d/%d, capacity %d/%d", v.NumRows(), m.NumRows(), vc.copy.NumRows(), v.Capacity(), m.Capacity())
	}
	if v.UsedBytes() != m.UsedBytes() || m.AllocBytes() != vc.copy.AllocBytes() || v.AllocBytes() != 4*v.Capacity() {
		return fmt.Errorf("used %d/%d, alloc %d/%d/%d", v.UsedBytes(), m.UsedBytes(), v.AllocBytes(), m.AllocBytes(), vc.copy.AllocBytes())
	}
	// The resumed view kept its base blocks in order.
	segs := segments(v)
	for k := 1; k < len(segs); k++ {
		if slices.Index(vc.bases, segs[k].base) <= slices.Index(vc.bases, segs[k-1].base) {
			return fmt.Errorf("segment %d's base precedes segment %d's", k, k-1)
		}
	}
	want := dump(vc.copy)
	if got := dump(v); got != want {
		return fmt.Errorf("view cells differ from the copy's")
	}
	if got := dump(m); got != want {
		return fmt.Errorf("materialized cells differ from the copy's")
	}
	for c := range v.Schema().NumCols() {
		if err := sameColumn(v, m, c); err != nil {
			return fmt.Errorf("column %d: %v", c, err)
		}
	}
	// AppendFromMany from the view, rows in random order with repeats, into
	// a random projection.
	var rows []int32
	for range rng.Intn(2 * (v.NumRows() + 1)) {
		if v.NumRows() > 0 {
			rows = append(rows, int32(rng.Intn(v.NumRows())))
		}
	}
	if rng.Intn(2) == 0 {
		slices.Sort(rows)
	}
	var proj []int
	for range 1 + rng.Intn(v.Schema().NumCols()) {
		proj = append(proj, rng.Intn(v.Schema().NumCols()))
	}
	for _, f := range []Format{RowStore, ColumnStore} {
		a := NewBlock(v.Schema().Project(proj), f, 1<<16)
		b := NewBlock(v.Schema().Project(proj), f, 1<<16)
		if a.AppendFromMany(v, rows, proj) != b.AppendFromMany(m, rows, proj) || dump(a) != dump(b) {
			return fmt.Errorf("AppendFromMany(%v) differs", f)
		}
	}
	// AppendPairs with the view on the left and a nil or base row on the
	// right.
	rights := make([]*Block, len(rows))
	rrows := make([]int32, len(rows))
	for i := range rows {
		if base := vc.bases[rng.Intn(len(vc.bases))]; rng.Intn(4) > 0 {
			rights[i], rrows[i] = base, int32(rng.Intn(base.NumRows()))
		}
	}
	rproj := []int{0, 1, 3, 7}
	cols := make([]Column, 0, len(proj)+len(rproj))
	for _, c := range proj {
		cols = append(cols, v.Schema().Col(c))
	}
	for i, c := range rproj {
		col := vc.bases[0].Schema().Col(c)
		col.Name = fmt.Sprintf("r%d", i)
		cols = append(cols, col)
	}
	for i := range cols {
		cols[i].Name = fmt.Sprintf("o%d", i)
	}
	ps := NewSchema(cols...)
	a, b := NewBlock(ps, ColumnStore, 1<<16), NewBlock(ps, ColumnStore, 1<<16)
	if a.AppendPairs(v, rows, proj, rights, rrows, rproj) != b.AppendPairs(m, rows, proj, rights, rrows, rproj) || dump(a) != dump(b) {
		return fmt.Errorf("AppendPairs differs")
	}
	// A materialized view survives the codec.
	dec, err := DecodeBlock(EncodeBlock(m, nil))
	if err != nil {
		return err
	}
	if dump(dec) != want {
		return fmt.Errorf("codec round trip differs")
	}
	return nil
}

// sameColumn compares column c of view v and block m through Gather* and
// View.
func sameColumn(v, m *Block, c int) error {
	switch v.Schema().Col(c).Type {
	case types.Int64:
		if !slices.Equal(v.GatherInt64(c, nil), m.GatherInt64(c, nil)) {
			return fmt.Errorf("GatherInt64 differs")
		}
	case types.Float64:
		x, y := v.GatherFloat64(c, nil), m.GatherFloat64(c, nil)
		if !slices.EqualFunc(x, y, func(a, b float64) bool { return float64bits(a) == float64bits(b) }) {
			return fmt.Errorf("GatherFloat64 differs")
		}
	case types.Date:
		if !slices.Equal(v.GatherDate(c, nil), m.GatherDate(c, nil)) {
			return fmt.Errorf("GatherDate differs")
		}
	}
	vv, mv := v.View(c), m.View(c)
	if vv.Type != mv.Type || vv.Width() != mv.Width() {
		return fmt.Errorf("View type or width differs")
	}
	buf := make([]byte, 3) // too small: ViewInto grows it
	iv := v.ViewInto(c, buf)
	for r := range v.NumRows() {
		if !bytes.Equal(vv.Bytes(r), mv.Bytes(r)) || !bytes.Equal(iv.Bytes(r), mv.Bytes(r)) {
			return fmt.Errorf("View row %d differs", r)
		}
	}
	return nil
}

// TestViewRollbackAndRelease truncates a view across segments, as a failed
// work order's rollback does, and checks the pool charges a view its rows
// buffer only, swaps it for the temp block on Materialize and takes it back
// on Release.
func TestViewRollbackAndRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := viewBaseSchema()
	a, b := randomBase(rng, s, ColumnStore, 1024), randomBase(rng, s, RowStore, 1024)
	g := new(stats.MemGauge)
	p := NewPool(g, nil)
	proj := []int{6, 1, 3}
	out := s.Project(proj)
	v := p.CheckOutView(0, out, proj, ColumnStore, 4096)
	if g.Live() != int64(4*v.Capacity()) || v.Capacity() != 4096/out.RowWidth() {
		t.Fatalf("view charged %d for capacity %d", g.Live(), v.Capacity())
	}
	v.AppendView(a, []int32{0, 2, 4})
	v.AppendView(b, []int32{1, 3})
	v.AppendView(a, []int32{5})
	v.Truncate(4)
	if len(v.segs) != 2 || v.segs[1].end != 4 || v.Int64At(0, 3) != b.Int64At(6, 1) {
		t.Fatalf("truncate to 4 rows left segments %+v", v.segs)
	}
	v.Truncate(2)
	if len(v.segs) != 1 || v.NumRows() != 2 {
		t.Fatalf("truncate to 2 rows left segments %+v", v.segs)
	}
	v.AppendView(b, []int32{7})
	if v.Int64At(0, 2) != b.Int64At(6, 7) || v.DateAt(2, 1) != a.DateAt(3, 2) {
		t.Fatal("rows appended after a truncate read wrong cells")
	}
	want := dump(v)
	p.Materialize(v, 4096)
	if v.IsView() || dump(v) != want || g.Live() != int64(v.AllocBytes()) {
		t.Fatalf("materialized: view %v, live %d, alloc %d", v.IsView(), g.Live(), v.AllocBytes())
	}
	p.Release(v)
	w := p.CheckOutView(0, out, proj, ColumnStore, 4096)
	p.Release(w)
	if g.Live() != 0 {
		t.Fatalf("live %d after release", g.Live())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("appending cells to a view did not panic")
			}
		}()
		u := p.CheckOutView(0, out, proj, ColumnStore, 4096)
		u.AppendFromMany(a, []int32{0}, proj)
	}()
}

// TestViewReadAllocs: reading a view through the batch kernels allocates
// nothing, as reading a block does.
func TestViewReadAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := viewBaseSchema()
	a, b := randomBase(rng, s, ColumnStore, 2048), randomBase(rng, s, RowStore, 2048)
	proj := []int{0, 3, 5, 2}
	out := s.Project(proj)
	v := NewPool(nil, nil).CheckOutView(0, out, proj, ColumnStore, 8192)
	v.AppendView(a, ascending(rng, a.NumRows()))
	v.AppendView(b, ascending(rng, b.NumRows()))
	rows := identityRows(v.NumRows())
	dst := NewBlock(out, RowStore, 8192)
	rights := make([]*Block, len(rows))
	var k []int64
	var f []float64
	var d []int64
	buf := make([]byte, 8*v.NumRows())
	allocs := testing.AllocsPerRun(100, func() {
		k = v.GatherInt64(0, k)
		d = v.GatherDate(1, d)
		f = v.GatherFloat64(3, f)
		v.ViewInto(2, buf)
		dst.Reset()
		dst.AppendFromMany(v, rows, []int{0, 1, 2, 3})
		dst.Reset()
		dst.AppendPairs(v, rows, []int{0, 1, 2, 3}, rights, rows, nil)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per read", allocs)
	}
}

func identityRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}
