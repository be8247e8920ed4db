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
// select fills them: each base block's selection (every row, for a dense
// view) appended in turn, the view checked in after every block and resumed
// for the next.
type viewCase struct {
	pool  *Pool
	bases []*Block
	proj  []int
	view  *Block
	mat   *Block // the view's Materialize
	copy  *Block // the rows copied as the select copies them
}

func newViewCase(rng *rand.Rand, dense bool) (*viewCase, error) {
	s := viewBaseSchema()
	baseFormat, viewFormat := Format(rng.Intn(2)), Format(rng.Intn(2))
	vc := &viewCase{pool: NewPool(new(stats.MemGauge), nil)}
	for range 1 + rng.Intn(4) {
		vc.bases = append(vc.bases, randomBase(rng, s, baseFormat, 512+rng.Intn(1024)))
	}
	vc.proj = randomProj(rng, s)
	out := s.Project(vc.proj)
	budget := 256 + rng.Intn(4096)
	vc.copy = NewBlock(out, viewFormat, budget)
	for _, base := range vc.bases {
		sel := ascending(rng, base.NumRows())
		if dense { // every row from a random one on
			sel = identityRows(base.NumRows())[rng.Intn(base.NumRows()):]
		}
		v := vc.pool.CheckOutView(0, out, vc.proj, dense, viewFormat, budget)
		took := appendRows(v, base, sel)
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
	vc.mat = vc.pool.CheckOutView(1, out, vc.proj, dense, viewFormat, budget)
	for _, sg := range segments(vc.view) {
		if dense {
			vc.mat.AppendDense(sg.base, sg.first)
		} else {
			vc.mat.AppendView(sg.base, sg.rows)
		}
	}
	vc.pool.Materialize(vc.mat, budget)
	return vc, nil
}

// randomProj returns a random projection of s; columns may repeat.
func randomProj(rng *rand.Rand, s *Schema) []int {
	var proj []int
	for range 1 + rng.Intn(2*s.NumCols()) {
		proj = append(proj, rng.Intn(s.NumCols()))
	}
	return proj
}

// appendRows appends the ascending rows sel of base to view v, as AppendView
// does to a listed view; a dense view takes sel's first row and the rows
// after it. It returns how many rows v took.
func appendRows(v, base *Block, sel []int32) int {
	if v.rows != nil {
		return v.AppendView(base, sel)
	}
	if len(sel) == 0 {
		return 0
	}
	return v.AppendDense(base, int(sel[0]))
}

// segRows is one segment of a view: its base block and base rows, or, in a
// dense view, the run from first.
type segRows struct {
	base  *Block
	first int
	rows  []int32
}

// segments returns the view's base blocks and their rows, in view order.
func segments(v *Block) []segRows {
	var out []segRows
	v.eachSeg(func(_, _ int, base *Block, first int, rows []int32) {
		out = append(out, segRows{base, first, rows})
	})
	return out
}

// sources lists the (block, row) of every row of b, through Sources.
func sources(b *Block) []string {
	var out []string
	b.Sources(func(src *Block, first, n int, rows []int32) {
		for i := range n {
			r := first + i
			if rows != nil {
				r = int(rows[i])
			}
			out = append(out, fmt.Sprintf("%p:%d", src, r))
		}
	})
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
func TestViewMatchesMaterialize(t *testing.T) { testViewsMatchMaterialize(t, false) }

// TestDenseViewMatchesMaterialize is TestViewMatchesMaterialize over dense
// views, which also read as a listed view of the same rows, source by
// source, and read a one-segment view's columns in place.
func TestDenseViewMatchesMaterialize(t *testing.T) { testViewsMatchMaterialize(t, true) }

func testViewsMatchMaterialize(t *testing.T, dense bool) {
	rng := rand.New(rand.NewSource(38))
	for i := range 300 {
		vc, err := newViewCase(rng, dense)
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
	alloc := 4 * v.Capacity()
	if v.rows == nil {
		alloc = 0
	}
	if v.UsedBytes() != m.UsedBytes() || m.AllocBytes() != vc.copy.AllocBytes() || v.AllocBytes() != alloc {
		return fmt.Errorf("used %d/%d, alloc %d/%d/%d", v.UsedBytes(), m.UsedBytes(), v.AllocBytes(), m.AllocBytes(), vc.copy.AllocBytes())
	}
	if v.rows == nil {
		if err := vc.checkDense(); err != nil {
			return err
		}
	}
	// The resumed view kept its base blocks in order.
	segs := segments(v)
	for k := 1; k < len(segs); k++ {
		if slices.Index(vc.bases, segs[k].base) <= slices.Index(vc.bases, segs[k-1].base) {
			return fmt.Errorf("segment %d's base precedes segment %d's", k, k-1)
		}
	}
	if dump(vc.copy) != dump(m) {
		return fmt.Errorf("materialized cells differ from the copy's")
	}
	return sameReads(rng, v, m, vc.bases)
}

// checkDense checks dense view vc.view against a listed view of the same
// rows: the same sources, row by row, and the same cells. A one-segment
// dense view's ViewInto aliases the base column; a longer one gathers into
// the buffer.
func (vc *viewCase) checkDense() error {
	v := vc.view
	l := vc.pool.CheckOutView(2, v.Schema(), vc.proj, false, v.Format(), max(1, v.NumRows())*v.Schema().RowWidth())
	v.Sources(func(src *Block, first, n int, rows []int32) {
		if rows != nil {
			panic("a dense view lists its rows")
		}
		l.AppendView(src, identityRows(first + n)[first:])
	})
	if !slices.Equal(sources(v), sources(l)) || dump(v) != dump(l) {
		return fmt.Errorf("dense view reads other rows than the listed view of its sources")
	}
	vc.pool.Release(l)
	if v.NumRows() == 0 {
		return nil
	}
	sg := segments(v)[0]
	buf := make([]byte, 16*v.NumRows())
	for c, sc := range vc.proj {
		at := &v.ViewInto(c, buf).Bytes(0)[0]
		if len(v.segs) == 1 && at != &sg.base.cell(sc, sg.first)[0] {
			return fmt.Errorf("column %d of a one-segment dense view is not read in place", c)
		}
		if len(v.segs) > 1 && at != &buf[0] {
			return fmt.Errorf("column %d of a %d-segment dense view is not gathered into the buffer", c, len(v.segs))
		}
	}
	return nil
}

// sameReads checks every read accessor of view v against block m holding
// the same rows: DatumAt, Gather*, View and ViewInto, Sources' row count,
// AppendFromMany and AppendPairs with v as source, and the codec on m.
func sameReads(rng *rand.Rand, v, m *Block, bases []*Block) error {
	if v.NumRows() != m.NumRows() || v.UsedBytes() != m.UsedBytes() || len(sources(v)) != v.NumRows() {
		return fmt.Errorf("rows %d/%d, used %d/%d, %d sourced rows", v.NumRows(), m.NumRows(), v.UsedBytes(), m.UsedBytes(), len(sources(v)))
	}
	want := dump(m)
	if got := dump(v); got != want {
		return fmt.Errorf("view cells differ from the block's")
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
		if base := bases[rng.Intn(len(bases))]; rng.Intn(4) > 0 {
			rights[i], rrows[i] = base, int32(rng.Intn(base.NumRows()))
		}
	}
	rproj := []int{0, 1, 3, 7}
	cols := make([]Column, 0, len(proj)+len(rproj))
	for _, c := range proj {
		cols = append(cols, v.Schema().Col(c))
	}
	for i, c := range rproj {
		col := bases[0].Schema().Col(c)
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
	v := p.CheckOutView(0, out, proj, false, ColumnStore, 4096)
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
	w := p.CheckOutView(0, out, proj, false, ColumnStore, 4096)
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
		u := p.CheckOutView(0, out, proj, false, ColumnStore, 4096)
		u.AppendFromMany(a, []int32{0}, proj)
	}()
}

// TestViewReadAllocs: reading a view, listed or dense, through the batch
// kernels allocates nothing, as reading a block does.
func TestViewReadAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := viewBaseSchema()
	a, b := randomBase(rng, s, ColumnStore, 2048), randomBase(rng, s, RowStore, 2048)
	proj := []int{0, 3, 5, 2}
	out := s.Project(proj)
	for _, dense := range []bool{false, true} {
		v := NewPool(nil, nil).CheckOutView(0, out, proj, dense, ColumnStore, 8192)
		appendRows(v, a, ascending(rng, a.NumRows()))
		appendRows(v, b, ascending(rng, b.NumRows()))
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
			t.Fatalf("dense %v: %.1f allocations per read", dense, allocs)
		}
	}
}

func identityRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// fillViews fills views of out as a select fills them from every row of each
// base block: through AppendDense, or AppendView of every row, sealing a
// full view and checking the partial one in after each block, so the next
// block resumes it. It returns the sealed views and the last partial.
func fillViews(p *Pool, bases []*Block, out *Schema, proj []int, dense bool, budget int) []*Block {
	var views []*Block
	var cur *Block
	for _, base := range bases {
		all := identityRows(base.NumRows())
		for at := 0; at < base.NumRows(); {
			if cur == nil {
				cur = p.CheckOutView(0, out, proj, dense, ColumnStore, budget)
			}
			took := appendRows(cur, base, all[at:])
			if took == 0 {
				views, cur = append(views, cur), nil
				continue
			}
			at += took
		}
		p.CheckIn(0, cur)
		cur = nil
	}
	return append(views, p.TakePartials(0)...)
}

// TestDenseViewSplitsAcrossViews: dense views split a base block across two
// views exactly where listed views of every row do, and read the same rows
// through every accessor, while the pool charges them nothing.
func TestDenseViewSplitsAcrossViews(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	s := viewBaseSchema()
	splits := 0
	for i := range 100 {
		var bases []*Block
		for range 1 + rng.Intn(5) {
			bases = append(bases, randomBase(rng, s, Format(rng.Intn(2)), 256+rng.Intn(1024)))
		}
		proj := randomProj(rng, s)
		out := s.Project(proj)
		budget := out.RowWidth() * (1 + rng.Intn(40))
		var live stats.MemGauge
		dense := fillViews(NewPool(&live, nil), bases, out, proj, true, budget)
		lp := NewPool(nil, nil)
		listed := fillViews(lp, bases, out, proj, false, budget)
		if len(dense) != len(listed) || live.Live() != 0 {
			t.Fatalf("case %d: %d dense views, %d listed; %d live bytes", i, len(dense), len(listed), live.Live())
		}
		for k, v := range dense {
			l := listed[k]
			if v.NumRows() != l.NumRows() || v.Capacity() != l.Capacity() || v.AllocBytes() != 0 {
				t.Fatalf("case %d view %d: %d/%d rows, capacity %d/%d, %d B", i, k, v.NumRows(), l.NumRows(), v.Capacity(), l.Capacity(), v.AllocBytes())
			}
			if !slices.Equal(sources(v), sources(l)) {
				t.Fatalf("case %d view %d: reads other rows than the listed view", i, k)
			}
			lp.Materialize(l, budget)
			if err := sameReads(rng, v, l, bases); err != nil {
				t.Fatalf("case %d view %d: %v", i, k, err)
			}
			if segments(v)[0].first > 0 {
				splits++
			}
		}
	}
	if splits < 10 {
		t.Fatalf("%d views start mid-block", splits)
	}
}

// TestDenseViewRollback truncates a resumed dense partial back to its rows
// before an attempt, as a failed work order's rollback does, across
// segments and mid-run. The rows appended again read as in a view that
// never failed, and an owner's dense partial is never resumed as a listed
// view, nor a listed one as dense.
func TestDenseViewRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := viewBaseSchema()
	a, b := randomBase(rng, s, ColumnStore, 1024), randomBase(rng, s, RowStore, 1024)
	var live stats.MemGauge
	p := NewPool(&live, nil)
	proj := []int{6, 1, 3}
	out := s.Project(proj)
	budget := (a.NumRows() + b.NumRows() + 8) * out.RowWidth()
	v := p.CheckOutView(0, out, proj, true, ColumnStore, budget)
	v.AppendDense(a, 0)
	p.CheckIn(0, v)
	if w := p.CheckOutView(0, out, proj, true, ColumnStore, budget); w != v || v.NumRows() != a.NumRows() {
		t.Fatal("the dense partial was not resumed")
	}
	v.AppendDense(b, 0)
	v.Truncate(a.NumRows()) // the failed attempt's rows of b
	if len(v.segs) != 1 || v.NumRows() != a.NumRows() {
		t.Fatalf("rollback left segments %+v", v.segs)
	}
	v.Truncate(a.NumRows() - 3) // mid-run
	if v.AppendDense(a, a.NumRows()-3) != 3 || len(v.segs) != 2 {
		t.Fatalf("the run's continuation left segments %+v", v.segs)
	}
	v.AppendDense(b, 2)
	want := NewBlock(out, RowStore, budget)
	want.AppendFromMany(a, identityRows(a.NumRows()), proj)
	want.AppendFromMany(b, identityRows(b.NumRows())[2:], proj)
	if dump(v) != dump(want) || len(v.segs) != 3 || live.Live() != 0 || v.AllocBytes() != 0 {
		t.Fatalf("after rollback: %d segments, %d live bytes, alloc %d, cells equal %v", len(v.segs), live.Live(), v.AllocBytes(), dump(v) == dump(want))
	}
	p.Materialize(v, budget)
	if dump(v) != dump(want) || live.Live() != int64(v.AllocBytes()) {
		t.Fatalf("materialized: live %d, alloc %d", live.Live(), v.AllocBytes())
	}
	p.Release(v)
	if live.Live() != 0 {
		t.Fatalf("live %d after release", live.Live())
	}
}

// TestResumeOfAnotherKindLeavesThePartial: resuming an owner's partial as
// another kind of block — a listed view as a dense one or the reverse, a
// view by CheckOut, a temp block by CheckOutView — panics, and the partial
// stays checked in: TakePartials still returns it, and once it is released
// the gauge reads 0.
func TestResumeOfAnotherKindLeavesThePartial(t *testing.T) {
	s := viewBaseSchema()
	proj := []int{6, 1, 3}
	out := s.Project(proj)
	const budget = 4 << 10
	view := func(dense bool) func(*Pool) *Block {
		return func(p *Pool) *Block { return p.CheckOutView(0, out, proj, dense, ColumnStore, budget) }
	}
	plain := func(p *Pool) *Block { return p.CheckOut(0, out, ColumnStore, budget) }
	for _, c := range []struct {
		name         string
		fill, resume func(*Pool) *Block
	}{
		{"listed as dense", view(false), view(true)},
		{"dense as listed", view(true), view(false)},
		{"listed by CheckOut", view(false), plain},
		{"dense by CheckOut", view(true), plain},
		{"plain by CheckOutView", plain, view(false)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var live stats.MemGauge
			p := NewPool(&live, nil)
			b := c.fill(p)
			p.CheckIn(0, b)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("the partial was resumed as another kind")
					}
				}()
				c.resume(p)
			}()
			ps := p.TakePartials(0)
			if len(ps) != 1 || ps[0] != b {
				t.Fatalf("the panic took the partial: %d left checked in", len(ps))
			}
			p.Release(b)
			if live.Live() != 0 {
				t.Fatalf("live %d after release", live.Live())
			}
		})
	}
}

// FuzzViewOps drives one view, listed or dense, through random appends and
// truncates, as a select's work orders and their rollbacks do, beside a
// temp block copying the same rows; after every op it compares every read
// accessor of the view with the copy, and at the end materializes the view
// and compares that too.
func FuzzViewOps(f *testing.F) {
	f.Add(int64(1), false, []byte{0, 0, 1, 0, 2})
	f.Add(int64(2), true, []byte{0, 3, 0, 1, 0, 0})
	f.Add(int64(3), true, []byte{4, 0, 7, 1, 1, 0, 9})
	f.Fuzz(func(t *testing.T, seed int64, dense bool, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		s := viewBaseSchema()
		var bases []*Block
		for range 1 + rng.Intn(3) {
			bases = append(bases, randomBase(rng, s, Format(rng.Intn(2)), 256+rng.Intn(1024)))
		}
		proj := randomProj(rng, s)
		out := s.Project(proj)
		budget := 256 + rng.Intn(4096)
		var live stats.MemGauge
		p := NewPool(&live, nil)
		format := Format(rng.Intn(2))
		v := p.CheckOutView(0, out, proj, dense, format, budget)
		copied := NewBlock(out, format, budget)
		for i, op := range ops {
			switch op % 3 {
			case 0, 1: // append the rows from one of a base block's rows on
				base := bases[int(op/3)%len(bases)]
				from := rng.Intn(base.NumRows() + 1)
				sel := identityRows(base.NumRows())[from:]
				if !dense {
					sel = ascending(rng, base.NumRows())
				}
				if appendRows(v, base, sel) != copied.AppendFromMany(base, sel, proj) {
					t.Fatalf("op %d: the view and the copy took different rows", i)
				}
			case 2: // roll back to fewer rows
				n := rng.Intn(v.NumRows() + 1)
				v.Truncate(n)
				copied.Truncate(n)
			}
			if err := sameReads(rng, v, copied, bases); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if alloc := v.AllocBytes(); dense != (alloc == 0) || live.Live() != int64(alloc) {
			t.Fatalf("view charges %d, alloc %d", live.Live(), alloc)
		}
		want := dump(copied)
		p.Materialize(v, budget)
		if dump(v) != want || v.IsView() || live.Live() != int64(v.AllocBytes()) {
			t.Fatalf("materialized: %d live bytes, alloc %d, cells equal %v", live.Live(), v.AllocBytes(), dump(v) == want)
		}
		p.Release(v)
		if live.Live() != 0 {
			t.Fatalf("live %d after release", live.Live())
		}
	})
}
