package storage

import (
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/types"
)

func TestPoolPartialResume(t *testing.T) {
	s := NewSchema(Column{Name: "k", Type: types.Int64})
	p := NewPool(nil, nil)

	b := p.CheckOut(1, s, ColumnStore, 1024)
	b.AppendRow(types.NewInt64(7))
	p.CheckIn(1, b)

	// The same owner resumes the same partial block.
	b2 := p.CheckOut(1, s, ColumnStore, 1024)
	if b2 != b || b2.NumRows() != 1 {
		t.Fatal("owner should resume its partial block")
	}

	// A different owner must not see owner 1's partial block.
	p.CheckIn(1, b2)
	b3 := p.CheckOut(2, s, ColumnStore, 1024)
	if b3 == b {
		t.Fatal("partial block leaked across owners")
	}
}

// oddSchema's 17-byte row does not divide the test budgets, so a block's
// AllocBytes is less than the budget its allocation was cut from.
func oddSchema() *Schema {
	return NewSchema(
		Column{Name: "k", Type: types.Int64},
		Column{Name: "d", Type: types.Date},
		Column{Name: "s", Type: types.Char, Width: 5},
	)
}

// bufOf returns the address of b's allocation, which outlives the block.
func bufOf(b *Block) *byte { return &b.data[0] }

func TestPoolRecyclesReleasedBlocks(t *testing.T) {
	s := oddSchema()
	p := NewPool(nil, nil)
	b := p.CheckOut(1, s, RowStore, 2050)
	if b.AllocBytes() == 2050 {
		t.Fatal("test schema's row width divides the budget")
	}
	b.AppendRow(types.NewInt64(1), types.NewDate(2), types.NewString("x"))
	buf := bufOf(b)
	p.Release(b)
	b2 := p.CheckOut(1, s, RowStore, 2050)
	if bufOf(b2) != buf {
		t.Fatal("released allocation should be recycled")
	}
	if b2 == b || b2.NumRows() != 0 || b2.AllocBytes() != b.Capacity()*s.RowWidth() {
		t.Fatalf("recycled checkout is not a new empty block: rows %d, alloc %d", b2.NumRows(), b2.AllocBytes())
	}
}

func TestPoolRecyclesAcrossSchemaFormatAndRoot(t *testing.T) {
	s1 := oddSchema()
	s2 := NewSchema(Column{Name: "v", Type: types.Float64}, Column{Name: "c", Type: types.Char, Width: 3})
	p := NewPool(nil, nil)
	b := p.CheckOut(1, s1, RowStore, 2051)
	buf := bufOf(b)

	p.Release(b)
	b = p.CheckOut(1, s2, RowStore, 2051)
	if bufOf(b) != buf {
		t.Fatal("allocation not recycled across schemas")
	}
	p.Release(b)
	b = p.CheckOut(1, s1, ColumnStore, 2051)
	if bufOf(b) != buf {
		t.Fatal("allocation not recycled across formats")
	}
	// The column regions of the new layout must not overlap: fill every
	// cell and read it back.
	for i := 0; !b.Full(); i++ {
		b.AppendRow(types.NewInt64(int64(i)), types.NewDate(int32(-i)), types.NewString("abcde"[:i%6]))
	}
	for r := 0; r < b.NumRows(); r++ {
		if b.Int64At(0, r) != int64(r) || b.DateAt(1, r) != int32(-r) || string(types.TrimPad(b.BytesAt(2, r))) != "abcde"[:r%6] {
			t.Fatalf("row %d reads back wrong", r)
		}
	}
	p.Release(b)
	q := NewPool(nil, nil)
	if b = q.CheckOut(1, s2, ColumnStore, 2051); bufOf(b) != buf {
		t.Fatal("allocation not recycled across root pools")
	}
	// A different budget never gets it.
	q.Release(b)
	if b = q.CheckOut(1, s2, ColumnStore, 2052); bufOf(b) == buf {
		t.Fatal("allocation recycled across budgets")
	}
}

func TestPoolDisableRecyclingNeverReuses(t *testing.T) {
	s := oddSchema()
	monet := NewPool(nil, nil)
	monet.DisableRecycling()
	shared := NewPool(nil, nil)

	// A disabled root returns nothing to the freelist...
	b := monet.CheckOut(1, s, RowStore, 2053)
	buf := bufOf(b)
	monet.Release(b)
	if b.data != nil {
		t.Fatal("Release kept the block's data on a non-recycling root")
	}
	if bufOf(monet.CheckOut(1, s, RowStore, 2053)) == buf || bufOf(shared.CheckOut(1, s, RowStore, 2053)) == buf {
		t.Fatal("non-recycling root returned its allocation to the freelist")
	}
	// ...and takes nothing from it.
	b = shared.CheckOut(2, s, RowStore, 2053)
	buf = bufOf(b)
	shared.Release(b)
	if bufOf(monet.CheckOut(2, s, RowStore, 2053)) == buf {
		t.Fatal("non-recycling root took from the freelist")
	}
	if bufOf(shared.CheckOut(2, s, RowStore, 2053)) != buf {
		t.Fatal("recycling root lost its allocation")
	}
}

func TestPoolReleasedBlockPanicsOnRead(t *testing.T) {
	s := oddSchema()
	p := NewPool(nil, nil)
	b := p.CheckOut(1, s, ColumnStore, 2054)
	b.AppendRow(types.NewInt64(7), types.NewDate(2), types.NewString("x"))
	p.Release(b)
	p.CheckOut(2, s, ColumnStore, 2054).AppendRow(types.NewInt64(8), types.NewDate(3), types.NewString("y"))
	defer func() {
		if recover() == nil {
			t.Fatal("reading a released block did not panic")
		}
	}()
	t.Fatalf("released block read %d", b.Int64At(0, 0))
}

func TestPoolFreelistBound(t *testing.T) {
	const budget = 2055
	s := oddSchema()
	p := NewPool(nil, nil)
	blocks := make([]*Block, maxFreePerSize+10)
	for i := range blocks {
		blocks[i] = p.CheckOut(i, s, RowStore, budget)
	}
	for _, b := range blocks {
		p.Release(b)
	}
	freeBufs.mu.Lock()
	n := len(freeBufs.m[budget])
	delete(freeBufs.m, budget)
	freeBufs.mu.Unlock()
	if n != maxFreePerSize {
		t.Fatalf("freelist holds %d allocations of one budget, want %d", n, maxFreePerSize)
	}
}

func TestPoolMemoryGauge(t *testing.T) {
	var g stats.MemGauge
	s := oddSchema() // the gauge credits AllocBytes, not the budget
	p := NewPool(&g, nil)

	b1 := p.CheckOut(1, s, RowStore, 1024)
	b2 := p.CheckOut(1, s, RowStore, 1024)
	want := int64(b1.AllocBytes() + b2.AllocBytes())
	if g.Live() != want {
		t.Fatalf("live = %d, want %d", g.Live(), want)
	}

	// Check-in of a partial block keeps it live.
	p.CheckIn(1, b1)
	if g.Live() != want {
		t.Fatalf("live after check-in = %d, want %d", g.Live(), want)
	}
	// Resuming it must not double count.
	_ = p.CheckOut(1, s, RowStore, 1024)
	if g.Live() != want {
		t.Fatalf("live after resume = %d, want %d", g.Live(), want)
	}

	buf2 := bufOf(b2)
	p.Release(b2)
	if g.Live() != int64(b1.AllocBytes()) {
		t.Fatalf("live after release = %d", g.Live())
	}
	if g.High() != want {
		t.Fatalf("high water = %d, want %d", g.High(), want)
	}

	// Recycled checkout counts as live again.
	b4 := p.CheckOut(2, s, RowStore, 1024)
	if bufOf(b4) != buf2 {
		t.Fatal("expected recycle")
	}
	if g.Live() != want {
		t.Fatalf("live after recycle = %d, want %d", g.Live(), want)
	}
}

func TestPoolCheckoutHookAndConcurrency(t *testing.T) {
	var run stats.Run
	s := NewSchema(Column{Name: "k", Type: types.Int64})
	p := NewPool(nil, run.AddCheckout)

	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(owner int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b := p.CheckOut(owner, s, ColumnStore, 512)
				b.AppendRow(types.NewInt64(int64(i)))
				if b.Full() {
					p.Release(b)
				} else {
					p.CheckIn(owner, b)
				}
			}
		}(w)
	}
	wg.Wait()
	if run.Checkouts() != workers*per {
		t.Fatalf("checkouts = %d, want %d", run.Checkouts(), workers*per)
	}
}

func TestTakePartials(t *testing.T) {
	s := NewSchema(Column{Name: "k", Type: types.Int64})
	p := NewPool(nil, nil)
	b := p.CheckOut(1, s, RowStore, 1024)
	b.AppendRow(types.NewInt64(1))
	p.CheckIn(1, b)

	ps := p.TakePartials(1)
	if len(ps) != 1 || ps[0] != b {
		t.Fatalf("TakePartials = %v", ps)
	}
	if got := p.TakePartials(1); len(got) != 0 {
		t.Fatal("partials should be drained")
	}
}

func TestLoaderAndTable(t *testing.T) {
	s := NewSchema(Column{Name: "k", Type: types.Int64})
	tb := NewTable("t", s, ColumnStore, 80) // 10 rows per block
	l := NewLoader(tb)
	for i := 0; i < 25; i++ {
		l.Append(types.NewInt64(int64(i)))
	}
	l.Close()
	if tb.NumBlocks() != 3 {
		t.Fatalf("blocks = %d, want 3", tb.NumBlocks())
	}
	if tb.NumRows() != 25 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if tb.UsedBytes() != 25*8 {
		t.Fatalf("used bytes = %d", tb.UsedBytes())
	}
	// Values survive block boundaries in order.
	var got []int64
	for _, b := range tb.Blocks() {
		for i := 0; i < b.NumRows(); i++ {
			got = append(got, b.Int64At(0, i))
		}
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d", i, v)
		}
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	s := NewSchema(Column{Name: "k", Type: types.Int64})
	tb := NewTable("nation", s, RowStore, 1024)
	c.Add(tb)
	if c.Get("nation") != tb || c.MustGet("nation") != tb {
		t.Fatal("catalog lookup failed")
	}
	if c.Get("region") != nil {
		t.Fatal("missing table should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add should panic")
		}
	}()
	c.Add(NewTable("nation", s, RowStore, 1024))
}
