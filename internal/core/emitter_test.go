package core

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

func TestEmitterSealsFullBlocksAndChecksInPartials(t *testing.T) {
	ctx := newCtx(1)
	ctx.TempBlockBytes = 32 // 4 rows of the 8-byte test schema
	out := &Output{}
	em := NewEmitter(ctx, out, 7, testSchema)
	for i := 0; i < 10; i++ {
		em.AppendRow(types.NewInt64(int64(i)))
	}
	em.Close()

	// 10 rows at 4 rows/block: 2 sealed blocks + 1 partial (2 rows).
	if len(out.Blocks) != 2 {
		t.Fatalf("sealed blocks = %d", len(out.Blocks))
	}
	if out.RowsOut != 10 {
		t.Fatalf("rows out = %d", out.RowsOut)
	}
	parts := ctx.Pool.TakePartials(7)
	if len(parts) != 1 || parts[0].NumRows() != 2 {
		t.Fatalf("partials = %v", parts)
	}
	// All values preserved, in order.
	var got []int64
	for _, b := range append(out.Blocks, parts...) {
		for r := 0; r < b.NumRows(); r++ {
			got = append(got, b.Int64At(0, r))
		}
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d", i, v)
		}
	}
}

// TestEmitterCountsEachCheckoutOnce: the pool's checkout hook is the only
// counter, so 12 rows at 4 rows per block are 3 checkouts, not 6.
func TestEmitterCountsEachCheckoutOnce(t *testing.T) {
	ctx := newCtx(1)
	ctx.TempBlockBytes = 32 // 4 rows of the 8-byte test schema
	out := &Output{}
	em := NewEmitter(ctx, out, 7, testSchema)
	for i := 0; i < 12; i++ {
		em.AppendRow(types.NewInt64(int64(i)))
	}
	em.Close()
	if got := ctx.Run.Checkouts(); got != 3 {
		t.Fatalf("checkouts = %d, want 3", got)
	}
}

func TestEmitterResumesPartialAcrossWorkOrders(t *testing.T) {
	ctx := newCtx(1)
	ctx.TempBlockBytes = 64 // 8 rows
	out1 := &Output{}
	em1 := NewEmitter(ctx, out1, 9, testSchema)
	for i := 0; i < 3; i++ {
		em1.AppendRow(types.NewInt64(int64(i)))
	}
	em1.Close() // 3-row partial checked in

	out2 := &Output{}
	em2 := NewEmitter(ctx, out2, 9, testSchema)
	for i := 3; i < 8; i++ {
		em2.AppendRow(types.NewInt64(int64(i)))
	}
	em2.Close()

	// The second emitter must have resumed the first's partial: 8 rows fill
	// exactly one block... which seals only on the next append, so it is a
	// full partial.
	if len(out1.Blocks) != 0 || len(out2.Blocks) != 0 {
		t.Fatalf("unexpected seals: %d, %d", len(out1.Blocks), len(out2.Blocks))
	}
	parts := ctx.Pool.TakePartials(9)
	if len(parts) != 1 || parts[0].NumRows() != 8 {
		t.Fatalf("partials = %d blocks", len(parts))
	}
}

func TestEmitterCloseWithNoRowsReleasesBlock(t *testing.T) {
	ctx := newCtx(1)
	out := &Output{}
	em := NewEmitter(ctx, out, 3, testSchema)
	// Force a checkout without writing: ensure() is internal, so append
	// then reset the case by using a fresh emitter and closing immediately.
	em.Close() // never wrote: no checkout, nothing to release
	if len(ctx.Pool.TakePartials(3)) != 0 {
		t.Fatal("no partials expected")
	}
	if ctx.Run.Checkouts() != 0 {
		t.Fatalf("checkouts = %d", ctx.Run.Checkouts())
	}
}

// TestEmitterAppendVariantsRoundTrip: each bulk appender lands its row, and
// Seal seals the partial block into the output where Close would have
// checked it in, leaving Close nothing to check in.
func TestEmitterAppendVariantsRoundTrip(t *testing.T) {
	twoCol := storage.NewSchema(
		storage.Column{Name: "a", Type: types.Int64},
		storage.Column{Name: "b", Type: types.Int64},
	)
	src := storage.NewBlock(twoCol, storage.ColumnStore, 256)
	src.AppendRow(types.NewInt64(1), types.NewInt64(2))

	ctx := newCtx(1)
	ctx.TempBlockBytes = 1 << 10
	out := &Output{}
	em := NewEmitter(ctx, out, 5, twoCol)
	em.AppendMany(src, []int32{0}, []int{0, 1})
	em.AppendPairs(src, []int32{0}, []int{1}, []*storage.Block{src}, []int32{0}, []int{0})
	em.AppendRows([]*storage.Block{src, nil}, []int32{0, 0}, []int{1, 0})
	em.Seal()
	em.Close()
	if parts := ctx.Pool.TakePartials(5); len(parts) != 0 {
		t.Fatalf("partials after Seal = %d", len(parts))
	}
	if len(out.Blocks) != 1 || out.Blocks[0].NumRows() != 4 {
		t.Fatalf("sealed = %v", out.Blocks)
	}
	b := out.Blocks[0]
	for i, want := range [][2]int64{{1, 2}, {2, 1}, {2, 1}, {0, 0}} {
		if got := [2]int64{b.Int64At(0, i), b.Int64At(1, i)}; got != want {
			t.Errorf("row %d = %v, want %v", i, got, want)
		}
	}
	if out.RowsOut != 4 {
		t.Fatalf("rows out = %d", out.RowsOut)
	}
}

// Two work orders of one operator, interleaved the way two workers interleave
// them: B holds a nearly-full block, A fills a block exactly and closes (an
// exactly full block checks in as a "partial"), then B overflows — its
// re-checkout resumes A's full block. Every appender must keep sealing until
// the row lands; a single seal-and-retry dropped B's row while still counting
// it in RowsOut.
func TestEmitterOverflowIntoFullPartialKeepsRow(t *testing.T) {
	src := storage.NewBlock(testSchema, storage.RowStore, 64)
	src.AppendRow(types.NewInt64(-1))
	appenders := map[string]func(*Emitter, int64){
		"AppendRow":  func(e *Emitter, v int64) { e.AppendRow(types.NewInt64(v)) },
		"AppendRows": func(e *Emitter, _ int64) { e.AppendRows([]*storage.Block{src}, []int32{0}, []int{0}) },
		"AppendColumns": func(e *Emitter, v int64) {
			e.AppendColumns([]storage.ColSource{{I: []int64{v}}}, []int32{0})
		},
		"AppendMany": func(e *Emitter, _ int64) { e.AppendMany(src, []int32{0}, []int{0}) },
		"AppendPairs": func(e *Emitter, _ int64) {
			e.AppendPairs(src, []int32{0}, []int{0}, []*storage.Block{nil}, []int32{0}, nil)
		},
	}
	for name, appendOne := range appenders {
		ctx := newCtx(2)
		ctx.TempBlockBytes = 64 // 8 rows
		outA, outB := &Output{}, &Output{}
		a := NewEmitter(ctx, outA, 4, testSchema)
		b := NewEmitter(ctx, outB, 4, testSchema)
		for i := 0; i < 7; i++ {
			appendOne(b, int64(i))
		}
		for i := 0; i < 8; i++ {
			appendOne(a, int64(100+i))
		}
		outA.Finish(nil) // A's exactly full block goes back to the pool
		appendOne(b, 7)  // fills B's own block
		appendOne(b, 8)  // seals it, resumes A's full block, must seal that too
		outB.Finish(nil)

		found := 0
		for _, blk := range append(append(outA.Blocks, outB.Blocks...), ctx.Pool.TakePartials(4)...) {
			found += blk.NumRows()
		}
		if emitted := outA.RowsOut + outB.RowsOut; emitted != 17 || int64(found) != emitted {
			t.Errorf("%s: RowsOut = %d, rows materialized = %d, want 17 of each", name, emitted, found)
		}
	}
}
