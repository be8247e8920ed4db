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
	em.AppendFrom(src, 0, []int{0, 1})
	em.AppendPairs(src, []int32{0}, []int{1}, []*storage.Block{src}, []int32{0}, []int{0})
	em.Close()
	parts := ctx.Pool.TakePartials(5)
	if len(parts) != 1 || parts[0].NumRows() != 2 {
		t.Fatalf("partials = %v", parts)
	}
	b := parts[0]
	if b.Int64At(0, 0) != 1 || b.Int64At(1, 0) != 2 {
		t.Fatal("AppendFrom row wrong")
	}
	if b.Int64At(0, 1) != 2 || b.Int64At(1, 1) != 1 {
		t.Fatal("AppendPairs row wrong")
	}
	if out.RowsOut != 2 {
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
		"AppendFrom": func(e *Emitter, _ int64) { e.AppendFrom(src, 0, []int{0}) },
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
