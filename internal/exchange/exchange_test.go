package exchange

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/storage"
	"repro/internal/types"
)

var scatterSchema = storage.NewSchema(
	storage.Column{Name: "k", Type: types.Int64},
	storage.Column{Name: "v", Type: types.Int64},
)

func newCtx(workers int) *core.ExecCtx {
	return &core.ExecCtx{
		Pool:           storage.NewPool(nil, nil),
		TempBlockBytes: 256,
		TempFormat:     storage.RowStore,
		Workers:        workers,
	}
}

// makeBlocks builds nblocks blocks of rows each with keys from keyFn.
func makeBlocks(nblocks, rows int, keyFn func(r int) int64) []*storage.Block {
	var out []*storage.Block
	n := 0
	for i := 0; i < nblocks; i++ {
		b := storage.NewBlock(scatterSchema, storage.RowStore, rows*16)
		for r := 0; r < rows; r++ {
			b.AppendRow(types.NewInt64(keyFn(n)), types.NewInt64(int64(n)))
			n++
		}
		out = append(out, b)
	}
	return out
}

// scalarPart is the row-at-a-time placement definition the vectorized
// scatter must match: Partitioner.Of(HashPair(k0, k1)), zero hashes forced
// to 1, with k1 = 0 for a one-key exchange.
func scalarPart(op *Op, b *storage.Block, r int) int {
	k0, k1 := b.Int64At(op.keyCols[0], r), int64(0)
	if len(op.keyCols) == 2 {
		k1 = b.Int64At(op.keyCols[1], r)
	}
	h := types.HashPair(k0, k1)
	if h == 0 {
		h = 1
	}
	return op.pr.Of(h)
}

// runScatter feeds blocks through op and returns every (partition, key, val)
// triple it emitted, then drains each partition's partial blocks from the
// pool under that partition's owner key. A sealed block carries no partition
// label, so it is labelled by its first row and must hold no row of another
// partition.
func runScatter(t *testing.T, ctx *core.ExecCtx, op *Op, blocks []*storage.Block) (map[[3]int64]int, *core.Output) {
	t.Helper()
	got := map[[3]int64]int{}
	agg := &core.Output{}
	collect := func(p int, b *storage.Block) {
		for r := 0; r < b.NumRows(); r++ {
			if q := scalarPart(op, b, r); q != p {
				t.Fatalf("row (%d, %d) of a partition-%d block belongs to partition %d", b.Int64At(0, r), b.Int64At(1, r), p, q)
			}
			got[[3]int64{int64(p), b.Int64At(0, r), b.Int64At(1, r)}]++
		}
	}
	for _, wo := range op.Feed(ctx, 0, blocks) {
		out := &core.Output{}
		if err := wo.Run(ctx, out); err != nil {
			// Simulate the scheduler's rollback + retry of a transient fault.
			out.Finish(err)
			out = &core.Output{}
			if err := wo.Run(ctx, out); err != nil {
				t.Fatalf("retry failed: %v", err)
			}
		}
		out.Finish(nil)
		for _, b := range out.Blocks {
			collect(scalarPart(op, b, 0), b)
		}
		agg.BatchedRows += out.BatchedRows
		agg.ScratchHits += out.ScratchHits
	}
	for p := 0; p < op.pr.Parts(); p++ {
		for _, b := range ctx.Pool.TakePartials(int(op.owner(p))) {
			collect(p, b)
		}
	}
	if n := ctx.Pool.PendingPartials(); n != 0 {
		t.Fatalf("%d partial blocks pooled under no partition's owner key", n)
	}
	return got, agg
}

func TestScatterMatchesPartitioner(t *testing.T) {
	op := New(Spec{Name: "t", InputSchema: scatterSchema, KeyCols: []int{0}, Partitions: 4})
	op.SetID(0)
	ctx := newCtx(1)
	op.Init(ctx)
	const nblocks, rows = 8, 37
	blocks := makeBlocks(nblocks, rows, func(r int) int64 { return int64(r % 101) })
	got, out := runScatter(t, ctx, op, blocks)

	total := 0
	for kv, n := range got {
		total += n
		h := types.HashPairVec([]int64{kv[1]}, nil, nil)[0]
		if want := op.pr.Of(h); int(kv[0]) != want {
			t.Fatalf("key %d routed to partition %d, want %d", kv[1], kv[0], want)
		}
	}
	if total != nblocks*rows {
		t.Fatalf("scattered %d rows, want %d", total, nblocks*rows)
	}
	if out.BatchedRows != int64(nblocks*rows) {
		t.Fatalf("BatchedRows = %d, want %d", out.BatchedRows, nblocks*rows)
	}
}

// TestRetriedScatterMatchesScalarOracle: with a faulted-and-retried work
// order in the run, the vectorized scatter still places every row where the
// row-at-a-time definition (scalarPart) says, and emits each input row
// exactly once.
func TestRetriedScatterMatchesScalarOracle(t *testing.T) {
	const nblocks, rows = 6, 29
	blocks := makeBlocks(nblocks, rows, func(r int) int64 { return int64(r*7 + 3) })

	op := New(Spec{Name: "two-key", InputSchema: scatterSchema, KeyCols: []int{0, 1}, Partitions: 8})
	op.SetID(0)
	want := map[[3]int64]int{}
	for _, b := range blocks {
		for r := 0; r < b.NumRows(); r++ {
			want[[3]int64{int64(scalarPart(op, b, r)), b.Int64At(0, r), b.Int64At(1, r)}]++
		}
	}

	ctx := newCtx(1)
	ctx.Faults = faults.Replay([]faults.Event{{Site: faults.Repartition, Seq: 0, Kind: faults.KindError}})
	op.Init(ctx)
	got, out := runScatter(t, ctx, op, blocks)
	if ctx.Faults.Injected() != 1 {
		t.Fatalf("%d faults fired, want 1", ctx.Faults.Injected())
	}
	if out.BatchedRows != nblocks*rows {
		t.Fatalf("BatchedRows = %d, want %d (a rolled-back attempt must not count)", out.BatchedRows, nblocks*rows)
	}
	if len(got) != len(want) {
		t.Fatalf("scatter produced %d distinct placements, oracle %d", len(got), len(want))
	}
	for kv, n := range want {
		if got[kv] != n {
			t.Fatalf("row %v: scattered %d times, oracle %d", kv, got[kv], n)
		}
	}
}

func TestNewRejectsBadSpecs(t *testing.T) {
	for _, spec := range []Spec{
		{Name: "nokeys", InputSchema: scatterSchema, Partitions: 2},
		{Name: "toomany", InputSchema: scatterSchema, KeyCols: []int{0, 1, 0}, Partitions: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%s) did not panic", spec.Name)
				}
			}()
			New(spec)
		}()
	}
}

func TestPartitionsRoundUpAndClamp(t *testing.T) {
	op := New(Spec{Name: "r", InputSchema: scatterSchema, KeyCols: []int{0}, Partitions: 5})
	if op.pr.Parts() != 8 {
		t.Fatalf("Partitions 5 rounded to %d, want 8", op.pr.Parts())
	}
	op = New(Spec{Name: "c", InputSchema: scatterSchema, KeyCols: []int{0}, Partitions: maxParts * 4})
	if op.pr.Parts() != maxParts {
		t.Fatalf("oversized fan-out clamped to %d, want %d", op.pr.Parts(), maxParts)
	}
}
