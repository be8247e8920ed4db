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

// runScatter feeds blocks through op and returns every (partition, key, val)
// triple it emitted, draining finish-time partials like the scheduler would.
func runScatter(t *testing.T, ctx *core.ExecCtx, op *Op, blocks []*storage.Block) (map[[3]int64]int, *core.Output) {
	t.Helper()
	got := map[[3]int64]int{}
	agg := &core.Output{}
	collect := func(p int, b *storage.Block) {
		for r := 0; r < b.NumRows(); r++ {
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
			p := out.PartitionTag(b)
			if p < 0 {
				t.Fatal("exchange emitted an untagged block")
			}
			collect(p, b)
		}
		agg.ExchangeRows += out.ExchangeRows
		agg.RepartitionFanout += out.RepartitionFanout
		agg.ScratchHits += out.ScratchHits
	}
	for p := 0; p < op.OutputPartitions(); p++ {
		for _, b := range ctx.Pool.TakePartials(core.PartOwner(0, p)) {
			collect(p, b)
		}
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
	pr := op.Partitioner()
	for kv, n := range got {
		total += n
		k := []int64{kv[1]}
		h := types.HashPairVec(k, nil, nil)[0]
		if want := pr.Of(h); int(kv[0]) != want {
			t.Fatalf("key %d routed to partition %d, want %d", kv[1], kv[0], want)
		}
	}
	if total != nblocks*rows {
		t.Fatalf("scattered %d rows, want %d", total, nblocks*rows)
	}
	if out.ExchangeRows != int64(nblocks*rows) {
		t.Fatalf("ExchangeRows = %d, want %d", out.ExchangeRows, nblocks*rows)
	}
	if out.RepartitionFanout == 0 {
		t.Fatal("RepartitionFanout not recorded")
	}
}

// TestRetriedScatterMatchesScalarOracle: with a faulted-and-retried work
// order in the run, the vectorized scatter still places every row where the
// row-at-a-time definition says — Partitioner.Of(HashPair(k0, k1)), zero
// hashes forced to 1 — and emits each input row exactly once.
func TestRetriedScatterMatchesScalarOracle(t *testing.T) {
	const nblocks, rows = 6, 29
	blocks := makeBlocks(nblocks, rows, func(r int) int64 { return int64(r*7 + 3) })

	op := New(Spec{Name: "two-key", InputSchema: scatterSchema, KeyCols: []int{0, 1}, Partitions: 8})
	op.SetID(0)
	want := map[[3]int64]int{}
	for _, b := range blocks {
		for r := 0; r < b.NumRows(); r++ {
			k0, k1 := b.Int64At(0, r), b.Int64At(1, r)
			h := types.HashPair(k0, k1)
			if h == 0 {
				h = 1
			}
			want[[3]int64{int64(op.Partitioner().Of(h)), k0, k1}]++
		}
	}

	ctx := newCtx(1)
	ctx.Faults = faults.Replay([]faults.Event{{Site: faults.Repartition, Seq: 0, Kind: faults.KindError}})
	op.Init(ctx)
	got, out := runScatter(t, ctx, op, blocks)
	if ctx.Faults.Injected() != 1 {
		t.Fatalf("%d faults fired, want 1", ctx.Faults.Injected())
	}
	if out.ExchangeRows != nblocks*rows {
		t.Fatalf("ExchangeRows = %d, want %d (a rolled-back attempt must not count)", out.ExchangeRows, nblocks*rows)
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

func TestSkewGuardTripsOnConstantKey(t *testing.T) {
	op := New(Spec{Name: "skew", InputSchema: scatterSchema, KeyCols: []int{0}, Partitions: 4})
	op.SetID(0)
	ctx := newCtx(1)
	op.Init(ctx)
	runScatter(t, ctx, op, makeBlocks(4, 32, func(int) int64 { return 42 }))

	wos := op.Final(ctx)
	if len(wos) != 1 {
		t.Fatalf("Final returned %d work orders, want 1 (skew)", len(wos))
	}
	out := &core.Output{}
	if err := wos[0].Run(ctx, out); err != nil {
		t.Fatal(err)
	}
	if out.PartitionSkew != 1 {
		t.Fatalf("PartitionSkew = %d, want 1", out.PartitionSkew)
	}
	if !op.Skewed() {
		t.Fatal("Skewed() = false after constant-key scatter")
	}
}

func TestSkewGuardQuietOnUniformKeys(t *testing.T) {
	op := New(Spec{Name: "uniform", InputSchema: scatterSchema, KeyCols: []int{0}, Partitions: 4})
	op.SetID(0)
	ctx := newCtx(1)
	op.Init(ctx)
	runScatter(t, ctx, op, makeBlocks(8, 64, func(r int) int64 { return int64(r) }))
	if wos := op.Final(ctx); len(wos) != 0 {
		t.Fatalf("Final returned %d work orders on uniform keys, want 0", len(wos))
	}
	if op.Skewed() {
		t.Fatal("Skewed() = true on uniform keys")
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
	if op.OutputPartitions() != 8 {
		t.Fatalf("Partitions 5 rounded to %d, want 8", op.OutputPartitions())
	}
	op = New(Spec{Name: "c", InputSchema: scatterSchema, KeyCols: []int{0}, Partitions: core.MaxPartitions * 4})
	if op.OutputPartitions() != core.MaxPartitions {
		t.Fatalf("oversized fan-out clamped to %d, want %d", op.OutputPartitions(), core.MaxPartitions)
	}
}
