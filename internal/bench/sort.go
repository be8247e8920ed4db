package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/types"
)

// SortKernelProfile reports the parallel-sort counters for the ORDER BY
// TPC-H queries at the configured worker count: rows sorted, the number of
// run-generation work orders, the range-partitioned merge fan-out, and the
// rows the dedicated top-k path pruned before materialization (the LIMIT
// queries Q3/Q10/Q21).
func (h *Harness) SortKernelProfile() (*Report, error) {
	r := &Report{
		ID:    "SORT",
		Title: "Sort-kernel profile (normalized-key runs, merge fan-out, top-k pruning)",
		Header: []string{
			"query", "sort_rows", "runs", "merge_fanout", "topk_pruned", "wall_ms",
		},
	}
	d := h.Dataset(128<<10, storage.ColumnStore)
	for _, q := range []int{1, 3, 5, 10, 13, 21} {
		res, err := h.run(d, q, engine.Options{
			Workers: h.cfg.Workers, UoTBlocks: 1, TempBlockBytes: 128 << 10,
		}, tpch.QueryOpts{})
		if err != nil {
			return nil, err
		}
		k := res.Run.Kernels()
		r.AddRow(
			fmt.Sprintf("Q%02d", q),
			fmt.Sprintf("%d", k.SortFastRows),
			fmt.Sprintf("%d", k.SortRuns),
			fmt.Sprintf("%d", k.SortMergeFanout),
			fmt.Sprintf("%d", k.TopKPruned),
			fmt.Sprintf("%.2f", float64(res.Run.WallTime())/float64(time.Millisecond)),
		)
	}
	r.Note("topk_pruned counts rows the LIMIT queries never materialized")
	return r, nil
}

// microSortBlocks is the micro sort input size in blocks: 1024 blocks of
// 1024 rows = 1M rows, the ISSUE's acceptance shape for the sort speedup.
const microSortBlocks = 1024

var (
	microSortOnce   sync.Once
	microSortInput  []*storage.Block
	microSortSchema *storage.Schema
)

// microSortData builds (once) the shared sort input: microSortBlocks blocks
// of (int64 key, int64 payload) rows with keys splayed over a large domain.
// Callers slice a prefix to run at smaller sizes (the CI smoke wrappers).
func microSortData() ([]*storage.Block, *storage.Schema) {
	microSortOnce.Do(func() {
		microSortSchema = storage.NewSchema(
			storage.Column{Name: "k", Type: types.Int64},
			storage.Column{Name: "v", Type: types.Int64},
		)
		microSortInput = make([]*storage.Block, microSortBlocks)
		for bi := range microSortInput {
			b := storage.NewBlock(microSortSchema, storage.ColumnStore, microBlockRows*16+64)
			for r := 0; r < microBlockRows; r++ {
				k := int64(bi*microBlockRows + r)
				// splay keys so sorted-adjacent keys are not input-adjacent
				b.AppendRow(types.NewInt64(k*2654435761%1000000007), types.NewInt64(k))
			}
			microSortInput[bi] = b
		}
	})
	return microSortInput, microSortSchema
}

// runSortWOs executes work orders from g goroutines pulling from a shared
// counter (the scheduler's dispatch pattern), releasing emitted blocks back
// to the pool — the benchmark discards the sorted output, and recycling
// keeps the per-iteration footprint flat.
func runSortWOs(ctx *core.ExecCtx, wos []core.WorkOrder, g int) {
	runOne := func(wo core.WorkOrder) {
		out := &core.Output{}
		out.Finish(wo.Run(ctx, out))
		for _, b := range out.Blocks {
			ctx.Pool.Release(b)
		}
	}
	if g <= 1 {
		for _, wo := range wos {
			runOne(wo)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := atomic.AddInt64(&next, 1) - 1
				if j >= int64(len(wos)) {
					return
				}
				runOne(wos[j])
			}
		}()
	}
	wg.Wait()
}

// benchSort sorts nblocks 1024-row blocks by the int64 key with g
// goroutines: radix-sort each block into a normalized-key run in parallel,
// k-way-merge range partitions in parallel, and gather the output
// columnarly. limit > 0 engages the per-run top-k heaps instead.
func benchSort(g, limit, nblocks int) func(b *testing.B) {
	return func(b *testing.B) {
		all, schema := microSortData()
		blocks := all[:nblocks]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Operator construction and pool setup are not the kernel under
			// test; keep them off the clock.
			b.StopTimer()
			op := exec.NewSort(exec.SortSpec{
				Name: "sort", InputSchema: schema,
				Terms: []exec.SortTerm{{Key: expr.C(schema, "k")}},
				Limit: limit,
			})
			plan := &core.Plan{}
			id := exec.AddOp(plan, op)
			ctx := &core.ExecCtx{
				Pool:           storage.NewPool(nil, nil),
				TempBlockBytes: 128 << 10,
				TempFormat:     storage.RowStore,
				Workers:        g,
			}
			op.Init(ctx)
			b.StartTimer()
			runSortWOs(ctx, op.Feed(ctx, 0, blocks), g)
			runSortWOs(ctx, op.Final(ctx), g)
			for stage := 0; ; stage++ {
				wos := op.NextStage(ctx, stage)
				if wos == nil {
					break
				}
				runSortWOs(ctx, wos, g)
			}
			b.StopTimer()
			for _, blk := range ctx.Pool.TakePartials(int(id)) {
				ctx.Pool.Release(blk)
			}
			b.StartTimer()
		}
	}
}
