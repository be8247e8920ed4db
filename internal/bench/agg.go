package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/types"
)

// AggKernelProfile reports the aggregation-kernel counters for the
// aggregation-heavy TPC-H queries at the configured worker count: rows
// aggregated, partial tables created (free-list misses — the steady state
// approaches the worker count), and the radix merge fan-out. Q1 groups by
// char columns (byte-keyed table) and Q16 needs count(distinct) (side
// array); Q13, Q15 and Q18 use inline int keys.
func (h *Harness) AggKernelProfile() (*Report, error) {
	r := &Report{
		ID:    "AGG",
		Title: "Aggregation-kernel profile (rows, partial tables, merge fan-out)",
		Header: []string{
			"query", "agg_rows", "partials", "merge_fanout", "wall_ms",
		},
	}
	d := h.Dataset(128<<10, storage.ColumnStore)
	for _, q := range []int{1, 13, 15, 16, 18} {
		res, err := h.run(d, q, engine.Options{
			Workers: h.cfg.Workers, UoTBlocks: 1, TempBlockBytes: 128 << 10,
		}, tpch.QueryOpts{})
		if err != nil {
			return nil, err
		}
		k := res.Run.Kernels()
		r.AddRow(
			fmt.Sprintf("Q%02d", q),
			fmt.Sprintf("%d", k.AggFastRows),
			fmt.Sprintf("%d", k.AggPartials),
			fmt.Sprintf("%d", k.AggMergeFanout),
			fmt.Sprintf("%.2f", float64(res.Run.WallTime())/float64(time.Millisecond)),
		)
	}
	return r, nil
}

const microAggGroups = 512 // distinct group keys in the micro agg input

var (
	microAggOnce   sync.Once
	microAggInput  []*storage.Block
	microAggSchema *storage.Schema
)

// microAggData builds (once) the shared aggregation input: microBlocks blocks
// of (int64 group key, float64 measure) rows over microAggGroups groups, the
// grouped-aggregation shape of Q13/Q15/Q18.
func microAggData() ([]*storage.Block, *storage.Schema) {
	microAggOnce.Do(func() {
		microAggSchema = storage.NewSchema(
			storage.Column{Name: "g", Type: types.Int64},
			storage.Column{Name: "v", Type: types.Float64},
		)
		microAggInput = make([]*storage.Block, microBlocks)
		for bi := range microAggInput {
			b := storage.NewBlock(microAggSchema, storage.ColumnStore, microBlockRows*16+64)
			for r := 0; r < microBlockRows; r++ {
				k := int64(bi*microBlockRows + r)
				// splay keys so group-adjacent rows are not key-adjacent
				b.AppendRow(
					types.NewInt64(k*2654435761%microAggGroups),
					types.NewFloat64(float64(k%4096)/8), // dyadic: order-independent sums
				)
			}
			microAggInput[bi] = b
		}
	})
	return microAggInput, microAggSchema
}

// runAggWOs executes work orders from g goroutines pulling from a shared
// counter (the scheduler's dispatch pattern), each with its own Output.
func runAggWOs(ctx *core.ExecCtx, wos []core.WorkOrder, g int) {
	if g <= 1 {
		for _, wo := range wos {
			out := &core.Output{}
			out.Finish(wo.Run(ctx, out))
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
				out := &core.Output{}
				out.Finish(wos[j].Run(ctx, out))
			}
		}()
	}
	wg.Wait()
}

// benchAgg aggregates the 64K-row input into ~512 groups per op with g
// goroutines: gather + hash the key column per block into thread-local
// fixed-width tables, then merge via the parallel radix fan-out.
func benchAgg(g int) func(b *testing.B) {
	return func(b *testing.B) {
		blocks, schema := microAggData()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Operator construction and pool setup are not the kernel under
			// test; keep them off the clock.
			b.StopTimer()
			op := exec.NewAgg(exec.AggOpSpec{
				Name: "agg", InputSchema: schema,
				GroupBy: []expr.Expr{expr.C(schema, "g")}, GroupByNames: []string{"g"},
				Aggs: []exec.AggSpec{
					{Func: exec.Sum, Arg: expr.C(schema, "v"), Name: "s"},
					{Func: exec.Count, Name: "c"},
					{Func: exec.Min, Arg: expr.C(schema, "v"), Name: "mn"},
				},
			})
			plan := &core.Plan{}
			exec.AddOp(plan, op)
			ctx := &core.ExecCtx{
				Pool:           storage.NewPool(nil, nil),
				TempBlockBytes: 128 << 10,
				TempFormat:     storage.RowStore,
				Workers:        g,
			}
			op.Init(ctx)
			b.StartTimer()
			runAggWOs(ctx, op.Feed(ctx, 0, blocks), g)
			runAggWOs(ctx, op.Final(ctx), g)
		}
	}
}
