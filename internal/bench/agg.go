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

// AggKernelProfile reports the vectorized-aggregation counters for the
// aggregation-heavy TPC-H queries at the configured worker count: rows routed
// through the fixed-width fast path versus the reference map path, partial
// tables created (free-list misses — the steady state approaches the worker
// count), and the radix merge fan-out that replaced the global-mutex merge.
// Q1 groups by char columns and Q16 needs count(distinct), so they exercise
// the retained fallback; the int-keyed aggregations (Q13, Q15, Q18) run
// entirely vectorized.
func (h *Harness) AggKernelProfile() (*Report, error) {
	r := &Report{
		ID:    "AGG",
		Title: "Aggregation-kernel profile (vectorized vs fallback rows, merge fan-out)",
		Header: []string{
			"query", "agg_rows", "fast_%", "partials", "merge_fanout", "wall_ms",
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
		total := k.AggFastRows + k.AggFallbackRows
		fastPct := "-"
		if total > 0 {
			fastPct = fmt.Sprintf("%.1f", 100*float64(k.AggFastRows)/float64(total))
		}
		r.AddRow(
			fmt.Sprintf("Q%02d", q),
			fmt.Sprintf("%d", total),
			fastPct,
			fmt.Sprintf("%d", k.AggPartials),
			fmt.Sprintf("%d", k.AggMergeFanout),
			fmt.Sprintf("%.2f", float64(res.Run.WallTime())/float64(time.Millisecond)),
		)
	}
	r.Note("fast_%% is the share of aggregated rows on the fixed-width vectorized path; char group keys (Q1) and count(distinct) (Q16) keep the reference map path")
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
// goroutines: the reference path evaluates per row into a local map and
// merges it into the shared map behind the operator mutex; the vectorized
// path gathers + hashes the key column per block into thread-local
// fixed-width tables and merges via the parallel radix fan-out.
func benchAgg(g int, vectorized bool) func(b *testing.B) {
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
				ForceReference: !vectorized,
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
