package bench

// EXCH experiment and micro benchmarks for the exchange operator: the
// hash-partition scatter kernel itself, and the partition-local join build
// and aggregation pipelines it enables (owned hash tables, no shard locks,
// no radix merge) against the shared-state kernels from the earlier PRs.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/hashtable"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

// microParts is the partition fan-out of the partitioned micro benchmarks:
// equal to the g=8 goroutine count, so each goroutine owns one partition
// pipeline outright, the exchange topology's steady state.
const microParts = 8

var (
	microPartOnce     sync.Once
	microPartInput    [][]*storage.Block // partition -> join-build input blocks
	microPartAggOnce  sync.Once
	microPartAggInput [][]*storage.Block // partition -> agg input blocks
)

// scatterByKey splits blocks into microParts partition-local block lists by
// the hash of key column keyCol — the layout the exchange operator produces.
// The scatter cost itself is measured separately (exchange/scatter/*), so the
// partitioned build/agg benchmarks start from pre-scattered input the same
// way the shared-path benchmarks start from pre-built blocks.
func scatterByKey(blocks []*storage.Block, schema *storage.Schema, keyCol int) [][]*storage.Block {
	pr := types.NewPartitioner(microParts)
	proj := make([]int, schema.NumCols())
	for i := range proj {
		proj[i] = i
	}
	out := make([][]*storage.Block, microParts)
	cur := make([]*storage.Block, microParts)
	var keys []int64
	var hs []uint64
	for _, b := range blocks {
		keys = b.GatherInt64(keyCol, keys)
		hs = types.HashPairVec(keys, nil, hs)
		for r := 0; r < b.NumRows(); r++ {
			p := pr.Of(hs[r])
			if cur[p] == nil || cur[p].Full() {
				cur[p] = storage.NewBlock(schema, storage.ColumnStore, microBlockRows*16+64)
				out[p] = append(out[p], cur[p])
			}
			cur[p].AppendFrom(b, r, proj)
		}
	}
	return out
}

func microPartData() [][]*storage.Block {
	microPartOnce.Do(func() {
		blocks, _ := microData()
		in, _ := microPayloadSchema()
		microPartInput = scatterByKey(blocks, in, 0)
	})
	return microPartInput
}

func microPartAggData() [][]*storage.Block {
	microPartAggOnce.Do(func() {
		blocks, schema := microAggData()
		microPartAggInput = scatterByKey(blocks, schema, 0)
	})
	return microPartAggInput
}

// benchScatter runs the exchange operator's repartition work orders over the
// micro build input with g goroutines: gather + vectorized hash + counting
// sort per block, emitting into partition-tagged temp blocks.
func benchScatter(g int) func(b *testing.B) {
	return func(b *testing.B) {
		blocks, _ := microData()
		in, _ := microPayloadSchema()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Operator and pool construction are not the kernel under test.
			b.StopTimer()
			op := exchange.New(exchange.Spec{
				Name: "bench", InputSchema: in, KeyCols: []int{0}, Partitions: microParts,
			})
			op.SetID(0)
			ctx := &core.ExecCtx{
				Pool:           storage.NewPool(nil, nil),
				TempBlockBytes: 128 << 10,
				TempFormat:     storage.RowStore,
				Workers:        g,
			}
			op.Init(ctx)
			b.StartTimer()
			runAggWOs(ctx, op.Feed(ctx, 0, blocks), g)
		}
	}
}

// benchPartInsert builds microParts partition-owned hash tables from the
// pre-scattered build input, each table touched by exactly one goroutine
// (InsertBlockOwned: zero shard locks). The shared-path counterpart is
// hashtable/insert/block/g=8, where all goroutines contend on one table.
func benchPartInsert(g int) func(b *testing.B) {
	return func(b *testing.B) {
		parts := microPartData()
		_, pay := microPayloadSchema()
		rows := make([]int, microParts)
		for p, blks := range parts {
			for _, blk := range blks {
				rows[p] += blk.NumRows()
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tabs := make([]*hashtable.Table, microParts)
			for p := range tabs {
				tabs[p] = hashtable.New(hashtable.Config{
					PayloadSchema: pay, InitialCapacity: rows[p], Owned: true,
				})
			}
			b.StartTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sc := &hashtable.InsertScratch{}
					for p := w; p < microParts; p += g {
						for _, blk := range parts[p] {
							tabs[p].InsertBlockOwned(blk, []int{0}, []int{1}, sc)
						}
					}
				}(w)
			}
			wg.Wait()
		}
	}
}

// benchPartAgg aggregates the pre-scattered agg input through microParts
// partition-local clones (PartitionLocal: single identity merge, no radix
// fan-out), one goroutine driving each partition pipeline end to end. The
// shared-path counterpart is agg/group/vectorized/g=8.
func benchPartAgg(g int) func(b *testing.B) {
	return func(b *testing.B) {
		parts := microPartAggData()
		_, schema := microAggData()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			plan := &core.Plan{}
			ctx := &core.ExecCtx{
				Pool:           storage.NewPool(nil, nil),
				TempBlockBytes: 128 << 10,
				TempFormat:     storage.RowStore,
				Workers:        g,
			}
			ops := make([]*exec.AggOp, microParts)
			for p := range ops {
				ops[p] = exec.NewAgg(exec.AggOpSpec{
					Name: "agg", InputSchema: schema,
					GroupBy: []expr.Expr{expr.C(schema, "g")}, GroupByNames: []string{"g"},
					Aggs: []exec.AggSpec{
						{Func: exec.Sum, Arg: expr.C(schema, "v"), Name: "s"},
						{Func: exec.Count, Name: "c"},
						{Func: exec.Min, Arg: expr.C(schema, "v"), Name: "mn"},
					},
					PartitionLocal: true,
				})
				exec.AddOp(plan, ops[p])
				ops[p].Init(ctx)
			}
			b.StartTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for p := w; p < microParts; p += g {
						runAggWOs(ctx, ops[p].Feed(ctx, 0, parts[p]), 1)
						runAggWOs(ctx, ops[p].Final(ctx), 1)
					}
				}(w)
			}
			wg.Wait()
		}
	}
}

// buildExchangeJoinAgg constructs the EXCH join+agg plan over the synthetic
// star tables; parts > 1 partitions both the join and the aggregation behind
// exchanges, parts == 1 is the ordinary shared-state plan.
func buildExchangeJoinAgg(fact, dim *storage.Table, dimRows, parts int) *engine.Builder {
	b := engine.NewBuilder()
	fs, ds := fact.Schema(), dim.Schema()
	selDim := b.ScanSelect(exec.SelectSpec{
		Name: "sel_dim", Base: dim,
		Proj:      []expr.Expr{expr.C(ds, "k"), expr.C(ds, "w")},
		ProjNames: []string{"k", "w"},
	})
	selFact := b.ScanSelect(exec.SelectSpec{
		Name: "sel_fact", Base: fact,
		Proj:      []expr.Expr{expr.C(fs, "k"), expr.C(fs, "grp"), expr.C(fs, "v")},
		ProjNames: []string{"k", "grp", "v"},
	})
	bspec := exec.BuildSpec{
		Name: "build_dim", KeyCols: []int{0}, Payload: []int{1}, ExpectedRows: dimRows,
	}
	pspec := exec.ProbeSpec{
		Name: "probe_dim", KeyCols: []int{0},
		ProbeProj: []int{1, 2}, BuildProj: []int{0},
		Rename: []string{"grp", "v", "w"},
	}
	var joined *engine.Node
	if parts > 1 {
		joined = b.PartitionedHashJoin(selDim, selFact, bspec, pspec, parts)
	} else {
		bld, _ := b.Build(selDim, bspec)
		joined = b.Probe(selFact, bld, pspec)
	}
	agg := b.PartitionedAgg(joined, exec.AggOpSpec{
		Name:         "agg",
		GroupBy:      []expr.Expr{expr.C(joined.Schema, "grp")},
		GroupByNames: []string{"grp"},
		Aggs: []exec.AggSpec{
			{Func: exec.Count, Name: "cnt"},
			{Func: exec.Sum, Arg: expr.C(joined.Schema, "v"), Name: "sv"},
		},
	}, parts)
	b.Collect(agg)
	return b
}

// ExchangeProfile compares the shared-state join+agg plan against the
// hash-partitioned plan (exchange + partition-local build/probe/agg clones)
// on a synthetic star join scaled by the configured SF, and demonstrates the
// partition-skew guard on a constant-key input. The partitioned plan's build
// clones own their tables outright, so its shard-lock count must sit at ~0
// while the shared plan's scales with build rows.
func (h *Harness) ExchangeProfile() (*Report, error) {
	r := &Report{
		ID:    "EXCH",
		Title: "Exchange profile (partition-local pipelines vs shared-state join+agg)",
		Header: []string{
			"plan", "parts", "wall_ms", "shard_locks", "exchange_rows", "fanout", "skew",
		},
	}
	factRows := int(2_000_000 * h.cfg.SF)
	if factRows < 2048 {
		factRows = 2048
	}
	dimRows := factRows/16 + 1

	db := engine.NewDB(64<<10, storage.ColumnStore)
	fact := db.CreateTable("exch_fact", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "grp", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Int64},
	))
	lf := storage.NewLoader(fact)
	for i := 0; i < factRows; i++ {
		// splayed keys, 50% join hit rate, 64 groups
		lf.Append(
			types.NewInt64(int64(i)*2654435761%int64(2*dimRows)),
			types.NewInt64(int64(i%64)),
			types.NewInt64(int64(i%1000)),
		)
	}
	lf.Close()
	dim := db.CreateTable("exch_dim", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "w", Type: types.Int64},
	))
	ld := storage.NewLoader(dim)
	for i := 0; i < dimRows; i++ {
		ld.Append(types.NewInt64(int64(i)), types.NewInt64(int64(i%100)))
	}
	ld.Close()

	parts := costmodel.Partitions(int64(factRows), h.cfg.Workers)
	modes := []struct {
		name  string
		parts int
	}{{"shared", 1}, {"partitioned/4", 4}, {"partitioned/8", 8}}
	if parts > 8 {
		modes = append(modes, struct {
			name  string
			parts int
		}{fmt.Sprintf("partitioned/%d", parts), parts})
	}
	for _, mode := range modes {
		wall, run, err := h.bestOf(func() (*stats.Run, error) {
			res, err := engine.Execute(buildExchangeJoinAgg(fact, dim, dimRows, mode.parts), engine.Options{
				Workers: h.cfg.Workers, UoTBlocks: 1, TempBlockBytes: 64 << 10,
			})
			if err != nil {
				return nil, err
			}
			return res.Run, nil
		})
		if err != nil {
			return nil, err
		}
		k := run.Kernels()
		r.AddRow(
			mode.name, fmt.Sprintf("%d", mode.parts), ms(wall),
			fmt.Sprintf("%d", k.ShardLocks),
			fmt.Sprintf("%d", k.ExchangeRows),
			fmt.Sprintf("%d", k.RepartitionFanout),
			fmt.Sprintf("%d", k.PartitionSkew),
		)
	}

	// Skew-guard demonstration: a constant group key routes every row to one
	// partition; the guard must trip and surface in the run counters.
	skewTbl := db.CreateTable("exch_skew", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Int64},
	))
	ls := storage.NewLoader(skewTbl)
	for i := 0; i < factRows/4; i++ {
		ls.Append(types.NewInt64(7), types.NewInt64(int64(i)))
	}
	ls.Close()
	sb := engine.NewBuilder()
	ss := skewTbl.Schema()
	sel := sb.ScanSelect(exec.SelectSpec{
		Name: "sel_skew", Base: skewTbl,
		Proj:      []expr.Expr{expr.C(ss, "k"), expr.C(ss, "v")},
		ProjNames: []string{"k", "v"},
	})
	agg := sb.PartitionedAgg(sel, exec.AggOpSpec{
		Name:         "agg_skew",
		GroupBy:      []expr.Expr{expr.C(sel.Schema, "k")},
		GroupByNames: []string{"k"},
		Aggs:         []exec.AggSpec{{Func: exec.Count, Name: "cnt"}},
	}, parts)
	sb.Collect(agg)
	res, err := engine.Execute(sb, engine.Options{
		Workers: h.cfg.Workers, UoTBlocks: 1, TempBlockBytes: 64 << 10,
	})
	if err != nil {
		return nil, err
	}
	k := res.Run.Kernels()
	r.AddRow(
		"skewed(const key)", fmt.Sprintf("%d", parts),
		fmt.Sprintf("%.2f", float64(res.Run.WallTime())/float64(time.Millisecond)),
		fmt.Sprintf("%d", k.ShardLocks),
		fmt.Sprintf("%d", k.ExchangeRows),
		fmt.Sprintf("%d", k.RepartitionFanout),
		fmt.Sprintf("%d", k.PartitionSkew),
	)
	r.Note("partitioned build clones own their hash tables (InsertBlockOwned): shard_locks ~0; skew counts partitions where one partition held >50%% of scattered rows")
	return r, nil
}
