package main

// Direct timed calls into the kernels' public entry points, single-threaded,
// on synthetic blocks. The data comes from a fixed seed, not from -seed: a
// kernel number must mean the same thing in every run. Each number is the
// median of kernelReps passes after one warm-up pass, in ns per row unless
// its name says otherwise.

import (
	"time"

	"repro/internal/aggtable"
	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/expr"
	"repro/internal/hashtable"
	"repro/internal/sorter"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/uotctl"
)

const (
	defaultKernelRows = 1 << 20
	kernelSeed        = 0x756f74 // "uot"
	kernelReps        = 3
	kernelGroups      = 1 << 16 // distinct aggregation groups
	kernelParts       = 16      // exchange fan-out, merge radix partitions
	kernelTopK        = 100
)

// timed runs body once to warm up and kernelReps times for the record,
// calling prepare (untimed) before each, and returns the median in ns.
func timed(prepare, body func()) float64 {
	var ns []float64
	for i := 0; i <= kernelReps; i++ {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		body()
		if i > 0 {
			ns = append(ns, float64(time.Since(t0)))
		}
	}
	return median(ns)
}

// kernels measures every kernel over `rows` rows and reports through put.
func kernels(rows int, put func(name string, v float64, unit string)) {
	schema := storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Float64},
	)
	paySchema := storage.NewSchema(storage.Column{Name: "v", Type: types.Float64})
	r := newRNG(kernelSeed)
	var blocks []*storage.Block
	keys := make([]int64, 0, rows)
	for len(keys) < rows {
		b := storage.NewBlock(schema, storage.ColumnStore, blockBytes)
		for !b.Full() && len(keys) < rows {
			k := int64(r.next() >> 1)
			b.AppendRow(types.NewInt64(k), types.NewFloat64(float64(k%4096)/8))
			keys = append(keys, k)
		}
		blocks = append(blocks, b)
	}
	n := float64(rows)
	perRow := func(name string, prepare, body func()) { put(name, timed(prepare, body)/n, "ns") }

	// hashtable: block insert into a pre-sized table, then pre-hashed probes.
	var ht *hashtable.Table
	newTable := func() {
		ht = hashtable.New(hashtable.Config{PayloadSchema: paySchema, InitialCapacity: rows})
	}
	insertScratch := &hashtable.InsertScratch{}
	perRow("hashtable.insert_block_ns", newTable, func() {
		for _, b := range blocks {
			ht.InsertBlock(b, []int{0}, []int{1}, insertScratch)
		}
	})
	var k0 []int64
	var hashes []uint64
	matched := 0
	perRow("hashtable.lookup_hashed_ns", nil, func() {
		for _, b := range blocks {
			k0 = b.GatherInt64(0, k0)
			hashes = types.HashPairVec(k0, nil, hashes)
			for i, h := range hashes {
				ht.LookupHashed(h, k0[i], 0, func(*storage.Block, int) bool { matched++; return true })
			}
		}
	})

	var bf *bloom.Filter
	perRow("bloom.add_many_ns", func() { bf = bloom.New(rows, 10) }, func() { bf.AddMany(keys) })
	perRow("bloom.may_contain_ns", nil, func() {
		for _, k := range keys {
			if bf.MayContain(k ^ 1) {
				matched++
			}
		}
	})

	// aggtable: one SUM over kernelGroups groups, then a radix merge of the
	// resulting partial into a fresh table (ns per group merged).
	groupKeys := make([]int64, rows)
	for i, k := range keys {
		groupKeys[i] = k % kernelGroups
	}
	groupHashes := types.HashPairVec(groupKeys, nil, nil)
	var at *aggtable.Table
	var groupIdx []int32
	perRow("aggtable.upsert_block_ns", func() { at = aggtable.New(1, false, kernelGroups) }, func() {
		for lo := 0; lo < rows; lo += 8192 {
			hi := min(lo+8192, rows)
			groupIdx = at.UpsertBlock(groupKeys[lo:hi], nil, groupHashes[lo:hi], groupIdx)
		}
	})
	pr := types.NewPartitioner(kernelParts)
	aggs := []aggtable.Agg{{Kind: aggtable.Sum, Float: true}}
	var dst *aggtable.Table
	mergeNS := timed(func() { dst = aggtable.New(1, false, kernelGroups) }, func() {
		for part := 0; part < pr.Parts(); part++ {
			dst.MergePartition(at, part, pr, aggs)
		}
	})
	put("aggtable.merge_partition_ns", mergeNS/float64(at.Len()), "ns")

	// sorter: LSD radix sort of (key, row id) pairs; bounded top-k heap.
	kvs, scratch := make([]sorter.KV, rows), make([]sorter.KV, rows)
	perRow("sorter.sort_kvs_ns", func() {
		for i, k := range keys {
			kvs[i] = sorter.KV{Key: sorter.NormInt64(k), ID: int32(i)}
		}
	}, func() { sorter.SortKVs(kvs, scratch) })
	layout := sorter.NewLayout([]sorter.Term{{Type: sorter.Int64}})
	var topk *sorter.TopK
	perRow("sorter.topk_offer_ns", func() { topk = sorter.NewTopK(kernelTopK, &layout, 0, nil) }, func() {
		var key [1]uint64
		for i, k := range keys {
			key[0] = sorter.NormInt64(k)
			topk.Offer(key[:], int32(i))
		}
	})

	// exchange: Repartition work orders run by hand, as the scheduler would.
	var (
		ctx *core.ExecCtx
		wos []core.WorkOrder
	)
	perRow("exchange.repartition_ns", func() {
		op := exchange.New(exchange.Spec{Name: "bench", InputSchema: schema, KeyCols: []int{0}, Partitions: kernelParts})
		op.SetID(0)
		ctx = &core.ExecCtx{Pool: storage.NewPool(nil, nil), TempBlockBytes: blockBytes, TempFormat: storage.RowStore, Workers: 1}
		op.Init(ctx)
		wos = op.Feed(ctx, 0, blocks)
	}, func() {
		for _, wo := range wos {
			out := &core.Output{}
			out.Finish(wo.Run(ctx, out))
		}
	})

	pred := expr.Lt(expr.C(schema, "k"), expr.Int(1<<61)) // selects a quarter
	var sel []int32
	perRow("expr.filter_block_ns", nil, func() {
		for _, b := range blocks {
			sel = expr.FilterBlock(pred, b, nil, sel)[:0]
		}
	})

	ctl := uotctl.New(uotctl.Config{Workers: 8, BlockBytes: blockBytes, DefaultUoT: 4})
	edge := ctl.AddEdge(4)
	signals := []uotctl.Signals{
		{Buffered: 64, Delivered: 4, IntervalNS: 1000, ServiceNS: 400},
		{Buffered: 0, Delivered: 4, StallNS: 900, IntervalNS: 1000, ServiceNS: 100},
		{Buffered: 2, Delivered: 4, IntervalNS: 1000, ServiceNS: 500},
	}
	perRow("uotctl.observe_ns", nil, func() {
		for i := 0; i < rows; i++ {
			ctl.Observe(edge, signals[i%len(signals)])
		}
	})

	// storage: block codec throughput over the blocks' allocated bytes, and
	// one pool check-out/release cycle.
	var bytes float64
	for _, b := range blocks {
		bytes += float64(b.AllocBytes())
	}
	mibPerS := func(ns float64) float64 { return bytes / (1 << 20) / (ns / 1e9) }
	encoded := make([][]byte, len(blocks))
	put("storage.encode_block_mib_s", mibPerS(timed(nil, func() {
		for i, b := range blocks {
			encoded[i] = storage.EncodeBlock(b, encoded[i])
		}
	})), "MiB/s")
	decodeFailed := false
	put("storage.decode_block_mib_s", mibPerS(timed(nil, func() {
		for _, data := range encoded {
			if _, err := storage.DecodeBlock(data); err != nil {
				decodeFailed = true
			}
		}
	})), "MiB/s")
	if decodeFailed {
		panic("benchmark: storage.DecodeBlock rejected storage.EncodeBlock's output")
	}
	pool := storage.NewPool(nil, nil)
	perRow("storage.pool_checkout_ns", nil, func() {
		for i := 0; i < rows; i++ {
			pool.Release(pool.CheckOut(0, schema, storage.RowStore, blockBytes))
		}
	})
	_ = matched
}
