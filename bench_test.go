package uot

// Benchmarks, one per table and figure of the paper (run with
// `go test -bench=. -benchmem`). Each benchmark regenerates its paper
// artifact through the internal/bench harness at a reduced scale factor so
// the whole suite completes in minutes; cmd/uotbench runs the same
// experiments at the full configured scale. Micro-benchmarks for the core
// data structures follow the experiment benchmarks.

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/bloom"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hashtable"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/types"
)

var (
	harnessOnce sync.Once
	harness     *bench.Harness
)

// benchHarness shares one dataset cache across all experiment benchmarks.
func benchHarness() *bench.Harness {
	harnessOnce.Do(func() {
		harness = bench.New(bench.Config{SF: 0.01, Workers: 20, Runs: 2, Best: 1})
	})
	return harness
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	h := benchHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(h)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// Experiment benchmarks, in paper order.

func BenchmarkFig2Schedules(b *testing.B)         { runExperiment(b, "FIG2") }
func BenchmarkFig3OperatorBreakdown(b *testing.B) { runExperiment(b, "FIG3") }
func BenchmarkEq1Ratio(b *testing.B)              { runExperiment(b, "EQ1") }
func BenchmarkSec5CPersistentStore(b *testing.B)  { runExperiment(b, "SEC5C") }
func BenchmarkTab2MemoryFootprint(b *testing.B)   { runExperiment(b, "TAB2") }
func BenchmarkTab3Lineitem(b *testing.B)          { runExperiment(b, "TAB3") }
func BenchmarkTab4Orders(b *testing.B)            { runExperiment(b, "TAB4") }
func BenchmarkSec6CLIP(b *testing.B)              { runExperiment(b, "SEC6C") }
func BenchmarkFig5ProbeTasks(b *testing.B)        { runExperiment(b, "FIG5") }
func BenchmarkFig6Chains(b *testing.B)            { runExperiment(b, "FIG6") }
func BenchmarkFig7QueryTimes(b *testing.B)        { runExperiment(b, "FIG7") }
func BenchmarkFig8RowStore(b *testing.B)          { runExperiment(b, "FIG8") }
func BenchmarkFig9Scalability(b *testing.B)       { runExperiment(b, "FIG9") }
func BenchmarkFig10Interaction(b *testing.B)      { runExperiment(b, "FIG10") }
func BenchmarkTab6Prefetching(b *testing.B)       { runExperiment(b, "TAB6") }
func BenchmarkFig11Monet(b *testing.B)            { runExperiment(b, "FIG11") }
func BenchmarkSec6BSSB(b *testing.B)              { runExperiment(b, "SEC6B") }
func BenchmarkAblationUoTSweep(b *testing.B)      { runExperiment(b, "ABL-UOT") }
func BenchmarkAblationBlockSize(b *testing.B)     { runExperiment(b, "ABL-BLOCK") }

// Micro-benchmarks for the substrates.

func BenchmarkBlockScanColumnStore(b *testing.B) { benchBlockScan(b, storage.ColumnStore) }
func BenchmarkBlockScanRowStore(b *testing.B)    { benchBlockScan(b, storage.RowStore) }

func benchBlockScan(b *testing.B, format storage.Format) {
	s := storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Float64},
		storage.Column{Name: "pad", Type: types.Char, Width: 64},
	)
	blk := storage.NewBlock(s, format, 128<<10)
	for !blk.Full() {
		blk.AppendRow(types.NewInt64(1), types.NewFloat64(2), types.NewString("x"))
	}
	b.SetBytes(int64(blk.NumRows() * 8))
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		for r := 0; r < blk.NumRows(); r++ {
			sum += blk.Int64At(0, r)
		}
	}
	_ = sum
}

// keyBlocks returns n rows (k, k) for k = 0..n-1 in 64 KiB column blocks.
func keyBlocks(n int) []*storage.Block {
	sch := storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Int64},
	)
	var blocks []*storage.Block
	for k := 0; k < n; {
		blk := storage.NewBlock(sch, storage.ColumnStore, 64<<10)
		for ; k < n && !blk.Full(); k++ {
			blk.AppendRow(types.NewInt64(int64(k)), types.NewInt64(int64(k)))
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

func BenchmarkHashTableInsert(b *testing.B) {
	pay := storage.NewSchema(storage.Column{Name: "v", Type: types.Int64})
	blocks := keyBlocks(1 << 16)
	sc := &hashtable.InsertScratch{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht := hashtable.New(hashtable.Config{PayloadSchema: pay})
		for _, blk := range blocks {
			ht.InsertBlock(blk, []int{0}, []int{1}, sc)
		}
		for _, f := range ht.Seal(1) {
			f.Run()
		}
	}
}

func BenchmarkHashTableLookup(b *testing.B) {
	pay := storage.NewSchema(storage.Column{Name: "v", Type: types.Int64})
	blocks := keyBlocks(1 << 16)
	ht := hashtable.New(hashtable.Config{PayloadSchema: pay})
	sc := &hashtable.InsertScratch{}
	for _, blk := range blocks {
		ht.InsertBlock(blk, []int{0}, []int{1}, sc)
	}
	var k0 []int64
	var m hashtable.Matches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			k0 = blk.GatherInt64(0, k0)
			ht.Match(k0, nil, false, &m)
		}
	}
}

func BenchmarkBloomFilter(b *testing.B) {
	f := bloom.New(1<<16, 10)
	for i := int64(0); i < 1<<16; i++ {
		f.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(int64(i))
	}
}

func BenchmarkCacheSimProbes(b *testing.B) {
	s := cachesim.New(cachesim.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RandomProbes(1000, 100<<20)
	}
}

// BenchmarkQ3EndToEnd measures one full TPC-H query per iteration at both
// UoT extremes (the headline comparison of the paper).
func BenchmarkQ3EndToEndLowUoT(b *testing.B)  { benchQ3(b, 1) }
func BenchmarkQ3EndToEndHighUoT(b *testing.B) { benchQ3(b, core.UoTTable) }

var (
	q3Once sync.Once
	q3Data *tpch.Dataset
)

func benchQ3(b *testing.B, uotBlocks int) {
	q3Once.Do(func() { q3Data = tpch.Load(0.01, 128<<10, storage.ColumnStore) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := tpch.Build(q3Data, 3, tpch.QueryOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Execute(plan, engine.Options{
			Workers: 4, UoTBlocks: uotBlocks, TempBlockBytes: 128 << 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
