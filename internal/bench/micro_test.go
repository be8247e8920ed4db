package bench

import "testing"

// Standard testing.B wrappers over the micro suite so `go test -bench` and
// CI's bench smoke can drive the same kernels cmd/uotbench -micro measures.

func BenchmarkMicroInsertRowG1(b *testing.B)   { benchInsert(1, false)(b) }
func BenchmarkMicroInsertBlockG1(b *testing.B) { benchInsert(1, true)(b) }
func BenchmarkMicroInsertRowG8(b *testing.B)   { benchInsert(8, false)(b) }
func BenchmarkMicroInsertBlockG8(b *testing.B) { benchInsert(8, true)(b) }
func BenchmarkMicroBloomMutexG8(b *testing.B)  { benchBloom(8, false)(b) }
func BenchmarkMicroBloomBatchG8(b *testing.B)  { benchBloom(8, true)(b) }
func BenchmarkMicroProbeRowG8(b *testing.B)    { benchProbe(8, false)(b) }
func BenchmarkMicroProbeVecG8(b *testing.B)    { benchProbe(8, true)(b) }
func BenchmarkMicroFilterAlloc(b *testing.B)   { benchFilterBlock(false)(b) }
func BenchmarkMicroFilterScratch(b *testing.B) { benchFilterBlock(true)(b) }
func BenchmarkMicroAggVecG1(b *testing.B)      { benchAgg(1)(b) }
func BenchmarkMicroAggVecG8(b *testing.B)      { benchAgg(8)(b) }

// Exchange suite: the scatter kernel plus the partition-local build and agg
// pipelines it feeds (owned tables, no shard locks, no radix merge).
func BenchmarkMicroExchangeScatterG1(b *testing.B)   { benchScatter(1)(b) }
func BenchmarkMicroExchangeScatterG8(b *testing.B)   { benchScatter(8)(b) }
func BenchmarkMicroInsertPartitionedG8(b *testing.B) { benchPartInsert(8)(b) }
func BenchmarkMicroAggPartitionedG8(b *testing.B)    { benchPartAgg(8)(b) }

// The sort smoke wrappers run a 128-block (131072-row) prefix of the micro
// dataset so CI's -benchtime 10x pass stays fast; the full 1M-row shape runs
// through cmd/uotbench -micro.
func BenchmarkMicroSortFastG1(b *testing.B) { benchSort(1, 0, 128)(b) }
func BenchmarkMicroSortFastG8(b *testing.B) { benchSort(8, 0, 128)(b) }
func BenchmarkMicroSortTopKG8(b *testing.B) { benchSort(8, 100, 128)(b) }

// Adaptive-UoT suite: the controller's per-decision and prior costs plus the
// end-to-end static-vs-adaptive overhead pair (BENCH_PR7's target ratio).
func BenchmarkMicroUoTObserve(b *testing.B)         { benchUoTObserve(b) }
func BenchmarkMicroUoTPrior(b *testing.B)           { benchUoTPrior(b) }
func BenchmarkMicroUoTQueryStaticG8(b *testing.B)   { benchAdaptQuery(8, false)(b) }
func BenchmarkMicroUoTQueryAdaptiveG8(b *testing.B) { benchAdaptQuery(8, true)(b) }

// TestMicroReportSmoke runs one tiny pass of the report plumbing (not the
// full auto-scaled suite) to keep the JSON artifact path covered.
func TestMicroReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("micro suite is slow")
	}
	blocks, _ := microData()
	if len(blocks) != microBlocks {
		t.Fatalf("micro dataset has %d blocks", len(blocks))
	}
}
