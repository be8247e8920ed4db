package bench

// Micro-benchmark suite for the build/probe hot-path kernels. These are the
// before/after numbers of the batch-kernel work: the row-at-a-time reference
// paths (per-row shard-mutex inserts, mutex-guarded bloom adds, allocating
// selection vectors) against the block-granular kernels (InsertBlock,
// AddMany, pooled FilterBlock scratch, pre-hashed probe). cmd/uotbench
// -micro runs the suite and optionally writes a machine-readable JSON
// artifact (BENCH_PR1.json) so later PRs can track the trajectory.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bloom"
	"repro/internal/expr"
	"repro/internal/hashtable"
	"repro/internal/storage"
	"repro/internal/types"
)

const (
	microBlockRows = 1024 // rows per input block
	microBlocks    = 64   // blocks per build (one benchmark op)
)

// MicroResult is one benchmark's measurement.
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	RowsPerSec  float64 `json:"rows_per_sec,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// MicroReport is the machine-readable perf artifact.
type MicroReport struct {
	Suite     string        `json:"suite"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	CPUs      int           `json:"cpus"`
	BlockRows int           `json:"block_rows"`
	Blocks    int           `json:"blocks_per_op"`
	Results   []MicroResult `json:"results"`
	// Derived speedups of the batched kernels over the row-at-a-time
	// reference paths (ns/op ratios; >1 means the batch kernel is faster).
	Derived map[string]float64 `json:"derived"`
}

// microPayloadSchema is the build-input schema: one key, one payload column.
func microPayloadSchema() (in, pay *storage.Schema) {
	in = storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Int64},
	)
	pay = storage.NewSchema(storage.Column{Name: "v", Type: types.Int64})
	return
}

var (
	microOnce   sync.Once
	microInput  []*storage.Block
	microPay    *storage.Schema
	microKeyTab *hashtable.Table // pre-built table for the probe benchmarks
)

// microData builds (once) the shared input blocks with distinct keys and a
// pre-built hash table for probing.
func microData() ([]*storage.Block, *storage.Schema) {
	microOnce.Do(func() {
		in, pay := microPayloadSchema()
		microPay = pay
		microInput = make([]*storage.Block, microBlocks)
		for bi := range microInput {
			b := storage.NewBlock(in, storage.ColumnStore, microBlockRows*16+64)
			for r := 0; r < microBlockRows; r++ {
				k := int64(bi*microBlockRows + r)
				// splay keys so hash-adjacent keys are not insert-adjacent
				b.AppendRow(types.NewInt64(k*2654435761%1000000007), types.NewInt64(k))
			}
			microInput[bi] = b
		}
		microKeyTab = hashtable.New(hashtable.Config{
			PayloadSchema: pay, InitialCapacity: microBlocks * microBlockRows,
		})
		sc := &hashtable.InsertScratch{}
		for _, b := range microInput {
			microKeyTab.InsertBlock(b, []int{0}, []int{1}, sc)
		}
	})
	return microInput, microPay
}

// forEachBlock runs fn over every input block from g goroutines pulling work
// from a shared counter (the scheduler's work-order pattern).
func forEachBlock(blocks []*storage.Block, g int, fn func(w int, b *storage.Block)) {
	if g <= 1 {
		for _, b := range blocks {
			fn(0, b)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				j := atomic.AddInt64(&next, 1) - 1
				if j >= int64(len(blocks)) {
					return
				}
				fn(w, blocks[j])
			}
		}(w)
	}
	wg.Wait()
}

// benchInsert builds a fresh 64K-row hash table per op, with g goroutines,
// through either the per-row reference path or the batch kernel.
func benchInsert(g int, batch bool) func(b *testing.B) {
	return func(b *testing.B) {
		blocks, pay := microData()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Table construction (one large zeroed slot allocation) is not
			// the kernel under test; keep it off the clock.
			b.StopTimer()
			ht := hashtable.New(hashtable.Config{
				PayloadSchema: pay, InitialCapacity: microBlocks * microBlockRows,
			})
			scratches := make([]*hashtable.InsertScratch, g)
			for w := range scratches {
				scratches[w] = &hashtable.InsertScratch{}
			}
			b.StartTimer()
			forEachBlock(blocks, g, func(w int, blk *storage.Block) {
				if batch {
					ht.InsertBlock(blk, []int{0}, []int{1}, scratches[w])
				} else {
					for r := 0; r < blk.NumRows(); r++ {
						ht.Insert(blk.Int64At(0, r), 0, blk, r, []int{1})
					}
				}
			})
		}
	}
}

// benchBloom populates a fresh filter per op with g goroutines: the mutex
// reference path serializes per-key adds behind one lock (the seed's
// BuildHashOp.bloomMu pattern); the batch path uses lock-free AddMany over
// the gathered key column.
func benchBloom(g int, batch bool) func(b *testing.B) {
	return func(b *testing.B) {
		blocks, _ := microData()
		keys := make([][]int64, len(blocks))
		for bi, blk := range blocks {
			ks := make([]int64, blk.NumRows())
			for r := range ks {
				ks[r] = blk.Int64At(0, r)
			}
			keys[bi] = ks
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := bloom.New(microBlocks*microBlockRows, 10)
			b.StartTimer()
			var mu sync.Mutex
			var next int64
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						j := atomic.AddInt64(&next, 1) - 1
						if j >= int64(len(keys)) {
							return
						}
						if batch {
							f.AddMany(keys[j])
						} else {
							for _, k := range keys[j] {
								mu.Lock()
								f.Add(k)
								mu.Unlock()
							}
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}

// benchProbe probes the pre-built 64K-entry table with every input block:
// the row path re-hashes per Lookup; the vectorized path gathers and hashes
// the key column once per block (types.HashPairVec into reused scratch) and
// probes with LookupHashed.
func benchProbe(g int, vectorized bool) func(b *testing.B) {
	return func(b *testing.B) {
		blocks, _ := microData()
		ht := microKeyTab
		type scratch struct {
			k0      []int64
			h       []uint64
			matched int64
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scratches := make([]*scratch, g)
			for w := range scratches {
				scratches[w] = &scratch{}
			}
			forEachBlock(blocks, g, func(w int, blk *storage.Block) {
				sc := scratches[w]
				n := blk.NumRows()
				if !vectorized {
					for r := 0; r < n; r++ {
						ht.Lookup(blk.Int64At(0, r), 0, func(*storage.Block, int) bool {
							sc.matched++
							return true
						})
					}
					return
				}
				sc.k0 = blk.GatherInt64(0, sc.k0)
				sc.h = types.HashPairVec(sc.k0, nil, sc.h)
				for r := 0; r < n; r++ {
					ht.LookupHashed(sc.h[r], sc.k0[r], 0, func(*storage.Block, int) bool {
						sc.matched++
						return true
					})
				}
			})
		}
	}
}

// benchFilterBlock evaluates a selective predicate over one wide block per
// op, either allocating the selection vector per block (the seed behavior)
// or reusing a caller-provided scratch.
func benchFilterBlock(useScratch bool) func(b *testing.B) {
	return func(b *testing.B) {
		s := storage.NewSchema(
			storage.Column{Name: "k", Type: types.Int64},
			storage.Column{Name: "v", Type: types.Float64},
		)
		blk := storage.NewBlock(s, storage.ColumnStore, 128<<10)
		for i := 0; !blk.Full(); i++ {
			blk.AppendRow(types.NewInt64(int64(i%100)), types.NewFloat64(float64(i)))
		}
		pred := expr.Lt(expr.C(s, "k"), expr.Int(50))
		var scratch []int32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if useScratch {
				scratch = expr.FilterBlock(pred, blk, nil, scratch)[:0]
			} else {
				_ = expr.FilterBlock(pred, blk, nil, nil)
			}
		}
	}
}

// microBenchmarks lists the suite in report order.
func microBenchmarks() []struct {
	name string
	rows int64 // rows processed per op (0 = not row-granular)
	fn   func(b *testing.B)
} {
	const buildRows = microBlocks * microBlockRows
	const sortRows = microSortBlocks * microBlockRows
	return []struct {
		name string
		rows int64
		fn   func(b *testing.B)
	}{
		{"hashtable/insert/row/g=1", buildRows, benchInsert(1, false)},
		{"hashtable/insert/block/g=1", buildRows, benchInsert(1, true)},
		{"hashtable/insert/row/g=8", buildRows, benchInsert(8, false)},
		{"hashtable/insert/block/g=8", buildRows, benchInsert(8, true)},
		{"bloom/add/mutex/g=1", buildRows, benchBloom(1, false)},
		{"bloom/add/atomic-batch/g=1", buildRows, benchBloom(1, true)},
		{"bloom/add/mutex/g=8", buildRows, benchBloom(8, false)},
		{"bloom/add/atomic-batch/g=8", buildRows, benchBloom(8, true)},
		{"probe/row/g=1", buildRows, benchProbe(1, false)},
		{"probe/vectorized/g=1", buildRows, benchProbe(1, true)},
		{"probe/row/g=8", buildRows, benchProbe(8, false)},
		{"probe/vectorized/g=8", buildRows, benchProbe(8, true)},
		{"expr/filterblock/alloc", 0, benchFilterBlock(false)},
		{"expr/filterblock/scratch", 0, benchFilterBlock(true)},
		{"agg/group/vectorized/g=1", buildRows, benchAgg(1)},
		{"agg/group/vectorized/g=8", buildRows, benchAgg(8)},
		{"exchange/scatter/g=1", buildRows, benchScatter(1)},
		{"exchange/scatter/g=8", buildRows, benchScatter(8)},
		{"hashtable/insert/partitioned/g=8", buildRows, benchPartInsert(8)},
		{"agg/group/partitioned/g=8", buildRows, benchPartAgg(8)},
		{"sort/fast/g=1", sortRows, benchSort(1, 0, microSortBlocks)},
		{"sort/fast/g=8", sortRows, benchSort(8, 0, microSortBlocks)},
		{"topk/fast/limit=100/g=8", sortRows, benchSort(8, 100, microSortBlocks)},
		{"uotctl/observe", 0, benchUoTObserve},
		{"uotctl/prior", 0, benchUoTPrior},
		{"engine/q1/static/g=8", 0, benchAdaptQuery(8, false)},
		{"engine/q1/adaptive/g=8", 0, benchAdaptQuery(8, true)},
	}
}

// RunMicro executes the micro suite and returns the report. Each benchmark
// is run through testing.Benchmark with the standard auto-scaling of b.N.
func RunMicro() *MicroReport {
	rep := &MicroReport{
		Suite:     "build-probe-hot-path",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		BlockRows: microBlockRows,
		Blocks:    microBlocks,
		Derived:   map[string]float64{},
	}
	ns := map[string]float64{}
	for _, mb := range microBenchmarks() {
		r := testing.Benchmark(mb.fn)
		// End-to-end engine entries (whole-query wall clock, ~tens of ms
		// per op) carry run-level scheduling noise that b.N auto-scaling
		// cannot average out; take the best of three runs, the same policy
		// the macro harness applies to experiment cells.
		if strings.HasPrefix(mb.name, "engine/") {
			for i := 0; i < 2; i++ {
				if r2 := testing.Benchmark(mb.fn); r2.NsPerOp() < r.NsPerOp() {
					r = r2
				}
			}
		}
		perOp := float64(r.T.Nanoseconds()) / float64(r.N)
		res := MicroResult{
			Name:        mb.name,
			NsPerOp:     perOp,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if mb.rows > 0 && perOp > 0 {
			res.RowsPerSec = float64(mb.rows) / perOp * 1e9
		}
		ns[mb.name] = perOp
		rep.Results = append(rep.Results, res)
	}
	speedup := func(key, ref, batch string) {
		if b := ns[batch]; b > 0 {
			rep.Derived[key] = ns[ref] / b
		}
	}
	speedup("insert_batch_speedup_g1", "hashtable/insert/row/g=1", "hashtable/insert/block/g=1")
	speedup("insert_batch_speedup_g8", "hashtable/insert/row/g=8", "hashtable/insert/block/g=8")
	speedup("bloom_batch_speedup_g8", "bloom/add/mutex/g=8", "bloom/add/atomic-batch/g=8")
	speedup("probe_vectorized_speedup_g8", "probe/row/g=8", "probe/vectorized/g=8")
	speedup("filterblock_scratch_speedup", "expr/filterblock/alloc", "expr/filterblock/scratch")
	speedup("insert_partitioned_speedup_g8", "hashtable/insert/block/g=8", "hashtable/insert/partitioned/g=8")
	speedup("agg_partitioned_speedup_g8", "agg/group/vectorized/g=8", "agg/group/partitioned/g=8")
	// Overhead ratio of the adaptive decision path: pinned-controller Q1
	// over static Q1, identical schedules (1.01 = 1% overhead). Measured by
	// interleaved alternation rather than from the two engine/q1 entries
	// above — see adaptQ1Overhead for why.
	rep.Derived["adaptive_uot_overhead_q1"] = adaptQ1Overhead()
	return rep
}

// String renders the micro report as an aligned text table.
func (m *MicroReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== MICRO: build/probe hot-path kernels (%s, %s/%s, %d CPU) ==\n",
		m.GoVersion, m.GOOS, m.GOARCH, m.CPUs)
	fmt.Fprintf(&sb, "%-32s %14s %14s %10s %10s\n", "benchmark", "ns/op", "rows/s", "B/op", "allocs/op")
	for _, r := range m.Results {
		rows := "-"
		if r.RowsPerSec > 0 {
			rows = fmt.Sprintf("%.3gM", r.RowsPerSec/1e6)
		}
		fmt.Fprintf(&sb, "%-32s %14.0f %14s %10d %10d\n",
			r.Name, r.NsPerOp, rows, r.BytesPerOp, r.AllocsPerOp)
	}
	keys := make([]string, 0, len(m.Derived))
	for k := range m.Derived {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "derived: %s = %.2fx\n", k, m.Derived[k])
	}
	return sb.String()
}

// WriteJSON writes the report to path (the BENCH_PR1.json perf artifact).
func (m *MicroReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
