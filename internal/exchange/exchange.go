// Package exchange implements the hash-partitioning exchange operator: the
// plan node that turns one block stream into P partition-local streams so
// that downstream per-partition operator clones (join builds, aggregations)
// own their state outright — no shard locks, no global radix merge.
//
// The operator follows the K9db/Pelton dataflow model: partitioned
// parallelism is expressed in the plan as an explicit EXCHANGE node joined to
// per-partition clones by partition-tagged edges, rather than hidden inside
// operator state. Each partition edge is an independent UoT-policed
// producer→consumer edge, so the paper's transfer-granularity spectrum
// applies per partition stream.
package exchange

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/types"
)

// Spec configures an exchange operator.
type Spec struct {
	// Name labels the operator ("exchange(orders)").
	Name string
	// InputSchema is the schema of fed blocks; output blocks pass every
	// column through unchanged.
	InputSchema *storage.Schema
	// KeyCols are the 1 or 2 partitioning key columns (Int64 or Date).
	KeyCols []int
	// Partitions is the requested fan-out; it is rounded up to a power of
	// two and clamped to [1, core.MaxPartitions].
	Partitions int
}

// Op hash-partitions its input blocks by key into P partition-local output
// streams via Repartition work orders. Rows with equal keys always land in
// the same partition, which is the only property downstream partition-local
// joins and aggregations need for correctness.
type Op struct {
	core.Base
	self    core.OpID
	name    string
	schema  *storage.Schema
	keyCols []int
	dateKey []bool
	pr      types.Partitioner
	proj    []int // identity projection: pass all columns through
	cols    []int // all column indexes, for cache-model read accounting

	scratch sync.Pool // *scatterScratch

	// rowsPart counts scattered rows per partition (atomically updated by
	// concurrent scatter work orders; read by Final's skew guard).
	rowsPart []int64
	skewed   bool
}

// New returns an exchange operator for spec. It panics on invalid specs
// (plan-construction errors): no key columns, more than two, or a key column
// that is neither Int64 nor Date.
func New(spec Spec) *Op {
	if len(spec.KeyCols) < 1 || len(spec.KeyCols) > 2 {
		panic(fmt.Sprintf("exchange: %d key columns (want 1 or 2)", len(spec.KeyCols)))
	}
	o := &Op{
		name:    spec.Name,
		schema:  spec.InputSchema,
		keyCols: spec.KeyCols,
		dateKey: make([]bool, len(spec.KeyCols)),
	}
	for i, c := range spec.KeyCols {
		switch spec.InputSchema.Col(c).Type {
		case types.Int64:
		case types.Date:
			o.dateKey[i] = true
		default:
			panic(fmt.Sprintf("exchange: key column %q is %v (want Int64 or Date)",
				spec.InputSchema.Col(c).Name, spec.InputSchema.Col(c).Type))
		}
	}
	parts := spec.Partitions
	if parts > core.MaxPartitions {
		parts = core.MaxPartitions
	}
	o.pr = types.NewPartitioner(parts)
	o.rowsPart = make([]int64, o.pr.Parts())
	o.proj = make([]int, spec.InputSchema.NumCols())
	for i := range o.proj {
		o.proj[i] = i
	}
	o.cols = o.proj
	return o
}

// SetID hands the operator its plan ID (the plan builder calls this right
// after AddOp; partition emitters key the temp-block pool with it).
func (o *Op) SetID(id core.OpID) { o.self = id }

// Name implements core.Operator.
func (o *Op) Name() string { return "exchange(" + o.name + ")" }

// NumInputs implements core.Operator.
func (o *Op) NumInputs() int { return 1 }

// OutputPartitions implements core.PartitionedOutput: the scheduler drains
// each partition's pending partial block when the operator finishes.
func (o *Op) OutputPartitions() int { return o.pr.Parts() }

// OutSchema returns the pass-through output schema.
func (o *Op) OutSchema() *storage.Schema { return o.schema }

// Partitioner returns the operator's key→partition mapping (tests assert
// routed blocks against it).
func (o *Op) Partitioner() types.Partitioner { return o.pr }

// Feed returns one Repartition work order per fed block, so the scatter
// parallelizes like any other block-granular kernel.
func (o *Op) Feed(ctx *core.ExecCtx, input int, blocks []*storage.Block) []core.WorkOrder {
	wos := make([]core.WorkOrder, len(blocks))
	for i, b := range blocks {
		wos[i] = &repartWO{op: o, b: b, in: blocks[i : i+1 : i+1]}
	}
	return wos
}

// Final runs the partition-skew guard: once every scatter completed, if one
// partition received more than half of all rows, a trace mark is logged and
// a follow-up work order records the PartitionSkew counter (so it flows
// through the normal stats pipeline like every other kernel counter).
func (o *Op) Final(ctx *core.ExecCtx) []core.WorkOrder {
	if o.pr.Parts() <= 1 {
		return nil
	}
	var total, max int64
	for p := range o.rowsPart {
		v := atomic.LoadInt64(&o.rowsPart[p])
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 || 2*max <= total {
		return nil
	}
	o.skewed = true
	ctx.Trace.MarkIn(ctx.TraceRun, trace.MarkPartitionSkew, trace.Event{
		Op: int32(o.self), StartNS: ctx.Trace.Now(), Rows: max, RowsOut: total,
	})
	return []core.WorkOrder{&skewWO{op: o}}
}

// Skewed reports whether the skew guard tripped (valid after the run).
func (o *Op) Skewed() bool { return o.skewed }

// scatterScratch holds the reusable buffers of the scatter kernel: gathered
// key columns, the hash vector, and the partition-grouped row permutation.
type scatterScratch struct {
	k0     []int64
	k1     []int64
	hashes []uint64
	rows   []int32
	counts []int32
	offs   []int32
}

// gather pulls the key columns of b (widening Date columns to int64) and
// hashes them vectorized.
func (sc *scatterScratch) gather(o *Op, b *storage.Block) {
	if o.dateKey[0] {
		sc.k0 = b.GatherDate(o.keyCols[0], sc.k0)
	} else {
		sc.k0 = b.GatherInt64(o.keyCols[0], sc.k0)
	}
	if len(o.keyCols) == 2 {
		if o.dateKey[1] {
			sc.k1 = b.GatherDate(o.keyCols[1], sc.k1)
		} else {
			sc.k1 = b.GatherInt64(o.keyCols[1], sc.k1)
		}
	} else {
		sc.k1 = nil
	}
	sc.hashes = types.HashPairVec(sc.k0, sc.k1, sc.hashes)
}

// repartWO scatters one block's rows into per-partition output streams.
type repartWO struct {
	op *Op
	b  *storage.Block
	in []*storage.Block
}

// Inputs implements core.WorkOrder.
func (w *repartWO) Inputs() []*storage.Block { return w.in }

// Run implements core.WorkOrder: it counting-sorts row indexes by partition
// (one vectorized hash pass, one permutation pass) and bulk-appends each
// partition's run of rows into that partition's emitter.
func (w *repartWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	b := w.b
	n := b.NumRows()
	out.RowsIn = int64(n)
	if ctx.Sim != nil {
		out.Sim += ctx.Sim.ConsumedSeq(b, readBytes(b, o.cols))
	}
	if n == 0 {
		return nil
	}
	// The fault site fires strictly before any partition stream is touched,
	// so a failed attempt needs no operator-state rollback before its retry.
	if err := ctx.FaultAt(faults.Repartition); err != nil {
		return err
	}

	sc, _ := o.scratch.Get().(*scatterScratch)
	if sc != nil {
		out.ScratchHits++
	} else {
		sc = &scatterScratch{}
	}
	sc.gather(o, b)
	parts := o.pr.Parts()
	if cap(sc.rows) < n {
		sc.rows = make([]int32, n)
	}
	sc.rows = sc.rows[:n]
	if cap(sc.counts) < parts {
		sc.counts = make([]int32, parts)
		sc.offs = make([]int32, parts)
	}
	sc.counts = sc.counts[:parts]
	sc.offs = sc.offs[:parts]
	for p := range sc.counts {
		sc.counts[p] = 0
	}
	for _, h := range sc.hashes {
		sc.counts[o.pr.Of(h)]++
	}
	var sum int32
	for p, c := range sc.counts {
		sc.offs[p] = sum
		sum += c
	}
	for r, h := range sc.hashes {
		p := o.pr.Of(h)
		sc.rows[sc.offs[p]] = int32(r)
		sc.offs[p]++
	}
	// Emit each partition's contiguous run of row indexes. Emitter checkouts
	// are interruption points (cancellation, deadline, block-materialize
	// faults): if one fires, the attempt rolls back block-exactly and the
	// shared per-partition row counters below were never touched.
	start := int32(0)
	fan := int64(0)
	for p := 0; p < parts; p++ {
		cnt := sc.counts[p]
		if cnt == 0 {
			continue
		}
		em := core.NewPartEmitter(ctx, out, o.self, p, o.schema)
		em.AppendMany(b, sc.rows[start:start+cnt], o.proj)
		start += cnt
		fan++
	}
	for p := 0; p < parts; p++ {
		if sc.counts[p] > 0 {
			atomic.AddInt64(&o.rowsPart[p], int64(sc.counts[p]))
		}
	}
	out.ExchangeRows += int64(n)
	out.BatchedRows += int64(n)
	out.RepartitionFanout += fan
	o.scratch.Put(sc)
	return nil
}

// skewWO records one skew-guard trip into the stats pipeline.
type skewWO struct{ op *Op }

// Run implements core.WorkOrder.
func (w *skewWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	out.PartitionSkew = 1
	return nil
}

// Inputs implements core.WorkOrder.
func (w *skewWO) Inputs() []*storage.Block { return nil }

// readBytes mirrors exec's cache-model accounting: referenced columns for
// column-store blocks, full tuples for row-store blocks.
func readBytes(b *storage.Block, cols []int) int64 {
	rows := int64(b.NumRows())
	if b.Format() == storage.ColumnStore {
		var w int64
		for _, c := range cols {
			w += int64(b.Schema().ColWidth(c))
		}
		return rows * w
	}
	return rows * int64(b.Schema().RowWidth())
}
