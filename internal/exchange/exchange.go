// Package exchange implements a hash-partitioning scatter kernel: it splits
// one block stream into P per-partition block streams, rows with equal keys
// always landing in the same partition.
//
// It is not a plan operator. No plan builder wires it in, and the scheduler
// routes every sealed block to every pipelined out-edge, so nothing downstream
// could consume a partition on its own. The kernel is kept only because the
// fixed benchmark times it as exchange.repartition_ns; it is deleted together
// with that metric the next time the benchmark itself changes.
package exchange

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/storage"
	"repro/internal/types"
)

// maxParts bounds the fan-out; it also spaces the per-partition pool owner
// keys of different exchanges apart.
const maxParts = 1 << 10

// Spec configures an exchange.
type Spec struct {
	// Name labels the exchange for the caller; the kernel does not read it.
	Name string
	// InputSchema is the schema of fed blocks; output blocks pass every
	// column through unchanged.
	InputSchema *storage.Schema
	// KeyCols are the 1 or 2 partitioning key columns (Int64 or Date).
	KeyCols []int
	// Partitions is the requested fan-out; it is rounded up to a power of
	// two and clamped to [1, maxParts].
	Partitions int
}

// Op hash-partitions its input blocks by key into P output streams via
// Repartition work orders.
type Op struct {
	core.Base
	self    core.OpID
	schema  *storage.Schema
	keyCols []int
	dateKey []bool
	pr      types.Partitioner
	proj    []int // identity projection: pass all columns through
	cols    []int // all column indexes, for cache-model read accounting

	scratch sync.Pool // *scatterScratch
}

// New returns an exchange for spec. It panics on invalid specs (caller
// bugs): no key columns, more than two, or a key column that is neither Int64
// nor Date.
func New(spec Spec) *Op {
	if len(spec.KeyCols) < 1 || len(spec.KeyCols) > 2 {
		panic(fmt.Sprintf("exchange: %d key columns (want 1 or 2)", len(spec.KeyCols)))
	}
	o := &Op{
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
	if parts > maxParts {
		parts = maxParts
	}
	o.pr = types.NewPartitioner(parts)
	o.proj = make([]int, spec.InputSchema.NumCols())
	for i := range o.proj {
		o.proj[i] = i
	}
	o.cols = o.proj
	return o
}

// SetID sets the ID the exchange's pool owner keys derive from.
func (o *Op) SetID(id core.OpID) { o.self = id }

// owner is the temp-block pool key partition part's partial blocks live
// under. Keys are negative, so they never collide with plan operator IDs.
func (o *Op) owner(part int) core.OpID {
	return core.OpID(-1 - int(o.self)*maxParts - part)
}

// Feed returns one Repartition work order per block, so the scatter
// parallelizes like any other block-granular kernel.
func (o *Op) Feed(ctx *core.ExecCtx, input int, blocks []*storage.Block) []core.WorkOrder {
	wos := make([]core.WorkOrder, len(blocks))
	for i, b := range blocks {
		wos[i] = &repartWO{op: o, b: b, in: blocks[i : i+1 : i+1]}
	}
	return wos
}

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
	// faults): if one fires, the attempt rolls back block-exactly.
	start := int32(0)
	for p := 0; p < parts; p++ {
		cnt := sc.counts[p]
		if cnt == 0 {
			continue
		}
		em := core.NewEmitter(ctx, out, o.owner(p), o.schema)
		em.AppendMany(b, sc.rows[start:start+cnt], o.proj)
		start += cnt
	}
	out.BatchedRows += int64(n)
	o.scratch.Put(sc)
	return nil
}

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
