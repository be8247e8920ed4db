package exec

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/aggtable"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/storage"
	"repro/internal/types"
)

// AggFunc is an aggregation function.
type AggFunc uint8

// Aggregation functions.
const (
	Sum AggFunc = iota
	Count
	Avg
	Min
	Max
	// CountDistinct counts distinct Arg values per group (Q16's
	// count(distinct ps_suppkey)).
	CountDistinct
)

var aggNames = [...]string{"sum", "count", "avg", "min", "max", "count_distinct"}

// AggSpec is one aggregate: a function over an argument expression (nil Arg
// means COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr
	Name string
}

// aggParts is the radix merge fan-out: Final issues one merge work order per
// partition of the group-hash space (top aggPartBits hash bits), so partial
// tables merge in parallel with no shared lock.
const (
	aggPartBits = 4
	aggParts    = 1 << aggPartBits
)

// aggPartitioner maps group hashes to merge partitions (shared by Final's
// fan-out and the merge work orders' filters).
var aggPartitioner = types.NewPartitioner(aggParts)

// AggOp is a hash aggregation operator with two execution paths.
//
// The vectorized fast path handles the common TPC-H/SSB shape: at most two
// int64/date group keys, aggregates over numeric arguments (no
// CountDistinct, no char min/max). Work orders gather the key columns
// (storage.Block.GatherInt64/GatherDate), hash them in one vectorized pass
// (types.HashPairVec), and accumulate into a thread-local open-addressing
// aggtable.Table — no string keys, no per-row Datum boxing. Column-ref-only
// aggregate arguments accumulate through columnar kernels over gathered
// vectors; computed arguments fall back to per-row Eval but still write
// fixed-width cells. Partial tables persist across work orders on a
// free-list, and Final fans out one merge work order per radix partition of
// the hash space, so the merge parallelizes across the scheduler's workers
// instead of serializing on an operator mutex.
//
// The reference map path (per-row Eval, serialized group keys, one shared
// map behind a mutex) serves mixed-type keys, CountDistinct, char min/max,
// and ForceReference (the correctness oracle the equivalence tests compare
// against). The choice is made once, in NewAgg, from what the spec shows;
// fast is immutable afterwards.
type AggOp struct {
	core.Base
	self     core.OpID
	name     string
	groupBy  []expr.Expr
	aggs     []AggSpec
	out      *storage.Schema
	readCols []int

	// Reference-path state.
	mu        sync.Mutex
	groups    map[string]*aggGroup
	memBytes  int64 // atomic: approximate live bytes of the aggregation table(s)
	scalarVal types.Datum
	hasScalar bool

	// Fast-path plan: filled by initFastPath when the operator qualifies.
	fast      bool
	partLocal bool
	keyCols   []int
	keyIsDate []bool
	fAggs     []fastAgg

	// Fast-path runtime state: the free-list of thread-local partials. pall
	// tracks every partial ever created (for the merge); pfree holds the
	// ones not currently owned by a running work order.
	pmu   sync.Mutex
	pfree []*aggPartial
	pall  []*aggPartial
}

// fastAgg is the fast path's per-aggregate plan: the aggtable accumulator
// descriptor plus how the argument is loaded (columnar gather of col, or
// per-row Eval of arg; col < 0 and arg == nil for COUNT).
type fastAgg struct {
	desc      aggtable.Agg
	col       int
	colIsDate bool
	arg       expr.Expr
}

// aggPartial is one thread-local partial aggregation state plus its reusable
// scratch vectors. A partial is owned by at most one work order at a time
// (free-list discipline), accumulates across all blocks it sees, and is
// merged once by the Final merge work orders — there is no per-block merge.
type aggPartial struct {
	tab       *aggtable.Table // grouped fast path
	cells     []aggtable.Cell // scalar fast path (no group keys)
	k0        []int64
	k1        []int64
	hashes    []uint64
	groupIdx  []int32
	argI      []int64
	argF      []float64
	lastBytes int64
}

type aggGroup struct {
	keys []types.Datum
	acc  []accCell
}

type accCell struct {
	sumF     float64
	sumI     int64
	count    int64
	minmax   types.Datum
	set      bool
	distinct map[string]struct{} // CountDistinct only
}

// AggOpSpec configures NewAgg.
type AggOpSpec struct {
	Name string
	// InputSchema is the pipelined input's schema.
	InputSchema *storage.Schema
	// GroupBy expressions with names; empty for a scalar aggregate.
	GroupBy      []expr.Expr
	GroupByNames []string
	// Aggs are the aggregates to compute.
	Aggs []AggSpec
	// ForceReference disables the vectorized fast path, keeping the
	// row-at-a-time map path (the equivalence tests' oracle and the micro
	// benchmarks' baseline).
	ForceReference bool
	// PartitionLocal marks a per-partition clone downstream of an exchange:
	// the clone sees only its partition's groups, so Final issues a single
	// merge work order instead of fanning out over the radix partitions —
	// the cross-partition parallelism already comes from the exchange.
	PartitionLocal bool
}

// NewAgg builds an aggregation operator.
func NewAgg(spec AggOpSpec) *AggOp {
	if len(spec.Aggs) == 0 {
		panic("exec: aggregation needs at least one aggregate")
	}
	cols := make([]storage.Column, 0, len(spec.GroupBy)+len(spec.Aggs))
	gb := expr.OutputSchema(spec.GroupBy, spec.GroupByNames)
	for i := range spec.GroupBy {
		cols = append(cols, gb.Col(i))
	}
	for _, a := range spec.Aggs {
		cols = append(cols, storage.Column{Name: a.Name, Type: aggType(a), Width: aggWidth(a)})
	}
	op := &AggOp{
		name:      spec.Name,
		groupBy:   spec.GroupBy,
		aggs:      spec.Aggs,
		out:       storage.NewSchema(cols...),
		groups:    make(map[string]*aggGroup),
		partLocal: spec.PartitionLocal,
	}
	all := append([]expr.Expr{}, spec.GroupBy...)
	for _, a := range spec.Aggs {
		if a.Arg != nil {
			all = append(all, a.Arg)
		}
	}
	op.readCols = expr.PrimaryCols(all...)
	if !spec.ForceReference {
		op.initFastPath()
	}
	return op
}

// initFastPath decides fast-path eligibility and compiles the per-key and
// per-aggregate plans. Requirements: ≤2 group keys, every key a plain
// int64/date column reference, no CountDistinct, no char-typed aggregate
// arguments.
func (o *AggOp) initFastPath() {
	if len(o.groupBy) > 2 {
		return
	}
	keyCols := make([]int, 0, len(o.groupBy))
	keyIsDate := make([]bool, 0, len(o.groupBy))
	for _, g := range o.groupBy {
		c, ok := expr.AsPrimaryColRef(g)
		if !ok || (c.Ty != types.Int64 && c.Ty != types.Date) {
			return
		}
		keyCols = append(keyCols, c.Col)
		keyIsDate = append(keyIsDate, c.Ty == types.Date)
	}
	fAggs := make([]fastAgg, 0, len(o.aggs))
	for _, a := range o.aggs {
		if a.Func == CountDistinct {
			return
		}
		if a.Arg != nil && a.Arg.Type() == types.Char {
			return
		}
		fa := fastAgg{col: -1}
		switch a.Func {
		case Sum:
			fa.desc.Kind = aggtable.Sum
		case Count:
			fa.desc.Kind = aggtable.Count
		case Avg:
			fa.desc.Kind = aggtable.Avg
		case Min:
			fa.desc.Kind = aggtable.Min
		case Max:
			fa.desc.Kind = aggtable.Max
		}
		if a.Func != Count && a.Arg != nil {
			fa.desc.Float = a.Arg.Type() == types.Float64
			if c, ok := expr.AsPrimaryColRef(a.Arg); ok {
				fa.col = c.Col
				fa.colIsDate = c.Ty == types.Date
			} else {
				fa.arg = a.Arg
			}
		}
		fAggs = append(fAggs, fa)
	}
	o.keyCols, o.keyIsDate, o.fAggs = keyCols, keyIsDate, fAggs
	o.fast = true
}

// FastPath reports whether the vectorized path is active (for tests and the
// bench harness).
func (o *AggOp) FastPath() bool { return o.fast }

func aggType(a AggSpec) types.TypeID {
	switch a.Func {
	case Count, CountDistinct:
		return types.Int64
	case Avg:
		return types.Float64
	case Sum:
		if a.Arg.Type() == types.Int64 {
			return types.Int64
		}
		return types.Float64
	default: // Min, Max
		return a.Arg.Type()
	}
}

func aggWidth(a AggSpec) int {
	if (a.Func == Min || a.Func == Max) && a.Arg.Type() == types.Char {
		if c, ok := a.Arg.(*expr.ColRef); ok {
			return c.Width
		}
		return 32
	}
	return 0
}

func (o *AggOp) setID(id core.OpID) { o.self = id }

// Name implements core.Operator.
func (o *AggOp) Name() string { return o.name }

// NumInputs implements core.Operator.
func (o *AggOp) NumInputs() int { return 1 }

// OutSchema returns the result schema: group columns then aggregates.
func (o *AggOp) OutSchema() *storage.Schema { return o.out }

// Feed implements core.Operator.
func (o *AggOp) Feed(_ *core.ExecCtx, _ int, blocks []*storage.Block) []core.WorkOrder {
	wos := make([]core.WorkOrder, len(blocks))
	for i, b := range blocks {
		wos[i] = &aggWO{op: o, block: b}
	}
	return wos
}

// Final implements core.Operator. On the fast path with group keys it fans
// out one merge work order per radix partition, so merging partial tables
// parallelizes across workers; otherwise a single work order emits the
// merged groups.
func (o *AggOp) Final(*core.ExecCtx) []core.WorkOrder {
	if !o.fast {
		return []core.WorkOrder{&aggFinalWO{op: o}}
	}
	if len(o.groupBy) == 0 {
		return []core.WorkOrder{&aggScalarFinalWO{op: o}}
	}
	if o.partLocal {
		// Partition-local clone: a single merge with the identity
		// partitioner (every group maps to partition 0) — the exchange
		// already split the group space across clones.
		return []core.WorkOrder{&aggMergeWO{op: o, part: 0, pr: types.NewPartitioner(1)}}
	}
	wos := make([]core.WorkOrder, aggParts)
	for p := 0; p < aggParts; p++ {
		wos[p] = &aggMergeWO{op: o, part: p, pr: aggPartitioner}
	}
	return wos
}

// ScalarValue implements core.Operator: valid for scalar aggregates after
// the final work order ran.
func (o *AggOp) ScalarValue() (types.Datum, bool) { return o.scalarVal, o.hasScalar }

// Cleanup implements core.Operator.
func (o *AggOp) Cleanup(ctx *core.ExecCtx) {
	if ctx.Run != nil {
		ctx.Run.HashTables.Sub(atomic.LoadInt64(&o.memBytes))
	}
}

// MemBytes returns the approximate aggregation-table footprint.
func (o *AggOp) MemBytes() int64 { return atomic.LoadInt64(&o.memBytes) }

// getPartial hands out a free partial, creating one if none is available.
// One free-list lock acquisition per block, amortized like PR1's shard
// locks.
func (o *AggOp) getPartial(out *core.Output) *aggPartial {
	o.pmu.Lock()
	if n := len(o.pfree); n > 0 {
		p := o.pfree[n-1]
		o.pfree = o.pfree[:n-1]
		o.pmu.Unlock()
		out.ScratchHits++
		return p
	}
	p := &aggPartial{}
	o.pall = append(o.pall, p)
	o.pmu.Unlock()
	out.AggPartials++
	return p
}

func (o *AggOp) putPartial(p *aggPartial) {
	o.pmu.Lock()
	o.pfree = append(o.pfree, p)
	o.pmu.Unlock()
}

type aggWO struct {
	op    *AggOp
	block *storage.Block
}

func (w *aggWO) Inputs() []*storage.Block { return []*storage.Block{w.block} }

func (w *aggWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	b := w.block
	n := b.NumRows()
	out.RowsIn = int64(n)
	if ctx.Sim != nil {
		out.Sim += ctx.Sim.ConsumedSeq(b, readBytes(b, o.readCols))
	}
	if o.fast {
		// The fault site fires before the partial is checked out, so a
		// faulted attempt touches no accumulator state: the scheduler rolls
		// it back and retries it.
		if err := ctx.FaultAt(faults.AggUpsert); err != nil {
			return err
		}
		if len(o.keyCols) > 0 {
			o.runFast(ctx, b, out)
		} else {
			o.runScalarFast(ctx, b, out)
		}
	} else {
		o.runRef(ctx, b, out)
	}
	if ctx.Sim != nil {
		out.Sim += ctx.Sim.RandomProbes(int64(n), atomic.LoadInt64(&o.memBytes)+1)
	}
	return nil
}

// gatherKey loads a group-key or integer-argument column as int64s, widening
// 4-byte date columns.
func gatherKey(b *storage.Block, col int, isDate bool, dst []int64) []int64 {
	if isDate {
		return b.GatherDate(col, dst)
	}
	return b.GatherInt64(col, dst)
}

// runFast is the vectorized grouped path: gather + hash the key columns once
// per block, map rows to dense group indexes in the thread-local partial
// table, then fold each aggregate column with a columnar kernel.
func (o *AggOp) runFast(ctx *core.ExecCtx, b *storage.Block, out *core.Output) {
	n := b.NumRows()
	if n == 0 {
		return
	}
	p := o.getPartial(out)
	p.k0 = gatherKey(b, o.keyCols[0], o.keyIsDate[0], p.k0)
	var k1 []int64
	if len(o.keyCols) == 2 {
		p.k1 = gatherKey(b, o.keyCols[1], o.keyIsDate[1], p.k1)
		k1 = p.k1
	}
	p.hashes = types.HashPairVec(p.k0, k1, p.hashes)
	if p.tab == nil {
		p.tab = aggtable.New(len(o.aggs), len(o.keyCols) == 2, 256)
	}
	p.groupIdx = p.tab.UpsertBlock(p.k0, k1, p.hashes, p.groupIdx)
	for j, fa := range o.fAggs {
		switch {
		case fa.desc.Kind == aggtable.Count:
			p.tab.AccumCount(j, p.groupIdx)
		case fa.col >= 0 && !fa.desc.Float:
			p.argI = gatherKey(b, fa.col, fa.colIsDate, p.argI)
			p.tab.AccumInt(j, fa.desc, p.groupIdx, p.argI)
		case fa.col >= 0:
			p.argF = b.GatherFloat64(fa.col, p.argF)
			p.tab.AccumFloat(j, fa.desc, p.groupIdx, p.argF)
		default: // computed argument: per-row Eval into fixed-width cells
			ec := expr.Ctx{B: b, Scalars: ctx.Scalars}
			for r := 0; r < n; r++ {
				ec.Row = r
				v := fa.arg.Eval(&ec)
				c := p.tab.CellAt(p.groupIdx[r], j)
				if fa.desc.Float {
					aggtable.UpdateFloat(c, fa.desc, v.F)
				} else {
					aggtable.UpdateInt(c, fa.desc, v.I)
				}
			}
		}
	}
	o.accountGrowth(ctx, p, p.tab.Bytes())
	o.putPartial(p)
	out.AggFastRows += int64(n)
	out.BatchedRows += int64(n)
}

// runScalarFast is the vectorized scalar path (no group keys): one cell row
// per partial, columnar folds, no hash table at all.
func (o *AggOp) runScalarFast(ctx *core.ExecCtx, b *storage.Block, out *core.Output) {
	n := b.NumRows()
	if n == 0 {
		return
	}
	p := o.getPartial(out)
	if p.cells == nil {
		p.cells = make([]aggtable.Cell, len(o.aggs))
		o.accountGrowth(ctx, p, int64(len(o.aggs))*64)
	}
	for j, fa := range o.fAggs {
		c := &p.cells[j]
		switch {
		case fa.desc.Kind == aggtable.Count:
			c.Count += int64(n)
		case fa.col >= 0 && !fa.desc.Float:
			p.argI = gatherKey(b, fa.col, fa.colIsDate, p.argI)
			for _, v := range p.argI {
				aggtable.UpdateInt(c, fa.desc, v)
			}
		case fa.col >= 0:
			p.argF = b.GatherFloat64(fa.col, p.argF)
			for _, v := range p.argF {
				aggtable.UpdateFloat(c, fa.desc, v)
			}
		default:
			ec := expr.Ctx{B: b, Scalars: ctx.Scalars}
			for r := 0; r < n; r++ {
				ec.Row = r
				v := fa.arg.Eval(&ec)
				if fa.desc.Float {
					aggtable.UpdateFloat(c, fa.desc, v.F)
				} else {
					aggtable.UpdateInt(c, fa.desc, v.I)
				}
			}
		}
	}
	o.putPartial(p)
	out.AggFastRows += int64(n)
	out.BatchedRows += int64(n)
}

// accountGrowth records a partial's footprint growth in the operator gauge
// and the run's hash-table memory class.
func (o *AggOp) accountGrowth(ctx *core.ExecCtx, p *aggPartial, nowBytes int64) {
	d := nowBytes - p.lastBytes
	if d == 0 {
		return
	}
	p.lastBytes = nowBytes
	atomic.AddInt64(&o.memBytes, d)
	if ctx.Run != nil {
		ctx.Run.HashTables.Add(d)
	}
}

// runRef is the row-at-a-time reference path: per-row Eval into a
// local map keyed by serialized group keys, merged into the shared map under
// the operator mutex. The group-key Datum slice is hoisted out of the row
// loop and CountDistinct serializes into a reusable scratch buffer, so the
// per-row allocations are the map entries themselves.
func (o *AggOp) runRef(ctx *core.ExecCtx, b *storage.Block, out *core.Output) {
	n := b.NumRows()
	local := make(map[string]*aggGroup)
	ec := expr.Ctx{B: b, Scalars: ctx.Scalars}
	var keyBuf, distBuf []byte
	keys := make([]types.Datum, len(o.groupBy))
	for r := 0; r < n; r++ {
		ec.Row = r
		keyBuf = keyBuf[:0]
		for i, g := range o.groupBy {
			keys[i] = g.Eval(&ec)
			keyBuf = appendKey(keyBuf, keys[i])
		}
		g := local[string(keyBuf)]
		if g == nil {
			g = &aggGroup{keys: copyDatums(keys), acc: make([]accCell, len(o.aggs))}
			local[string(keyBuf)] = g
		}
		for i, a := range o.aggs {
			cell := &g.acc[i]
			cell.count++
			if a.Arg == nil {
				continue
			}
			v := a.Arg.Eval(&ec)
			switch a.Func {
			case Sum, Avg:
				cell.sumF += v.Float()
				cell.sumI += v.I
			case CountDistinct:
				if cell.distinct == nil {
					cell.distinct = make(map[string]struct{})
				}
				distBuf = appendKey(distBuf[:0], v)
				if _, ok := cell.distinct[string(distBuf)]; !ok {
					cell.distinct[string(distBuf)] = struct{}{}
				}
			case Min:
				if !cell.set || types.Compare(v, cell.minmax) < 0 {
					cell.minmax = copyDatum(v)
					cell.set = true
				}
			case Max:
				if !cell.set || types.Compare(v, cell.minmax) > 0 {
					cell.minmax = copyDatum(v)
					cell.set = true
				}
			}
		}
	}
	o.merge(ctx, local)
	out.AggFallbackRows += int64(n)
}

// datumBytes approximates a datum's in-memory footprint: the struct itself
// plus any out-of-line char bytes.
func datumBytes(d types.Datum) int64 {
	const header = 48 // Datum struct: tag + int64 + float64 + slice header
	if d.Ty == types.Char {
		return header + int64(len(d.B))
	}
	return header
}

func (o *AggOp) merge(ctx *core.ExecCtx, local map[string]*aggGroup) {
	var grew int64
	o.mu.Lock()
	for k, g := range local {
		tgt := o.groups[k]
		if tgt == nil {
			o.groups[k] = g
			grew += int64(len(k)) + int64(len(g.acc))*48 + 48
			for i := range g.keys {
				grew += datumBytes(g.keys[i])
			}
			for i := range g.acc {
				if d := g.acc[i].distinct; d != nil {
					grew += int64(len(d)) * 24
				}
			}
			continue
		}
		for i := range g.acc {
			src, dst := &g.acc[i], &tgt.acc[i]
			dst.count += src.count
			dst.sumF += src.sumF
			dst.sumI += src.sumI
			if src.distinct != nil {
				if dst.distinct == nil {
					dst.distinct = src.distinct
					grew += int64(len(src.distinct)) * 24
				} else {
					before := len(dst.distinct)
					for k := range src.distinct {
						dst.distinct[k] = struct{}{}
					}
					grew += int64(len(dst.distinct)-before) * 24
				}
			}
			if src.set {
				f := o.aggs[i].Func
				if !dst.set || (f == Min && types.Compare(src.minmax, dst.minmax) < 0) ||
					(f == Max && types.Compare(src.minmax, dst.minmax) > 0) {
					dst.minmax = src.minmax
					dst.set = true
				}
			}
		}
	}
	o.mu.Unlock()
	if grew != 0 {
		atomic.AddInt64(&o.memBytes, grew)
		if ctx.Run != nil {
			ctx.Run.HashTables.Add(grew)
		}
	}
}

// aggMergeWO merges one radix partition of every partial table and emits its
// groups. Partitions are disjoint, so the scheduler runs the aggParts merge
// work orders concurrently with no locking.
type aggMergeWO struct {
	op   *AggOp
	part int
	pr   types.Partitioner
}

func (w *aggMergeWO) Inputs() []*storage.Block { return nil }

func (w *aggMergeWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	out.AggMergeFanout++
	var tabs []*aggtable.Table
	var groupsHint int
	for _, p := range o.pall {
		if p.tab != nil && p.tab.Len() > 0 {
			tabs = append(tabs, p.tab)
			groupsHint += p.tab.Len()
		}
	}
	if len(tabs) == 0 {
		return nil
	}
	em := core.NewEmitter(ctx, out, o.self, o.out)
	descs := make([]aggtable.Agg, len(o.fAggs))
	for j, fa := range o.fAggs {
		descs[j] = fa.desc
	}
	row := make([]types.Datum, o.out.NumCols())
	if len(tabs) == 1 {
		// Single partial (one worker, or one busy one): emit its partition
		// directly without building a merge table.
		t := tabs[0]
		for g := 0; g < t.Len(); g++ {
			if w.pr.Of(t.Hash(g)) == w.part {
				o.emitFastGroup(em, out, t, g, row)
			}
		}
		return nil
	}
	dst := aggtable.New(len(o.aggs), len(o.keyCols) == 2, groupsHint/w.pr.Parts()+16)
	for _, t := range tabs {
		dst.MergePartition(t, w.part, w.pr, descs)
	}
	for g := 0; g < dst.Len(); g++ {
		o.emitFastGroup(em, out, dst, g, row)
	}
	return nil
}

// emitFastGroup materializes one merged group as an output row into the
// caller's reused row buffer.
func (o *AggOp) emitFastGroup(em *core.Emitter, out *core.Output, t *aggtable.Table, g int, row []types.Datum) {
	k0, k1 := t.Key(g)
	row[0] = o.keyDatum(0, k0)
	nk := 1
	if len(o.keyCols) == 2 {
		row[1] = o.keyDatum(1, k1)
		nk = 2
	}
	for j := range o.aggs {
		row[nk+j] = finishFastCell(o.aggs[j], t.CellAt(int32(g), j))
	}
	em.AppendRow(row...)
	out.RowsIn++
}

// keyDatum rebuilds group key i from its widened int64 representation.
func (o *AggOp) keyDatum(i int, k int64) types.Datum {
	if o.keyIsDate[i] {
		return types.NewDate(int32(k))
	}
	return types.NewInt64(k)
}

// aggScalarFinalWO merges the scalar partials' cells and emits the single
// result row (SQL: a scalar aggregate over empty input still yields one
// row).
type aggScalarFinalWO struct{ op *AggOp }

func (w *aggScalarFinalWO) Inputs() []*storage.Block { return nil }

func (w *aggScalarFinalWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	cells := make([]aggtable.Cell, len(o.aggs))
	for _, p := range o.pall {
		if p.cells == nil {
			continue
		}
		for j := range cells {
			aggtable.MergeCell(&cells[j], &p.cells[j], o.fAggs[j].desc)
		}
	}
	em := core.NewEmitter(ctx, out, o.self, o.out)
	row := make([]types.Datum, len(o.aggs))
	for j := range o.aggs {
		row[j] = finishFastCell(o.aggs[j], &cells[j])
	}
	em.AppendRow(row...)
	out.RowsIn++
	o.scalarVal = row[0]
	o.hasScalar = true
	return nil
}

// finishFastCell converts a fixed-width accumulator into the result datum,
// mirroring finishCell on the reference path.
func finishFastCell(a AggSpec, c *aggtable.Cell) types.Datum {
	switch a.Func {
	case Count:
		return types.NewInt64(c.Count)
	case Avg:
		if c.Count == 0 {
			return types.NewFloat64(0)
		}
		return types.NewFloat64(c.SumF / float64(c.Count))
	case Sum:
		if a.Arg.Type() == types.Int64 {
			return types.NewInt64(c.SumI)
		}
		return types.NewFloat64(c.SumF)
	default: // Min, Max
		if !c.Set {
			return types.Datum{Ty: a.Arg.Type()}
		}
		if a.Arg.Type() == types.Float64 {
			return types.NewFloat64(c.MMF)
		}
		return types.Datum{Ty: a.Arg.Type(), I: c.MMI}
	}
}

type aggFinalWO struct{ op *AggOp }

func (w *aggFinalWO) Inputs() []*storage.Block { return nil }

func (w *aggFinalWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	if len(o.groupBy) == 0 && len(o.groups) == 0 {
		// SQL: a scalar aggregate over empty input yields one row. (The
		// insert is idempotent, so an attempt aborted mid-emit retries
		// cleanly.)
		o.groups[""] = &aggGroup{acc: make([]accCell, len(o.aggs))}
	}
	em := core.NewEmitter(ctx, out, o.self, o.out)
	row := make([]types.Datum, o.out.NumCols())
	for _, g := range o.groups {
		copy(row, g.keys)
		for i, a := range o.aggs {
			row[len(g.keys)+i] = finishCell(a, &g.acc[i])
		}
		em.AppendRow(row...)
		out.RowsIn++
	}
	if len(o.groupBy) == 0 {
		for g := range o.groups {
			o.scalarVal = finishCell(o.aggs[0], &o.groups[g].acc[0])
			o.hasScalar = true
		}
	}
	return nil
}

func finishCell(a AggSpec, c *accCell) types.Datum {
	switch a.Func {
	case Count:
		return types.NewInt64(c.count)
	case CountDistinct:
		return types.NewInt64(int64(len(c.distinct)))
	case Avg:
		if c.count == 0 {
			return types.NewFloat64(0)
		}
		return types.NewFloat64(c.sumF / float64(c.count))
	case Sum:
		if a.Arg.Type() == types.Int64 {
			return types.NewInt64(c.sumI)
		}
		return types.NewFloat64(c.sumF)
	default: // Min, Max
		if !c.set {
			return types.Datum{Ty: a.Arg.Type()}
		}
		return c.minmax
	}
}

// appendKey serializes a datum into a group key, preserving equality.
func appendKey(buf []byte, d types.Datum) []byte {
	switch d.Ty {
	case types.Char:
		b := types.TrimPad(d.B)
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(b)))
		buf = append(buf, 'c')
		buf = append(buf, l[:]...)
		return append(buf, b...)
	case types.Float64:
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], uint64(int64(d.F*1e6))) // exact for TPC-H decimals
		buf = append(buf, 'f')
		return append(buf, v[:]...)
	default:
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], uint64(d.I))
		buf = append(buf, 'i')
		return append(buf, v[:]...)
	}
}

func copyDatum(d types.Datum) types.Datum {
	if d.Ty == types.Char {
		b := make([]byte, len(d.B))
		copy(b, d.B)
		d.B = b
	}
	return d
}

func copyDatums(ds []types.Datum) []types.Datum {
	out := make([]types.Datum, len(ds))
	for i, d := range ds {
		out[i] = copyDatum(d)
	}
	return out
}

// String renders the operator.
func (o *AggOp) String() string {
	return fmt.Sprintf("agg(%s,%d groups,%d aggs)", o.name, len(o.groupBy), len(o.aggs))
}

// FuncName returns the display name of an aggregate function.
func (f AggFunc) String() string { return aggNames[f] }
