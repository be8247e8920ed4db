package exec

import (
	"encoding/binary"
	"fmt"
	"math"
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

// AggOp is a hash aggregation operator. Every spec runs one pipeline: each
// work order checks a thread-local partial out of a free-list, resolves the
// block's rows to dense group ids in the partial's aggtable.Table, and folds
// each aggregate's argument vector into the table's fixed-width cells with a
// columnar kernel — no per-row map lookups, no Datum-boxed accumulators.
// Partials persist across work orders, and Final fans out one merge work
// order per radix partition of the group-hash space, so the merge
// parallelizes across the scheduler's workers instead of serializing on an
// operator mutex.
//
// Only group-id resolution varies, and NewAgg picks it once from the key
// types: no keys (every row is group 0), at most two keys of 8-byte types
// (int64, date, float64 by canonical bits — gathered columns or computed
// expressions evaluated into the key vectors, hashed in one vectorized pass
// into the table's inline keys), or anything else (char keys, three or more
// keys: the key tuple serialized by appendKey into the table's byte arena).
// Argument loading is likewise compiled per aggregate: a columnar gather for
// plain column references, a per-row Eval into the same vectors otherwise;
// char min/max and CountDistinct fold per row into the table's side array.
type AggOp struct {
	core.Base
	self     core.OpID
	name     string
	groupBy  []expr.Expr
	aggs     []AggSpec
	out      *storage.Schema
	readCols []int

	memBytes  int64 // atomic: approximate live bytes of the partial tables
	scalarVal types.Datum
	hasScalar bool

	// Plan, compiled by NewAgg.
	keys  aggKeys
	args  []aggArg
	descs []aggtable.Agg  // args' accumulator descriptors, for merges
	proto *aggtable.Table // empty table of the plan's layout; partials and merges clone it

	// Runtime state: the free-list of thread-local partials. pall tracks
	// every partial ever created (for the merge); pfree holds the ones not
	// currently owned by a running work order.
	pmu   sync.Mutex
	pfree []*aggPartial
	pall  []*aggPartial
}

// aggKeys is the group-id resolver NewAgg picked: how a block's rows map to
// dense group ids in a partial's table, and how a group's key datums are
// rebuilt from the table at emission.
type aggKeys interface {
	// groupIDs fills p.groupIdx with the dense group id of each of the n
	// rows of ec.B, creating groups in p.tab as needed.
	groupIDs(ec *expr.Ctx, p *aggPartial, n int)
	// datums writes group g's key values into row[:number of keys].
	datums(t *aggtable.Table, g int, row []types.Datum)
}

// vecSrc loads one 8-byte value per row of a block into a vector: a columnar
// gather when the expression is a plain column reference (col >= 0), a
// per-row Eval otherwise. The aggregation keys and arguments and the sort
// terms all load through it.
type vecSrc struct {
	e   expr.Expr
	col int
	ty  types.TypeID
}

// sized returns s with length n, reusing its backing array when it is large
// enough. Callers overwrite every element.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func newVecSrc(e expr.Expr) vecSrc {
	s := vecSrc{e: e, col: -1, ty: e.Type()}
	if c, ok := expr.AsPrimaryColRef(e); ok {
		s.col = c.Col
	}
	return s
}

// ints loads an int64 or (widened) date expression.
func (s vecSrc) ints(ec *expr.Ctx, n int, dst []int64) []int64 {
	switch {
	case s.col < 0:
		dst = sized(dst, n)
		for r := range dst {
			ec.Row = r
			dst[r] = s.e.Eval(ec).I
		}
		return dst
	case s.ty == types.Date:
		return ec.B.GatherDate(s.col, dst)
	default:
		return ec.B.GatherInt64(s.col, dst)
	}
}

// floats loads a float64 expression.
func (s vecSrc) floats(ec *expr.Ctx, n int, dst []float64) []float64 {
	if s.col >= 0 {
		return ec.B.GatherFloat64(s.col, dst)
	}
	dst = sized(dst, n)
	for r := range dst {
		ec.Row = r
		dst[r] = s.e.Eval(ec).F
	}
	return dst
}

// aggLoad is how one aggregate's argument reaches its accumulator.
type aggLoad uint8

const (
	loadNone     aggLoad = iota // COUNT: no argument to read
	loadInt                     // int64/date vector → AccumInt
	loadFloat                   // float64 vector → AccumFloat
	loadBytes                   // char min/max: per-row Eval → UpdateBytes
	loadDistinct                // CountDistinct: per-row Eval → AddDistinct
)

// aggArg is one aggregate's plan: the accumulator descriptor and how the
// argument is loaded.
type aggArg struct {
	desc aggtable.Agg
	load aggLoad
	src  vecSrc
}

// aggPartial is one thread-local partial aggregation state plus its reusable
// scratch vectors. A partial is owned by at most one work order at a time
// (free-list discipline), accumulates across all blocks it sees, and is
// merged once by the Final merge work orders — there is no per-block merge.
type aggPartial struct {
	tab       *aggtable.Table
	k0        []int64
	k1        []int64
	keyBuf    []byte // one serialized key tuple or distinct value
	hashes    []uint64
	groupIdx  []int32
	argI      []int64
	argF      []float64
	lastBytes int64
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
}

// NewAgg builds an aggregation operator. It is the only place that looks at
// key and argument types: it picks the group-id resolver with its table
// layout, and compiles each aggregate's descriptor and argument loader.
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
		name:    spec.Name,
		groupBy: spec.GroupBy,
		aggs:    spec.Aggs,
		out:     storage.NewSchema(cols...),
	}
	all := append([]expr.Expr{}, spec.GroupBy...)
	for _, a := range spec.Aggs {
		if a.Arg != nil {
			all = append(all, a.Arg)
		}
	}
	op.readCols = expr.PrimaryCols(all...)

	tys := make([]types.TypeID, len(spec.GroupBy))
	wide := len(tys) > 2
	for i, g := range spec.GroupBy {
		tys[i] = g.Type()
		wide = wide || tys[i] == types.Char
	}
	switch {
	case len(tys) == 0:
		op.keys, op.proto = scalarKeys{}, aggtable.New(len(spec.Aggs), false, 1)
	case wide:
		op.keys, op.proto = byteKeys{exprs: spec.GroupBy, tys: tys}, aggtable.NewBytes(len(spec.Aggs), 1)
	default:
		var ik inlineKeys
		for _, g := range spec.GroupBy {
			ik.src = append(ik.src, newVecSrc(g))
		}
		op.keys, op.proto = ik, aggtable.New(len(spec.Aggs), len(tys) == 2, 1)
	}

	kinds := [...]aggtable.Kind{Sum: aggtable.Sum, Count: aggtable.Count, Avg: aggtable.Avg,
		Min: aggtable.Min, Max: aggtable.Max, CountDistinct: aggtable.CountDistinct}
	for _, a := range spec.Aggs {
		arg := aggArg{desc: aggtable.Agg{Kind: kinds[a.Func]}}
		switch {
		case a.Func == Count || a.Arg == nil:
		case a.Func == CountDistinct:
			arg.load = loadDistinct
		case a.Arg.Type() == types.Char:
			arg.load, arg.desc.Bytes = loadBytes, true
		case a.Arg.Type() == types.Float64:
			arg.load, arg.desc.Float = loadFloat, true
		default:
			arg.load = loadInt
		}
		if arg.load != loadNone {
			arg.src = newVecSrc(a.Arg)
		}
		if arg.load == loadBytes || arg.load == loadDistinct {
			op.proto.WithSide()
		}
		op.args = append(op.args, arg)
		op.descs = append(op.descs, arg.desc)
	}
	return op
}

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

// Final implements core.Operator: it fans out one merge work order per radix
// partition, so merging partial tables parallelizes across workers. A scalar
// aggregate has one group, so it merges in a single work order under the
// identity partitioner.
func (o *AggOp) Final(*core.ExecCtx) []core.WorkOrder {
	if len(o.groupBy) == 0 {
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

// Run resolves the block's rows to dense group ids in a thread-local partial
// table, then folds each aggregate's argument vector with a columnar kernel.
func (w *aggWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	b := w.block
	n := b.NumRows()
	out.RowsIn = int64(n)
	if ctx.Sim != nil {
		out.Sim += ctx.Sim.ConsumedSeq(b, readBytes(b, o.readCols))
	}
	// The fault site fires before the partial is checked out, so a faulted
	// attempt touches no accumulator state: the scheduler rolls it back and
	// retries it.
	if err := ctx.FaultAt(faults.AggUpsert); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	p := o.getPartial(out)
	if p.tab == nil {
		p.tab = o.proto.NewLike(256)
	}
	ec := expr.Ctx{B: b, Scalars: ctx.Scalars}
	o.keys.groupIDs(&ec, p, n)
	for j, a := range o.args {
		switch a.load {
		case loadNone:
			p.tab.AccumCount(j, p.groupIdx)
		case loadInt:
			p.argI = a.src.ints(&ec, n, p.argI)
			p.tab.AccumInt(j, a.desc, p.groupIdx, p.argI)
		case loadFloat:
			p.argF = a.src.floats(&ec, n, p.argF)
			p.tab.AccumFloat(j, a.desc, p.groupIdx, p.argF)
		case loadBytes:
			for r, g := range p.groupIdx {
				ec.Row = r
				p.tab.UpdateBytes(g, j, a.desc, a.src.e.Eval(&ec).Bytes())
			}
		case loadDistinct:
			for r, g := range p.groupIdx {
				ec.Row = r
				p.keyBuf = appendKey(p.keyBuf[:0], a.src.e.Eval(&ec))
				p.tab.AddDistinct(g, j, p.keyBuf)
			}
		}
	}
	o.accountGrowth(ctx, p, p.tab.Bytes())
	o.putPartial(p)
	out.AggFastRows += int64(n)
	out.BatchedRows += int64(n)
	if ctx.Sim != nil {
		out.Sim += ctx.Sim.RandomProbes(int64(n), atomic.LoadInt64(&o.memBytes)+1)
	}
	return nil
}

// scalarKeys resolves a scalar aggregate: every row belongs to group 0.
type scalarKeys struct{}

// seedScalarGroup creates the single group of a scalar aggregate's table.
func seedScalarGroup(t *aggtable.Table) { t.UpsertBlock([]int64{0}, nil, []uint64{1}, nil) }

func (scalarKeys) groupIDs(_ *expr.Ctx, p *aggPartial, n int) {
	if p.tab.Len() == 0 {
		seedScalarGroup(p.tab)
	}
	// Nothing ever writes a non-zero id into a scalar partial's vector.
	p.groupIdx = sized(p.groupIdx, n)
}

func (scalarKeys) datums(*aggtable.Table, int, []types.Datum) {}

// inlineKeys resolves one or two keys of 8-byte types: load each key's words
// into a vector, hash them in one vectorized pass, and upsert into the
// table's inline keys.
type inlineKeys struct{ src []vecSrc }

// words loads key i's 8-byte identities: the value of an int64 or date, the
// canonical bits of a float64.
func (k inlineKeys) words(i int, ec *expr.Ctx, p *aggPartial, n int, dst []int64) []int64 {
	if k.src[i].ty != types.Float64 {
		return k.src[i].ints(ec, n, dst)
	}
	p.argF = k.src[i].floats(ec, n, p.argF)
	dst = sized(dst, n)
	for r, f := range p.argF {
		dst[r] = int64(floatKeyBits(f))
	}
	return dst
}

func (k inlineKeys) groupIDs(ec *expr.Ctx, p *aggPartial, n int) {
	p.k0 = k.words(0, ec, p, n, p.k0)
	var k1 []int64
	if len(k.src) == 2 {
		p.k1 = k.words(1, ec, p, n, p.k1)
		k1 = p.k1
	}
	p.hashes = types.HashPairVec(p.k0, k1, p.hashes)
	p.groupIdx = p.tab.UpsertBlock(p.k0, k1, p.hashes, p.groupIdx)
}

func (k inlineKeys) datums(t *aggtable.Table, g int, row []types.Datum) {
	k0, k1 := t.Key(g)
	row[0] = wordDatum(k.src[0].ty, uint64(k0))
	if len(k.src) == 2 {
		row[1] = wordDatum(k.src[1].ty, uint64(k1))
	}
}

// wordDatum rebuilds a key datum of an 8-byte type from its identity word.
func wordDatum(ty types.TypeID, w uint64) types.Datum {
	if ty == types.Float64 {
		return types.NewFloat64(math.Float64frombits(w))
	}
	return types.Datum{Ty: ty, I: int64(w)}
}

// byteKeys resolves every other key shape (char keys, three or more keys):
// each row's key tuple is serialized by appendKey and upserted into the
// table's byte arena.
type byteKeys struct {
	exprs []expr.Expr
	tys   []types.TypeID
}

func (k byteKeys) groupIDs(ec *expr.Ctx, p *aggPartial, n int) {
	p.groupIdx = sized(p.groupIdx, n)
	for r := range p.groupIdx {
		ec.Row = r
		p.keyBuf = p.keyBuf[:0]
		for _, g := range k.exprs {
			p.keyBuf = appendKey(p.keyBuf, g.Eval(ec))
		}
		h := types.HashBytes(p.keyBuf)
		if h == 0 {
			h = 1 // 0 marks an empty slot
		}
		p.groupIdx[r] = p.tab.UpsertBytes(h, p.keyBuf)
	}
}

// datums decodes appendKey's encoding back into key values. Char values
// alias the table's arena, which is stable once merging is done.
func (k byteKeys) datums(t *aggtable.Table, g int, row []types.Datum) {
	buf := t.KeyBytes(g)
	for i, ty := range k.tys {
		if ty == types.Char {
			n := int(binary.LittleEndian.Uint32(buf[1:]))
			row[i] = types.NewChar(buf[5 : 5+n])
			buf = buf[5+n:]
			continue
		}
		row[i] = wordDatum(ty, binary.LittleEndian.Uint64(buf[1:]))
		buf = buf[9:]
	}
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
		if p.tab != nil {
			tabs = append(tabs, p.tab)
			groupsHint += p.tab.Len()
		}
	}
	if len(tabs) == 0 {
		if len(o.groupBy) > 0 {
			return nil
		}
		// SQL: a scalar aggregate over empty input still yields one row.
		t := o.proto.NewLike(1)
		seedScalarGroup(t)
		tabs = append(tabs, t)
	}
	em := core.NewEmitter(ctx, out, o.self, o.out)
	row := make([]types.Datum, o.out.NumCols())
	if len(tabs) == 1 {
		// Single partial (one worker, or one busy one): emit its partition
		// directly without building a merge table.
		t := tabs[0]
		for g := 0; g < t.Len(); g++ {
			if w.pr.Of(t.Hash(g)) == w.part {
				o.emitGroup(em, out, t, g, row)
			}
		}
		return nil
	}
	dst := o.proto.NewLike(groupsHint/w.pr.Parts() + 16)
	for _, t := range tabs {
		dst.MergePartition(t, w.part, w.pr, o.descs)
	}
	for g := 0; g < dst.Len(); g++ {
		o.emitGroup(em, out, dst, g, row)
	}
	return nil
}

// emitGroup materializes one merged group as an output row into the caller's
// reused row buffer; a scalar aggregate also publishes its first value.
func (o *AggOp) emitGroup(em *core.Emitter, out *core.Output, t *aggtable.Table, g int, row []types.Datum) {
	o.keys.datums(t, g, row)
	nk := len(o.groupBy)
	for j, a := range o.args {
		row[nk+j] = finishCell(o.out.Col(nk+j).Type, a, t, int32(g), j)
	}
	em.AppendRow(row...)
	out.RowsIn++
	if nk == 0 {
		o.scalarVal, o.hasScalar = row[0], true
	}
}

// finishCell converts group g's accumulator j into the result datum of the
// output column's type ty.
func finishCell(ty types.TypeID, a aggArg, t *aggtable.Table, g int32, j int) types.Datum {
	c := t.CellAt(g, j)
	switch a.desc.Kind {
	case aggtable.Count:
		return types.NewInt64(c.Count)
	case aggtable.CountDistinct:
		return types.NewInt64(int64(len(t.SideAt(g, j).Distinct)))
	case aggtable.Avg:
		if c.Count == 0 {
			return types.NewFloat64(0)
		}
		return types.NewFloat64(c.SumF / float64(c.Count))
	case aggtable.Sum:
		if ty == types.Int64 {
			return types.NewInt64(c.SumI)
		}
		return types.NewFloat64(c.SumF)
	default: // Min, Max
		switch {
		case !c.Set:
			return types.Datum{Ty: ty}
		case a.desc.Bytes:
			return types.NewChar(t.SideAt(g, j).MM)
		case a.desc.Float:
			return types.NewFloat64(c.MMF)
		}
		return types.Datum{Ty: ty, I: c.MMI}
	}
}

// floatKeyBits is a float64's identity as a group key or distinct value: its
// IEEE-754 bits, with -0.0 folded into +0.0 and every NaN into one, so keys
// are equal exactly when the values are the same number.
func floatKeyBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// appendKey serializes a datum into a group key, preserving equality: a type
// tag, then the trimmed bytes of a char behind their length, or the 8-byte
// identity word of any other type.
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
		binary.LittleEndian.PutUint64(v[:], floatKeyBits(d.F))
		buf = append(buf, 'f')
		return append(buf, v[:]...)
	default:
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], uint64(d.I))
		buf = append(buf, 'i')
		return append(buf, v[:]...)
	}
}

// String renders the operator.
func (o *AggOp) String() string {
	return fmt.Sprintf("agg(%s,%d groups,%d aggs)", o.name, len(o.groupBy), len(o.aggs))
}

// FuncName returns the display name of an aggregate function.
func (f AggFunc) String() string { return aggNames[f] }
