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
// each aggregate's argument vector into that aggregate's typed column of the
// table with a columnar kernel — no per-row map lookups, no Datum-boxed
// accumulators.
// Partials persist across work orders, and Final fans out one merge work
// order per radix partition of the group-hash space, so the merge
// parallelizes across the scheduler's workers instead of serializing on an
// operator mutex.
//
// Only group-id resolution varies, and NewAgg picks it once from the key
// widths: no keys (every row is group 0), a key tuple of at most 16 bytes
// (each key a fixed-width slot — an 8-byte identity word, or a char value
// zero-padded to its width — packed into the table's one or two inline
// words and hashed in one vectorized pass), or a wider tuple (serialized
// into the table's byte arena, one key column at a time). Argument loading
// and each aggregate's column (aggtable.Table.Layout) are likewise chosen
// once per aggregate. Keys and arguments are evaluated a
// block at a time by expr.Vectors: a columnar gather or an in-place char
// view for plain column references, vector kernels for computed ones.
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
	descs []aggtable.Agg  // the aggregates' column layout
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
	// datums writes group g's key values into row[:number of keys]. Char
	// values may alias buf or the table, and are read before the next call.
	datums(t *aggtable.Table, g int, row []types.Datum, buf *[16]byte)
}

// sized returns s with length n, reusing its backing array when it is large
// enough. Callers overwrite every element.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// aggLoad is how one aggregate's argument reaches its accumulator.
type aggLoad uint8

const (
	loadNone     aggLoad = iota // COUNT: no argument to read
	loadInt                     // int64/date vector → AccumInt
	loadFloat                   // float64 vector → AccumFloat
	loadBytes                   // char min/max: bytes vector → UpdateBytes
	loadDistinct                // CountDistinct: encoded values → AddDistinct
)

// aggArg is one aggregate's plan: how its argument is loaded.
type aggArg struct {
	load aggLoad
	arg  expr.Expr
}

// aggPartial is one thread-local partial aggregation state plus its reusable
// scratch vectors, the vector evaluator's among them. A partial is owned by
// at most one work order at a time (free-list discipline), accumulates across
// all blocks it sees, and is merged once by the Final merge work orders —
// there is no per-block merge.
type aggPartial struct {
	tab       *aggtable.Table
	k0        []int64
	k1        []int64
	keyBuf    []byte // a block's serialized key tuples, or one distinct value
	offs      []int  // where each row's tuple starts in keyBuf, and its end
	pos       []int  // where each row's next key goes in keyBuf
	hashes    []uint64
	groupIdx  []int32
	argI      []int64
	argF      []float64
	vec       expr.Vectors
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

	kinds := [...]aggtable.Kind{Sum: aggtable.Sum, Count: aggtable.Count, Avg: aggtable.Avg,
		Min: aggtable.Min, Max: aggtable.Max, CountDistinct: aggtable.CountDistinct}
	for _, a := range spec.Aggs {
		arg, desc := aggArg{arg: a.Arg}, aggtable.Agg{Kind: kinds[a.Func]}
		switch {
		case a.Func == Count || a.Arg == nil:
		case a.Func == CountDistinct:
			arg.load = loadDistinct
		case a.Arg.Type() == types.Char:
			arg.load, desc.Bytes = loadBytes, true
		case a.Arg.Type() == types.Float64:
			arg.load, desc.Float = loadFloat, true
		default:
			// A SUM of dates is read as a float, so it accumulates one.
			arg.load, desc.Float = loadInt, a.Func == Sum && aggType(a) == types.Float64
		}
		op.args = append(op.args, arg)
		op.descs = append(op.descs, desc)
	}

	// The table's layout: its keys, and one column per aggregate holding
	// only that function's state.
	wk := newWordKeys(spec.GroupBy)
	switch {
	case len(spec.GroupBy) == 0:
		op.keys, op.proto = scalarKeys{}, aggtable.New(0, false, 1)
	case wk.width > 16:
		op.keys, op.proto = byteKeys(spec.GroupBy), aggtable.NewBytes(0, 1)
	default:
		op.keys, op.proto = wk, aggtable.New(0, wk.width > 8, 1)
	}
	op.proto.Layout(op.descs)
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
	if a.Func == Min || a.Func == Max {
		return expr.CharWidth(a.Arg)
	}
	return 0
}

func (o *AggOp) setID(id core.OpID) { o.self = id }

// Name implements core.Operator.
func (o *AggOp) Name() string { return o.name }

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
			p.argI = p.vec.Ints(a.arg, &ec, p.argI)
			p.tab.AccumInt(j, p.groupIdx, p.argI)
		case loadFloat:
			p.argF = p.vec.Floats(a.arg, &ec, p.argF)
			p.tab.AccumFloat(j, p.groupIdx, p.argF)
		case loadBytes:
			v := p.vec.Bytes(a.arg, &ec)
			for r, g := range p.groupIdx {
				p.tab.UpdateBytes(g, j, types.TrimPad(v.Bytes(r)))
			}
		case loadDistinct:
			p.addDistinct(j, a.arg, &ec)
		}
	}
	o.accountGrowth(ctx, p, p.tab.Bytes())
	o.putPartial(p)
	out.AggFastRows += int64(n)
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

func (scalarKeys) datums(*aggtable.Table, int, []types.Datum, *[16]byte) {}

// addDistinct records argument arg of every row in its group's
// CountDistinct aggregate j, each value serialized (keyTag).
func (p *aggPartial) addDistinct(j int, arg expr.Expr, ec *expr.Ctx) {
	if arg.Type() == types.Char {
		v := p.vec.Bytes(arg, ec)
		for r, g := range p.groupIdx {
			p.keyBuf = appendChars(p.keyBuf[:0], types.TrimPad(v.Bytes(r)))
			p.tab.AddDistinct(g, j, p.keyBuf)
		}
		return
	}
	p.argI = p.words(arg, ec, p.argI)
	tag := keyTag(arg.Type())
	for r, g := range p.groupIdx {
		p.keyBuf = binary.LittleEndian.AppendUint64(append(p.keyBuf[:0], tag), uint64(p.argI[r]))
		p.tab.AddDistinct(g, j, p.keyBuf)
	}
}

// words loads e's 8-byte identities into dst: the value of an int64 or
// date, the canonical bits of a float64.
func (p *aggPartial) words(e expr.Expr, ec *expr.Ctx, dst []int64) []int64 {
	if e.Type() != types.Float64 {
		return p.vec.Ints(e, ec, dst)
	}
	p.argF = p.vec.Floats(e, ec, p.argF)
	dst = sized(dst, len(p.argF))
	for r, f := range p.argF {
		dst[r] = int64(floatKeyBits(f))
	}
	return dst
}

// wordKeys resolves a key tuple of at most 16 bytes. Each key takes a
// fixed-width slot — the 8-byte identity word of an int64, date or float64,
// or a char value zero-padded to its expression's width — and the slots,
// in key order, pack little-endian into the table's inline words: bytes 0–7
// into k0, bytes 8–15 into k1, a tuple of at most 8 bytes into k0 alone.
// One or two 8-byte keys are exactly their words.
type wordKeys struct {
	keys    []expr.Expr
	slots   []keySlot
	width   int  // the tuple's bytes
	aligned bool // every slot is a whole 8-byte word: nothing to pack
}

// keySlot is where one key lies in the packed tuple.
type keySlot struct {
	off, width int
	ty         types.TypeID
}

func newWordKeys(keys []expr.Expr) wordKeys {
	k := wordKeys{keys: keys, aligned: true}
	for _, e := range keys {
		s := keySlot{off: k.width, width: 8, ty: e.Type()}
		if s.ty == types.Char {
			s.width = expr.CharWidth(e)
		}
		k.aligned = k.aligned && s.width == 8 && s.ty != types.Char
		k.slots = append(k.slots, s)
		k.width += s.width
	}
	return k
}

func (k wordKeys) groupIDs(ec *expr.Ctx, p *aggPartial, n int) {
	p.k0 = sized(p.k0, n)
	var k1 []int64
	if k.width > 8 {
		p.k1 = sized(p.k1, n)
		k1 = p.k1
	}
	if !k.aligned {
		clear(p.k0)
		clear(k1)
	}
	for i, s := range k.slots {
		switch {
		case s.ty == types.Char:
			orChars(p.k0, k1, s.off, s.width, p.vec.Bytes(k.keys[i], ec))
		case s.off == 0:
			p.k0 = p.words(k.keys[i], ec, p.k0)
		case s.off == 8:
			k1 = p.words(k.keys[i], ec, k1)
		default: // a word across k0 and k1
			p.argI = p.words(k.keys[i], ec, p.argI)
			sh := 8 * uint(s.off)
			for r, w := range p.argI {
				p.k0[r] |= int64(uint64(w) << sh)
				k1[r] |= int64(uint64(w) >> (64 - sh))
			}
		}
	}
	p.hashes = types.HashPairVec(p.k0, k1, p.hashes)
	p.groupIdx = p.tab.UpsertBlock(p.k0, k1, p.hashes, p.groupIdx)
}

// orChars ORs each row's char value, cut or zero-padded to width bytes, into
// the packed tuples at byte offset off.
func orChars(k0, k1 []int64, off, width int, v storage.ColView) {
	w := min(width, v.Width())
	split := min(max(8-off, 0), w) // the bytes that land in k0
	for r := range k0 {
		cell := v.Bytes(r)[:w]
		if split > 0 {
			k0[r] |= int64(loadLE(cell[:split]) << (8 * uint(off)))
		}
		if split < w {
			k1[r] |= int64(loadLE(cell[split:]) << (8 * uint(off+split-8)))
		}
	}
}

// loadLE reads up to 8 bytes as a little-endian word.
func loadLE(b []byte) uint64 {
	if len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var u uint64
	for i, c := range b {
		u |= uint64(c) << (8 * uint(i))
	}
	return u
}

func (k wordKeys) datums(t *aggtable.Table, g int, row []types.Datum, buf *[16]byte) {
	k0, k1 := t.Key(g)
	binary.LittleEndian.PutUint64(buf[:8], uint64(k0))
	binary.LittleEndian.PutUint64(buf[8:], uint64(k1))
	for i, s := range k.slots {
		if s.ty == types.Char {
			row[i] = types.NewChar(buf[s.off : s.off+s.width])
			continue
		}
		row[i] = wordDatum(s.ty, binary.LittleEndian.Uint64(buf[s.off:]))
	}
}

// wordDatum rebuilds a key datum of an 8-byte type from its identity word.
func wordDatum(ty types.TypeID, w uint64) types.Datum {
	if ty == types.Float64 {
		return types.NewFloat64(math.Float64frombits(w))
	}
	return types.Datum{Ty: ty, I: int64(w)}
}

// byteKeys resolves a key tuple wider than 16 bytes: each row's tuple is
// serialized (keyTag) into the table's byte arena. The
// tuples of a block are built one key column at a time: their lengths
// first, then each key's bytes with one typed loop, so a char key's vector
// is evaluated twice.
type byteKeys []expr.Expr

func (k byteKeys) groupIDs(ec *expr.Ctx, p *aggPartial, n int) {
	p.offs = sized(p.offs, n+1)
	clear(p.offs)
	fixed := 0 // the bytes of the 8-byte keys, the same in every tuple
	for _, e := range k {
		if e.Type() != types.Char {
			fixed += 9
			continue
		}
		v := p.vec.Bytes(e, ec)
		for r := range n {
			p.offs[r+1] += 5 + len(types.TrimPad(v.Bytes(r)))
		}
	}
	for r := range n {
		p.offs[r+1] += p.offs[r] + fixed
	}
	buf := sized(p.keyBuf, p.offs[n])
	p.keyBuf = buf
	// pos is where each row's next key goes.
	p.pos = append(p.pos[:0], p.offs[:n]...)
	pos := p.pos
	for _, e := range k {
		if e.Type() == types.Char {
			v := p.vec.Bytes(e, ec)
			for r, at := range pos {
				s := types.TrimPad(v.Bytes(r))
				buf[at] = 'c'
				binary.LittleEndian.PutUint32(buf[at+1:], uint32(len(s)))
				pos[r] += 5 + copy(buf[at+5:], s)
			}
			continue
		}
		tag := keyTag(e.Type())
		p.k0 = p.words(e, ec, p.k0)
		for r, at := range pos {
			buf[at] = tag
			binary.LittleEndian.PutUint64(buf[at+1:], uint64(p.k0[r]))
			pos[r] += 9
		}
	}
	p.groupIdx = sized(p.groupIdx, n)
	for r := range p.groupIdx {
		key := buf[p.offs[r]:p.offs[r+1]]
		h := types.HashBytes(key)
		if h == 0 {
			h = 1 // 0 marks an empty slot
		}
		p.groupIdx[r] = p.tab.UpsertBytes(h, key)
	}
}

// datums decodes the serialized tuple back into key values. Char values
// alias the table's arena, which is stable once merging is done.
func (k byteKeys) datums(t *aggtable.Table, g int, row []types.Datum, _ *[16]byte) {
	buf := t.KeyBytes(g)
	for i, e := range k {
		if e.Type() == types.Char {
			n := int(binary.LittleEndian.Uint32(buf[1:]))
			row[i] = types.NewChar(buf[5 : 5+n])
			buf = buf[5+n:]
			continue
		}
		row[i] = wordDatum(e.Type(), binary.LittleEndian.Uint64(buf[1:]))
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
	e := groupEmitter{em: core.NewEmitter(ctx, out, o.self, o.out), out: out,
		row: make([]types.Datum, o.out.NumCols())}
	if len(tabs) == 1 {
		// Single partial (one worker, or one busy one): nothing to merge, so
		// each merge work order emits a dense slice of its groups.
		t := tabs[0]
		lo, hi := denseRange(w.part, w.pr.Parts(), t.Len())
		o.emitGroups(&e, t, lo, hi)
		return nil
	}
	dst := o.proto.NewLike(groupsHint/w.pr.Parts() + 16)
	for _, t := range tabs {
		dst.MergePartition(t, w.part, w.pr, o.descs)
	}
	if ctx.Run != nil {
		// The merged table is hash-table memory beside the partials until
		// its groups are emitted, or the attempt aborts.
		n := dst.Bytes()
		ctx.Run.HashTables.Add(n)
		defer ctx.Run.HashTables.Sub(n)
	}
	o.emitGroups(&e, dst, 0, dst.Len())
	return nil
}

// denseRange is the slice [lo, hi) of n groups that part of parts emits;
// the parts' slices cover every group exactly once.
func denseRange(part, parts, n int) (lo, hi int) {
	return part * n / parts, (part + 1) * n / parts
}

// emitChunk is how many groups emitGroups finishes a column at a time.
const emitChunk = 256

// groupEmitter is one merge work order's output and its reused buffers.
type groupEmitter struct {
	em  *core.Emitter
	out *core.Output
	row []types.Datum
	key [16]byte
}

// emitGroups materializes groups [lo, hi) of t as output rows, a chunk at a
// time: each aggregate column's results with one typed loop
// (aggtable.Table.Finish), then each group's row. A scalar aggregate also
// publishes its first value.
func (o *AggOp) emitGroups(e *groupEmitter, t *aggtable.Table, lo, hi int) {
	if lo >= hi {
		return
	}
	nk := len(o.groupBy)
	vals := make([][]types.Datum, len(o.args)) // per aggregate, one chunk's results
	for j := range vals {
		vals[j] = make([]types.Datum, min(emitChunk, hi-lo))
	}
	for ; lo < hi; lo += emitChunk {
		n := min(emitChunk, hi-lo)
		for j, v := range vals {
			t.Finish(j, lo, o.out.Col(nk+j).Type, v[:n])
		}
		for i := range n {
			o.keys.datums(t, lo+i, e.row, &e.key)
			for j, v := range vals {
				e.row[nk+j] = v[i]
			}
			e.em.AppendRow(e.row...)
		}
		e.out.RowsIn += int64(n)
	}
	if nk == 0 {
		o.scalarVal, o.hasScalar = e.row[0], true
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

// Wide key tuples and distinct values are serialized so that equal values
// are equal byte strings: per value a type tag (keyTag), then the 8-byte
// identity word of an int64, date or float64, or a char's bytes without
// padding behind their uint32 length.

// keyTag is a type's tag in the serialized encoding.
func keyTag(ty types.TypeID) byte {
	switch ty {
	case types.Char:
		return 'c'
	case types.Float64:
		return 'f'
	}
	return 'i'
}

// appendChars serializes a char value whose padding is stripped.
func appendChars(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(append(buf, 'c'), uint32(len(b)))
	return append(buf, b...)
}

// String renders the operator.
func (o *AggOp) String() string {
	return fmt.Sprintf("agg(%s,%d groups,%d aggs)", o.name, len(o.groupBy), len(o.aggs))
}

// FuncName returns the display name of an aggregate function.
func (f AggFunc) String() string { return aggNames[f] }
