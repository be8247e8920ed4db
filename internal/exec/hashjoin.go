package exec

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/hashtable"
	"repro/internal/storage"
	"repro/internal/types"
)

// BuildHashOp consumes its input and builds a join hash table keyed on one
// or two integer columns over it: the table indexes the blocks it is fed,
// views included, and a projection of the build side is each entry's
// payload.
//
// Build work orders run the block-granular insert kernel
// (hashtable.InsertBlock): keys are gathered and hashed vectorized, and the
// block is recorded in the table, nothing copied. The operator keeps its
// inputs for its readers (core.KeepForReaders), so the scheduler holds every
// fed block until the probes behind the build are done. Insert scratch
// buffers are pooled across work orders, making the steady-state build
// allocation-free per block. Once every row is in, the Final wave seals the
// table: it chooses the index from the entry count and key range
// (hashtable.Seal) and fills it. The sealed table is also the LIP filter of
// any select that reads the build: its probes ask the index itself.
type BuildHashOp struct {
	core.Base
	self       core.OpID
	name       string
	keyCols    []int
	payloadIdx []int
	paySchema  *storage.Schema

	ht       *hashtable.Table
	scratch  sync.Pool // *hashtable.InsertScratch
	readCols []int

	// readers is how many operators read the table (NewProbe counts each
	// probe, NewSelect each LIPRef), and open how many of them have not
	// finished in this run (Start resets it): the last one releases the
	// table.
	readers, open int
}

// BuildSpec configures NewBuildHash.
type BuildSpec struct {
	Name string
	// InputSchema is the build input's schema.
	InputSchema *storage.Schema
	// KeyCols are one or two key column indexes in the input.
	KeyCols []int
	// Payload are the input columns stored per entry (what downstream
	// operators read from the build side). May be empty for semi/anti
	// joins that need only existence.
	Payload []int
}

// NewBuildHash builds a hash-table build operator.
func NewBuildHash(spec BuildSpec) *BuildHashOp {
	if len(spec.KeyCols) == 0 || len(spec.KeyCols) > 2 {
		panic("exec: build needs 1 or 2 key columns")
	}
	op := &BuildHashOp{
		name:       spec.Name,
		keyCols:    spec.KeyCols,
		payloadIdx: spec.Payload,
		paySchema:  spec.InputSchema.Project(spec.Payload),
	}
	op.readCols = append(append([]int{}, spec.KeyCols...), spec.Payload...)
	return op
}

func (o *BuildHashOp) setID(id core.OpID) { o.self = id }

// Name implements core.Operator.
func (o *BuildHashOp) Name() string { return o.name }

// Start implements core.Operator: the hash table is allocated lazily when
// the operator is unblocked, so staged ("one join at a time") plans hold
// only the live join's table in memory — the accounting Table II of the
// paper depends on.
func (o *BuildHashOp) Start(ctx *core.ExecCtx) []core.WorkOrder {
	cfg := hashtable.Config{PayloadSchema: o.paySchema, Keys: len(o.keyCols)}
	if ctx.Run != nil {
		cfg.Gauge = &ctx.Run.HashTables
	}
	o.ht = hashtable.New(cfg)
	o.open = o.readers
	return nil
}

// HT returns the hash table (valid for probing once this operator is done).
func (o *BuildHashOp) HT() *hashtable.Table { return o.ht }

// PayloadSchema returns the schema of per-entry payload tuples.
func (o *BuildHashOp) PayloadSchema() *storage.Schema { return o.paySchema }

// Keeps implements core.Operator: the table reads its entries in the fed
// blocks until it is released, except a key-only table sealed dense, which
// keeps only its offsets.
func (o *BuildHashOp) Keeps() core.Keep {
	if o.ht == nil || o.ht.ReadsInputs() {
		return core.KeepForReaders
	}
	return core.KeepWorkOrder
}

// Feed implements core.Operator.
func (o *BuildHashOp) Feed(_ *core.ExecCtx, _ int, blocks []*storage.Block) []core.WorkOrder {
	wos := make([]core.WorkOrder, len(blocks))
	for i, b := range blocks {
		wos[i] = &buildWO{op: o, block: b}
	}
	return wos
}

type buildWO struct {
	op    *BuildHashOp
	block *storage.Block
}

func (w *buildWO) Inputs() []*storage.Block { return []*storage.Block{w.block} }

// Run inserts the block through the vectorized kernels. The fault site is
// consulted strictly before the first shared-state mutation, so a faulted
// attempt has zero side effects to undo before the scheduler retries it.
func (w *buildWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	b := w.block
	n := b.NumRows()
	out.RowsIn = int64(n)
	if ctx.Sim != nil {
		out.Sim += ctx.Sim.ConsumedSeq(b, readBytes(b, o.readCols))
	}
	if n > 0 {
		if err := ctx.FaultAt(faults.HashInsert); err != nil {
			return err
		}
		sc, _ := o.scratch.Get().(*hashtable.InsertScratch)
		if sc != nil {
			out.ScratchHits++
		} else {
			sc = &hashtable.InsertScratch{}
		}
		o.ht.InsertBlock(b, o.keyCols, o.payloadIdx, sc)
		o.scratch.Put(sc)
	}
	if ctx.Sim != nil {
		// The cache model charges each row's random write into the table
		// here, as in the paper's engine, although this engine appends
		// here and writes its index in the Final wave.
		out.Sim += ctx.Sim.RandomProbes(int64(n), o.ht.UsedBytes())
	}
	out.RowsOut = int64(n)
	return nil
}

// Final implements core.Operator: build → probe is a blocking edge, so the
// table's entries are all in. It returns the work orders that fill the
// chosen index, one per worker for a hash index (split by index
// partition), one for a dense index. The scheduler holds the fed blocks
// until the build finishes, so every fill reads its sources in place.
func (o *BuildHashOp) Final(ctx *core.ExecCtx) []core.WorkOrder {
	fills := o.ht.Seal(ctx.Workers)
	wos := make([]core.WorkOrder, len(fills))
	for i, f := range fills {
		wos[i] = &fillWO{fill: f}
	}
	return wos
}

// readerDone notes that one reader of the table finished (or, in a failed
// run, never will): the last one releases the table, so a table several
// operators read counts until none reads it. A failed run cleans up readers
// whose build may not have started.
func (o *BuildHashOp) readerDone() {
	if o.open--; o.open == 0 && o.ht != nil {
		o.ht.Release()
	}
}

// fillWO fills one part of a sealed table's index.
type fillWO struct{ fill hashtable.Fill }

func (w *fillWO) Inputs() []*storage.Block { return nil }

// Run consults the fault site before the fill touches the table, so a
// retried fill has nothing to undo.
func (w *fillWO) Run(ctx *core.ExecCtx, _ *core.Output) error {
	if err := ctx.FaultAt(faults.HashInsert); err != nil {
		return err
	}
	w.fill.Run()
	return nil
}

// String renders the operator.
func (o *BuildHashOp) String() string { return fmt.Sprintf("build_hash(%s)", o.name) }

// JoinType selects the probe semantics. All variants preserve the probe
// side, so no shared match state is needed across work orders.
type JoinType uint8

const (
	// Inner emits one output row per (probe row, matching build row).
	Inner JoinType = iota
	// LeftOuter emits every probe row; unmatched rows zero-fill the build
	// columns.
	LeftOuter
	// LeftSemi emits probe rows with at least one match.
	LeftSemi
	// LeftAnti emits probe rows with no match.
	LeftAnti
)

// String returns the SQL-ish join name.
func (j JoinType) String() string {
	switch j {
	case Inner:
		return "inner"
	case LeftOuter:
		return "left_outer"
	case LeftSemi:
		return "semi"
	case LeftAnti:
		return "anti"
	default:
		return "join?"
	}
}

// ProbeOp probes a build operator's hash table with its pipelined input.
// The plan must add a blocking edge build→probe; the last of the table's
// readers to finish releases it.
//
// Probe work orders run a block at a time: the probe-side key columns are
// gathered, hashtable.Match collects every (probe row, build row) pair of
// the block (hashing the keys only under a hash index), the residual
// filters the pairs through the block kernels (the columns it reads are
// gathered for the pairs into one scratch block), and the output is
// materialized column at a time
// (Emitter.AppendPairs for inner and outer joins, Emitter.AppendMany over a
// selection vector for semi and anti joins). A build row is read in the
// block the build was fed (a view's, in its base block), so the build
// columns are mapped through the table's hashtable.SourceCols once per
// block. All vectors live in a pooled scratch, so the steady state
// allocates nothing per block.
type ProbeOp struct {
	core.Base
	self      core.OpID
	name      string
	build     *BuildHashOp
	keyCols   []int
	joinType  JoinType
	residual  expr.Expr // over Ctx{B: probe row, B2: build payload row}
	probeProj []int
	// The residual rebound to its scratch block: the probe columns it reads
	// (resProbe), then the payload columns (resBuild), in resSchema.
	resPred   expr.Expr
	resProbe  []int
	resBuild  []int
	resSchema *storage.Schema
	buildProj []int
	out       *storage.Schema
	readCols  []int
	scratch   sync.Pool // *probeScratch
}

// probeScratch holds one probe work order's reusable vectors: keys, the
// table's matches, and the pairs (or rows) to emit.
type probeScratch struct {
	k0 []int64
	k1 []int64
	m  hashtable.Matches
	// BuildProj and the residual's payload columns, as the columns of the
	// blocks the table's entries lie in.
	buildCols, resCols []int
	// The pairs inner and outer joins emit: probe row, build block (nil:
	// zero-filled build columns) and build row. sel is the probe-row
	// selection semi and anti joins emit.
	lrows []int32
	rbs   []*storage.Block
	rrows []int32
	sel   []int32
	// The residual's scratch block of gathered pairs, its evaluator and the
	// pairs that pass. The block is the probe's own, not a pool checkout.
	res  *storage.Block
	vec  expr.Vectors
	rsel []int32
}

// gather pulls the probe key columns of b into the scratch.
func (sc *probeScratch) gather(b *storage.Block, keyCols []int) {
	sc.k0 = b.GatherInt64(keyCols[0], sc.k0)
	if len(keyCols) == 2 {
		sc.k1 = b.GatherInt64(keyCols[1], sc.k1)
	} else {
		sc.k1 = nil
	}
}

// resolve turns the matches of an n-row probe block into the pairs to emit,
// in probe-row order; with nullExtend (left outer join) each probe row
// without a match gets one pair with a nil payload block.
func (sc *probeScratch) resolve(ht *hashtable.Table, n int, nullExtend bool) {
	next := int32(0) // first probe row not yet emitted
	for i, ref := range sc.m.Ref {
		r := sc.m.Probe[i]
		for ; nullExtend && next < r; next++ {
			sc.addPair(next, nil, 0)
		}
		next = r + 1
		pb, prow := ht.Payload(ref)
		sc.addPair(r, pb, int32(prow))
	}
	for ; nullExtend && next < int32(n); next++ {
		sc.addPair(next, nil, 0)
	}
}

func (sc *probeScratch) addPair(l int32, rb *storage.Block, r int32) {
	sc.lrows = append(sc.lrows, l)
	sc.rbs = append(sc.rbs, rb)
	sc.rrows = append(sc.rrows, r)
}

// existence selects the probe rows of an n-row block that have a match
// (semi join) or have none (anti join).
func (sc *probeScratch) existence(n int, semi bool) {
	probe := sc.m.Probe
	for r := int32(0); r < int32(n); r++ {
		hit := len(probe) > 0 && probe[0] == r
		for len(probe) > 0 && probe[0] == r {
			probe = probe[1:]
		}
		if hit == semi {
			sc.sel = append(sc.sel, r)
		}
	}
}

// reset empties the pair and selection vectors; the payload-block vector is
// cleared to its capacity so a pooled scratch never keeps a released table
// alive.
func (sc *probeScratch) reset() {
	clear(sc.rbs[:cap(sc.rbs)])
	sc.lrows, sc.rbs, sc.rrows, sc.sel = sc.lrows[:0], sc.rbs[:0], sc.rrows[:0], sc.sel[:0]
}

// ProbeSpec configures NewProbe.
type ProbeSpec struct {
	Name string
	// Build is the operator whose hash table is probed.
	Build *BuildHashOp
	// InputSchema is the probe input's schema.
	InputSchema *storage.Schema
	// KeyCols are the probe-side key columns (must match the build's key
	// arity).
	KeyCols []int
	// JoinType selects the semantics (default Inner).
	JoinType JoinType
	// Residual is an extra join predicate evaluated over the (probe,
	// build-payload) row pair; may be nil.
	Residual expr.Expr
	// ProbeProj / BuildProj are the output columns taken from each side;
	// BuildProj indexes the build payload schema and must be empty for
	// semi/anti joins.
	ProbeProj []int
	BuildProj []int
	// Rename, if non-empty, renames the output columns (probe columns
	// first, then build columns).
	Rename []string
}

// NewProbe builds a probe operator.
func NewProbe(spec ProbeSpec) *ProbeOp {
	if (spec.JoinType == LeftSemi || spec.JoinType == LeftAnti) && len(spec.BuildProj) > 0 {
		panic("exec: semi/anti joins cannot project build columns")
	}
	cols := make([]storage.Column, 0, len(spec.ProbeProj)+len(spec.BuildProj))
	for _, c := range spec.ProbeProj {
		cols = append(cols, spec.InputSchema.Col(c))
	}
	pay := spec.Build.PayloadSchema()
	for _, c := range spec.BuildProj {
		cols = append(cols, pay.Col(c))
	}
	if len(spec.Rename) > 0 {
		if len(spec.Rename) != len(cols) {
			panic("exec: Rename length mismatch")
		}
		for i := range cols {
			cols[i].Name = spec.Rename[i]
		}
	}
	op := &ProbeOp{
		name:      spec.Name,
		build:     spec.Build,
		keyCols:   spec.KeyCols,
		joinType:  spec.JoinType,
		residual:  spec.Residual,
		probeProj: spec.ProbeProj,
		buildProj: spec.BuildProj,
		out:       storage.NewSchema(cols...),
	}
	spec.Build.readers++
	spec.Build.open++
	op.readCols = append(append([]int{}, spec.KeyCols...), spec.ProbeProj...)
	op.readCols = append(op.readCols, expr.PrimaryCols(spec.Residual)...)
	if spec.Residual != nil {
		op.bindResidual(spec.InputSchema, pay)
	}
	return op
}

// residualBlockBytes sizes a probe's residual scratch block; a probe block
// with more matches than it holds is filtered a block's capacity at a time.
const residualBlockBytes = 64 << 10

// bindResidual lays out the residual's scratch block — the probe columns
// the residual reads, then the payload columns — and rebinds the residual
// to it, once per plan.
func (o *ProbeOp) bindResidual(probe, pay *storage.Schema) {
	var side [2][]int // columns read, indexed by expr.Side
	expr.Walk(o.residual, func(x expr.Expr) {
		if c, ok := x.(*expr.ColRef); ok && !slices.Contains(side[c.S], c.Col) {
			side[c.S] = append(side[c.S], c.Col)
		}
	})
	slices.Sort(side[expr.Primary])
	slices.Sort(side[expr.Secondary])
	o.resProbe, o.resBuild = side[expr.Primary], side[expr.Secondary]
	var cols []storage.Column
	for _, c := range o.resProbe {
		cols = append(cols, probe.Col(c))
	}
	for _, c := range o.resBuild {
		cols = append(cols, pay.Col(c))
	}
	o.resSchema = storage.NewSchema(cols...)
	o.resPred = expr.Rebind(o.residual, func(c *expr.ColRef) *expr.ColRef {
		at := slices.Index(side[c.S], c.Col)
		if c.S == expr.Secondary {
			at += len(o.resProbe)
		}
		return &expr.ColRef{S: expr.Primary, Col: at, Ty: c.Ty, Width: c.Width, Name: c.Name}
	})
}

func (o *ProbeOp) setID(id core.OpID) { o.self = id }

// Name implements core.Operator.
func (o *ProbeOp) Name() string { return o.name }

// OutSchema returns the joined output schema.
func (o *ProbeOp) OutSchema() *storage.Schema { return o.out }

// Feed implements core.Operator.
func (o *ProbeOp) Feed(_ *core.ExecCtx, _ int, blocks []*storage.Block) []core.WorkOrder {
	wos := make([]core.WorkOrder, len(blocks))
	for i, b := range blocks {
		wos[i] = &probeWO{op: o, block: b}
	}
	return wos
}

// Cleanup implements core.Operator: the probe is done reading the table.
func (o *ProbeOp) Cleanup(*core.ExecCtx) { o.build.readerDone() }

type probeWO struct {
	op    *ProbeOp
	block *storage.Block
}

func (w *probeWO) Inputs() []*storage.Block { return []*storage.Block{w.block} }

func (w *probeWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	b := w.block
	ht := o.build.HT()
	n := b.NumRows()
	out.RowsIn = int64(n)
	if ctx.Sim != nil {
		out.Sim += ctx.Sim.ConsumedSeq(b, readBytes(b, o.readCols))
	}
	sc, _ := o.scratch.Get().(*probeScratch)
	if sc != nil {
		out.ScratchHits++
	} else {
		sc = &probeScratch{}
	}
	sc.gather(b, o.keyCols)
	sc.buildCols = ht.SourceCols(sc.buildCols[:0], o.buildProj)
	sc.resCols = ht.SourceCols(sc.resCols[:0], o.resBuild)
	existence := o.joinType == LeftSemi || o.joinType == LeftAnti
	ht.Match(sc.k0, sc.k1, existence && o.residual == nil, &sc.m)
	if o.residual != nil {
		sc.filter(o, ht, b, ctx.Scalars)
	}
	em := core.NewEmitter(ctx, out, o.self, o.out)
	if existence {
		sc.existence(n, o.joinType == LeftSemi)
		em.AppendMany(b, sc.sel, o.probeProj)
	} else {
		sc.resolve(ht, n, o.joinType == LeftOuter)
		em.AppendPairs(b, sc.lrows, o.probeProj, sc.rbs, sc.rrows, sc.buildCols)
	}
	sc.reset()
	o.scratch.Put(sc)
	if ctx.Sim != nil {
		out.Sim += ctx.Sim.RandomProbes(int64(n), ht.UsedBytes())
	}
	return nil
}

// filter keeps the matches whose (probe row, payload row) pair passes the
// residual, in order. A block's capacity of matches at a time, it gathers
// the columns the residual reads for the pairs into the scratch block,
// filters that block, and compacts the matches in place.
func (sc *probeScratch) filter(o *ProbeOp, ht *hashtable.Table, b *storage.Block, scalars []types.Datum) {
	if sc.res == nil {
		sc.res = storage.NewBlock(o.resSchema, storage.ColumnStore, residualBlockBytes)
	}
	m := &sc.m
	ec := expr.Ctx{B: sc.res, Scalars: scalars}
	keep := 0
	for lo := 0; lo < len(m.Ref); lo += sc.res.Capacity() {
		hi := min(lo+sc.res.Capacity(), len(m.Ref))
		for _, ref := range m.Ref[lo:hi] {
			pb, prow := ht.Payload(ref)
			sc.rbs, sc.rrows = append(sc.rbs, pb), append(sc.rrows, int32(prow))
		}
		sc.res.Reset()
		sc.res.AppendPairs(b, m.Probe[lo:hi], o.resProbe, sc.rbs, sc.rrows, sc.resCols)
		sc.rbs, sc.rrows = sc.rbs[:0], sc.rrows[:0]
		sc.rsel = sc.vec.Filter(o.resPred, &ec, sc.rsel)
		for _, i := range sc.rsel {
			m.Probe[keep], m.Ref[keep] = m.Probe[lo+int(i)], m.Ref[lo+int(i)]
			keep++
		}
	}
	m.Probe, m.Ref = m.Probe[:keep], m.Ref[:keep]
}

// String renders the operator.
func (o *ProbeOp) String() string {
	return fmt.Sprintf("probe(%s,%s)", o.name, o.joinType)
}
