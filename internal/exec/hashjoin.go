package exec

import (
	"fmt"
	"sync"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/hashtable"
	"repro/internal/storage"
	"repro/internal/types"
)

// BuildHashOp consumes its input and builds a join hash table keyed on one
// or two integer columns, storing a projection of the build side as the
// per-entry payload. With BuildBloom set it also populates a bloom filter
// over the first key column for LIP consumers.
//
// Build work orders run the block-granular insert kernel
// (hashtable.InsertBlock): keys are gathered and hashed vectorized, and each
// hash-table shard lock is taken once per block instead of once per row.
// The bloom filter is populated with the same gathered key vector through
// lock-free atomic adds, so concurrent build work orders never serialize on
// an operator mutex. Insert scratch buffers are pooled across work orders,
// making the steady-state build allocation-free per block.
type BuildHashOp struct {
	core.Base
	self       core.OpID
	name       string
	keyCols    []int
	payloadIdx []int
	paySchema  *storage.Schema
	expected   int
	buildBloom bool
	keyOnly    bool

	ht       *hashtable.Table
	filter   *bloom.Filter
	scratch  sync.Pool // *hashtable.InsertScratch
	readCols []int
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
	// ExpectedRows sizes the hash table (and bloom filter).
	ExpectedRows int
	// BuildBloom also builds a LIP bloom filter on KeyCols[0].
	BuildBloom bool
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
		expected:   spec.ExpectedRows,
		buildBloom: spec.BuildBloom,
		keyOnly:    len(spec.Payload) == 0,
	}
	op.readCols = append(append([]int{}, spec.KeyCols...), spec.Payload...)
	return op
}

func (o *BuildHashOp) setID(id core.OpID) { o.self = id }

// Name implements core.Operator.
func (o *BuildHashOp) Name() string { return o.name }

// NumInputs implements core.Operator.
func (o *BuildHashOp) NumInputs() int { return 1 }

// Start implements core.Operator: the hash table is allocated lazily when
// the operator is unblocked, so staged ("one join at a time") plans hold
// only the live join's table in memory — the accounting Table II of the
// paper depends on.
func (o *BuildHashOp) Start(ctx *core.ExecCtx) []core.WorkOrder {
	cfg := hashtable.Config{PayloadSchema: o.paySchema, InitialCapacity: o.expected}
	if ctx.Run != nil {
		cfg.Gauge = &ctx.Run.HashTables
	}
	o.ht = hashtable.New(cfg)
	if o.buildBloom {
		n := o.expected
		if n < 1024 {
			n = 1024
		}
		o.filter = bloom.New(n, 10)
	}
	return nil
}

// HT returns the hash table (valid for probing once this operator is done).
func (o *BuildHashOp) HT() *hashtable.Table { return o.ht }

// Bloom returns the LIP filter (nil unless BuildBloom was set).
func (o *BuildHashOp) Bloom() *bloom.Filter { return o.filter }

// PayloadSchema returns the schema of per-entry payload tuples.
func (o *BuildHashOp) PayloadSchema() *storage.Schema { return o.paySchema }

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

func (w *buildWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	b := w.block
	n := b.NumRows()
	out.RowsIn = int64(n)
	if ctx.Sim != nil {
		out.Sim += ctx.Sim.ConsumedSeq(b, readBytes(b, o.readCols))
	}
	if n > 0 {
		if err := w.runBatch(ctx, out); err != nil {
			return err
		}
	}
	if ctx.Sim != nil {
		// Hash-table inserts are random writes against the growing table.
		out.Sim += ctx.Sim.RandomProbes(int64(n), o.ht.UsedBytes())
	}
	out.RowsOut = int64(n)
	return nil
}

// runBatch inserts the block through the vectorized kernels. Both fault
// sites are consulted up front, strictly before the first shared-state
// mutation, so a faulted attempt has zero side effects to undo before the
// scheduler retries it.
func (w *buildWO) runBatch(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	b := w.block
	if err := ctx.FaultAt(faults.HashInsert); err != nil {
		return err
	}
	if o.filter != nil {
		if err := ctx.FaultAt(faults.BloomBuild); err != nil {
			return err
		}
	}
	sc, _ := o.scratch.Get().(*hashtable.InsertScratch)
	if sc != nil {
		out.ScratchHits++
	} else {
		sc = &hashtable.InsertScratch{}
	}
	var locks int
	if o.keyOnly {
		locks = o.ht.InsertBlockKeyOnly(b, o.keyCols, sc)
	} else {
		locks = o.ht.InsertBlock(b, o.keyCols, o.payloadIdx, sc)
	}
	out.ShardLocks += int64(locks)
	out.BatchedRows += int64(b.NumRows())
	if o.filter != nil {
		// Reuse the kernel's gathered key column; atomic adds need no
		// operator-level lock.
		k0, _ := sc.Keys()
		o.filter.AddMany(k0)
	}
	o.scratch.Put(sc)
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
// The plan must add a blocking edge build→probe; the probe releases the hash
// table when it finishes.
//
// Probe work orders run a block at a time: the probe-side key columns are
// gathered and hashed in one pass (types.HashPairVec), hashtable.Match
// collects every (probe row, payload row) pair of the block, the residual
// filters the pairs, and the output is materialized column at a time
// (Emitter.AppendPairs for inner and outer joins, Emitter.AppendMany over a
// selection vector for semi and anti joins). All vectors live in a pooled
// scratch, so the steady state allocates nothing per block.
type ProbeOp struct {
	core.Base
	self      core.OpID
	name      string
	build     *BuildHashOp
	keyCols   []int
	joinType  JoinType
	residual  expr.Expr // over Ctx{B: probe row, B2: build payload row}
	probeProj []int
	buildProj []int
	out       *storage.Schema
	readCols  []int
	scratch   sync.Pool // *probeScratch
}

// probeScratch holds one probe work order's reusable vectors: keys and
// hashes, the table's matches, and the pairs (or rows) to emit.
type probeScratch struct {
	k0 []int64
	k1 []int64
	h  []uint64
	m  hashtable.Matches
	// The pairs inner and outer joins emit: probe row, payload block (nil:
	// zero-filled build columns) and payload row. sel is the probe-row
	// selection semi and anti joins emit.
	lrows []int32
	rbs   []*storage.Block
	rrows []int32
	sel   []int32
}

// gather pulls the probe key columns of b into the scratch and hashes them.
func (sc *probeScratch) gather(b *storage.Block, keyCols []int) {
	sc.k0 = b.GatherInt64(keyCols[0], sc.k0)
	if len(keyCols) == 2 {
		sc.k1 = b.GatherInt64(keyCols[1], sc.k1)
	} else {
		sc.k1 = nil
	}
	sc.h = types.HashPairVec(sc.k0, sc.k1, sc.h)
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
	op.readCols = append(append([]int{}, spec.KeyCols...), spec.ProbeProj...)
	op.readCols = append(op.readCols, expr.PrimaryCols(spec.Residual)...)
	return op
}

func (o *ProbeOp) setID(id core.OpID) { o.self = id }

// Name implements core.Operator.
func (o *ProbeOp) Name() string { return o.name }

// NumInputs implements core.Operator.
func (o *ProbeOp) NumInputs() int { return 1 }

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

// Cleanup implements core.Operator: the probe is the hash table's consumer
// and releases its memory.
func (o *ProbeOp) Cleanup(*core.ExecCtx) { o.build.HT().Release() }

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
	out.BatchedRows += int64(n)
	existence := o.joinType == LeftSemi || o.joinType == LeftAnti
	ht.Match(sc.h, sc.k0, sc.k1, existence && o.residual == nil, &sc.m)
	if o.residual != nil {
		w.filter(ctx, ht, &sc.m)
	}
	em := core.NewEmitter(ctx, out, o.self, o.out)
	if existence {
		sc.existence(n, o.joinType == LeftSemi)
		em.AppendMany(b, sc.sel, o.probeProj)
	} else {
		sc.resolve(ht, n, o.joinType == LeftOuter)
		em.AppendPairs(b, sc.lrows, o.probeProj, sc.rbs, sc.rrows, o.buildProj)
	}
	sc.reset()
	o.scratch.Put(sc)
	if ctx.Sim != nil {
		out.Sim += ctx.Sim.RandomProbes(int64(n), ht.UsedBytes())
	}
	return nil
}

// filter keeps the matches whose (probe row, payload row) pair passes the
// residual, in order.
func (w *probeWO) filter(ctx *core.ExecCtx, ht *hashtable.Table, m *hashtable.Matches) {
	ec := expr.Ctx{B: w.block, Scalars: ctx.Scalars}
	keep := 0
	for i, ref := range m.Ref {
		ec.Row = int(m.Probe[i])
		ec.B2, ec.Row2 = ht.Payload(ref)
		if w.op.residual.Eval(&ec).I != 0 {
			m.Probe[keep], m.Ref[keep] = m.Probe[i], ref
			keep++
		}
	}
	m.Probe, m.Ref = m.Probe[:keep], m.Ref[:keep]
}

// String renders the operator.
func (o *ProbeOp) String() string {
	return fmt.Sprintf("probe(%s,%s)", o.name, o.joinType)
}
