package exec

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/hashtable"
	"repro/internal/storage"
	"repro/internal/types"
)

// LIPRef attaches a lookahead-information-passing filter to a select
// operator: tuples whose key is not in a downstream join's build side are
// dropped before materialization [Zhu et al.]. The filter is the build's own
// sealed join table, probed exactly as a semi join probes it: NewSelect
// counts the select among the table's readers, so the table outlives it.
// The build must have one key column and be connected to the select with a
// blocking edge, so its table is sealed before the scan starts.
type LIPRef struct {
	Build  *BuildHashOp
	KeyCol int
}

// SelectOp scans a base table or a pipelined input, applies an optional
// predicate and LIP filters, and materializes a projection. It is the
// producer of every pipeline in the TPC-H plans, and — with a nil predicate
// — doubles as a projection/compute operator.
type SelectOp struct {
	core.Base
	self      core.OpID
	name      string
	base      *storage.Table // nil when fed by a pipelined input
	pred      expr.Expr      // may be nil
	projExprs []expr.Expr
	projIdx   []int // fast path: all projections are plain column refs
	dense     bool  // a base-table select with no predicate and no LIP, through projIdx
	readCols  []int // referenced columns, for cache-model charging
	lips      []LIPRef
	out       *storage.Schema
	scratch   sync.Pool // *selScratch
}

// selScratch is one work order's reusable vectors: the selection, the
// predicate's intermediate vectors, each computed projection's values, and
// the LIP probes' keys and matches, so selects allocate nothing per block.
type selScratch struct {
	sel  []int32
	vec  expr.Vectors
	cols []projVec
	srcs []storage.ColSource
	kbuf []byte // a view's LIP key column, gathered
	keys []int64
	m    hashtable.Matches
}

// lip keeps the rows of sel whose key in column col the table holds: it
// reads the column in place (a view's gathered into kbuf), finds each
// selected row's first match, and compacts sel to the rows that have one.
func (sp *selScratch) lip(b *storage.Block, col int, ht *hashtable.Table, sel []int32) []int32 {
	if n := 8 * b.NumRows(); b.IsView() && cap(sp.kbuf) < n {
		sp.kbuf = make([]byte, n)
	}
	v := b.ViewInto(col, sp.kbuf)
	sp.keys = sp.keys[:0]
	for _, r := range sel {
		sp.keys = append(sp.keys, v.Int64(int(r)))
	}
	ht.Match(sp.keys, nil, true, &sp.m)
	for j, i := range sp.m.Probe {
		sel[j] = sel[i]
	}
	return sel[:len(sp.m.Probe)]
}

// projVec holds one computed projection's vector and its evaluator.
type projVec struct {
	vec expr.Vectors
	i   []int64
	f   []float64
}

// project evaluates every projection over the block as a vector; the
// sources alias sp and the block until the next call.
func (sp *selScratch) project(exprs []expr.Expr, ec *expr.Ctx) []storage.ColSource {
	if len(sp.cols) < len(exprs) {
		sp.cols = make([]projVec, len(exprs))
		sp.srcs = make([]storage.ColSource, len(exprs))
	}
	for i, e := range exprs {
		p := &sp.cols[i]
		switch e.Type() {
		case types.Float64:
			p.f = p.vec.Floats(e, ec, p.f)
			sp.srcs[i] = storage.ColSource{F: p.f}
		case types.Char:
			sp.srcs[i] = storage.ColSource{C: p.vec.Bytes(e, ec)}
		default:
			p.i = p.vec.Ints(e, ec, p.i)
			sp.srcs[i] = storage.ColSource{I: p.i}
		}
	}
	return sp.srcs[:len(exprs)]
}

// SelectSpec configures NewSelect.
type SelectSpec struct {
	Name string
	// Base is the table to scan; leave nil for a pipelined input.
	Base *storage.Table
	// InputSchema is the pipelined input's schema (required when Base is
	// nil).
	InputSchema *storage.Schema
	// Pred filters rows (nil keeps all).
	Pred expr.Expr
	// Proj are the output expressions, named by ProjNames.
	Proj      []expr.Expr
	ProjNames []string
	// LIPs are sideways filters applied after Pred (see LIPRef).
	LIPs []LIPRef
}

// NewSelect builds a select operator.
func NewSelect(spec SelectSpec) *SelectOp {
	if len(spec.Proj) == 0 {
		panic("exec: select needs at least one projection")
	}
	if len(spec.Proj) != len(spec.ProjNames) {
		panic("exec: Proj and ProjNames lengths differ")
	}
	op := &SelectOp{
		name:      spec.Name,
		base:      spec.Base,
		pred:      spec.Pred,
		projExprs: spec.Proj,
		lips:      spec.LIPs,
		out:       expr.OutputSchema(spec.Proj, spec.ProjNames),
	}
	op.projIdx = colRefsOnly(spec.Proj)
	op.dense = spec.Base != nil && spec.Pred == nil && len(spec.LIPs) == 0 && op.projIdx != nil
	all := append([]expr.Expr{spec.Pred}, spec.Proj...)
	op.readCols = expr.PrimaryCols(all...)
	for _, l := range spec.LIPs {
		if len(l.Build.keyCols) != 1 {
			panic("exec: a LIP reads a one-key build")
		}
		if !slices.Contains(op.readCols, l.KeyCol) {
			op.readCols = append(op.readCols, l.KeyCol)
		}
		l.Build.readers++
		l.Build.open++
	}
	return op
}

func (o *SelectOp) setID(id core.OpID) { o.self = id }

// Name implements core.Operator.
func (o *SelectOp) Name() string { return o.name }

// OutSchema returns the schema of the operator's output blocks.
func (o *SelectOp) OutSchema() *storage.Schema { return o.out }

// Cleanup implements core.Operator: the select is done reading its LIP
// builds' tables.
func (o *SelectOp) Cleanup(*core.ExecCtx) {
	for _, l := range o.lips {
		l.Build.readerDone()
	}
}

// Start implements core.Operator: a base-table select emits one work order
// per storage block of the table.
func (o *SelectOp) Start(*core.ExecCtx) []core.WorkOrder {
	if o.base == nil {
		return nil
	}
	blocks := o.base.Blocks()
	wos := make([]core.WorkOrder, len(blocks))
	for i, b := range blocks {
		wos[i] = &selectWO{op: o, block: b, isBase: true}
	}
	return wos
}

// Feed implements core.Operator: one work order per delivered block.
func (o *SelectOp) Feed(_ *core.ExecCtx, _ int, blocks []*storage.Block) []core.WorkOrder {
	wos := make([]core.WorkOrder, len(blocks))
	for i, b := range blocks {
		wos[i] = &selectWO{op: o, block: b}
	}
	return wos
}

type selectWO struct {
	op     *SelectOp
	block  *storage.Block
	isBase bool
}

func (w *selectWO) Inputs() []*storage.Block {
	if w.isBase {
		return nil
	}
	return []*storage.Block{w.block}
}

func (w *selectWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	b := w.block
	n := b.NumRows()
	out.RowsIn = int64(n)
	if ctx.Sim != nil {
		bytes := readBytes(b, o.readCols)
		if w.isBase {
			out.Sim += ctx.Sim.ScannedBase(bytes)
		} else {
			out.Sim += ctx.Sim.ConsumedSeq(b, bytes)
		}
	}
	em := core.NewEmitter(ctx, out, o.self, o.out)
	if o.dense {
		// Every row of a base block, which outlives the run: pass the block
		// on as runs of dense views.
		em.AppendDense(b, o.projIdx)
		return nil
	}
	// Build a selection vector in pooled scratch (the identity without a
	// predicate), refine it through the LIP builds' tables, then materialize
	// the survivors.
	sp, _ := o.scratch.Get().(*selScratch)
	if sp != nil {
		out.ScratchHits++
	} else {
		sp = &selScratch{}
	}
	ec := expr.Ctx{B: b, Scalars: ctx.Scalars}
	var sel []int32
	if o.pred != nil {
		sel = sp.vec.Filter(o.pred, &ec, sp.sel)
	} else {
		sel = expr.SelectAll(b, sp.sel)
	}
	for _, l := range o.lips {
		ht := l.Build.HT()
		if ctx.Sim != nil && len(sel) > 0 {
			// Each table's probes are charged at its size, as a probe's are.
			out.Sim += ctx.Sim.RandomProbes(int64(len(sel)), ht.UsedBytes())
		}
		sel = sp.lip(b, l.KeyCol, ht, sel)
	}
	switch {
	case o.projIdx != nil && w.isBase:
		// Base blocks outlive the run: pass the rows on as a view.
		em.AppendView(b, sel, o.projIdx)
	case o.projIdx != nil:
		em.AppendMany(b, sel, o.projIdx)
	default:
		em.AppendColumns(sp.project(o.projExprs, &ec), sel)
		clear(sp.srcs) // a pooled scratch keeps no block alive
	}
	sp.sel = sel[:0] // keep the (possibly re-grown) backing array
	o.scratch.Put(sp)
	return nil
}

// String renders the operator for plan display.
func (o *SelectOp) String() string {
	src := "pipe"
	if o.base != nil {
		src = o.base.Name()
	}
	pred := ""
	if o.pred != nil {
		pred = " WHERE " + o.pred.String()
	}
	return fmt.Sprintf("select(%s)%s", src, pred)
}
