package exec

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/sorter"
	"repro/internal/storage"
	"repro/internal/types"
)

// SortTerm is one ORDER BY term.
type SortTerm struct {
	Key  expr.Expr
	Desc bool
}

const (
	// sortMaxMergeParts caps the range-partitioned merge fan-out.
	sortMaxMergeParts = 8
	// sortMinMergeRows is the minimum row count per merge partition; below
	// it extra partitions cost more in splitter overhead than they win.
	sortMinMergeRows = 4096
	// sortGatherBatch is how many merged rows are staged before a columnar
	// gather into the output blocks.
	sortGatherBatch = 1024
)

// SortOp is a blocking sort with an optional LIMIT (sort is inherently
// UoT = table, as the paper notes in Section V-B). Every spec runs one
// pipeline: ORDER BY terms — gathered columns, or computed expressions
// evaluated into the same scratch vectors — are encoded into normalized
// uint64 words, each fed block is sorted into a run in its own work order as
// input arrives (radix sort for single-word keys, a bounded top-k heap when
// Limit > 0), and the runs are k-way-merged through a columnar gather kernel
// in range-partitioned parallel work orders, whose outputs the scheduler
// routes in partition order (a Final wave routes in issue order). NewSort
// compiles the key layout from the term types once. Ties keep arrival order.
// (Normalized keys order -0.0 before +0.0, which a value comparison cannot
// distinguish.)
type SortOp struct {
	core.Base
	self     core.OpID
	name     string
	terms    []SortTerm
	limit    int
	schema   *storage.Schema
	blocks   []*storage.Block // every fed block, arrival order
	layout   sorter.Layout
	tieCols  []int // each approximate term's column, read in place by ties
	readCols []int

	mu      sync.Mutex
	runs    []sorter.Run   // each fed block's sorted run, indexed by run sequence
	scratch []*sortScratch // run-generation scratch free list
}

// sortScratch holds the reusable buffers of one run-generation work order.
type sortScratch struct {
	i64   []int64
	f64   []float64
	keys  []uint64
	ids   []int32
	kv    []sorter.KV
	kvTmp []sorter.KV
	vec   expr.Vectors
}

// SortSpec configures NewSort.
type SortSpec struct {
	Name string
	// InputSchema is the input (and output) schema.
	InputSchema *storage.Schema
	// Terms are the ORDER BY keys, highest priority first.
	Terms []SortTerm
	// Limit truncates the output (0 = no limit).
	Limit int
}

// UnsortableTermError rejects an ORDER BY term: a computed char term wider
// than 8 bytes, whose ties the sort could only break by evaluating the term
// again for every run. No TPC-H or SSB plan has one; sort on a projected
// column instead.
type UnsortableTermError struct {
	Term int
	Key  string
}

func (e *UnsortableTermError) Error() string {
	return fmt.Sprintf("exec: sort term %d (%s) is a computed char wider than 8 bytes", e.Term, e.Key)
}

// NewSort builds a sort operator, compiling the normalized-key layout from
// the term types. Char columns wider than 8 bytes make the layout
// approximate — prefix words plus a tie-break on the cells in place — which
// disables range-partitioned merging but keeps the vectorized run sort. It
// panics with an *UnsortableTermError on a computed char term wider than 8
// bytes.
func NewSort(spec SortSpec) *SortOp {
	if len(spec.Terms) == 0 {
		panic("exec: sort needs at least one term")
	}
	op := &SortOp{name: spec.Name, terms: spec.Terms, limit: spec.Limit, schema: spec.InputSchema}
	terms := make([]sorter.Term, len(spec.Terms))
	keys := make([]expr.Expr, len(spec.Terms))
	op.tieCols = make([]int, len(spec.Terms))
	for i, t := range spec.Terms {
		st := sorter.Term{Desc: t.Desc}
		switch t.Key.Type() {
		case types.Int64, types.Date:
			st.Type = sorter.Int64
		case types.Float64:
			st.Type = sorter.Float64
		case types.Char:
			st.Type, st.Width = sorter.Bytes, expr.CharWidth(t.Key)
			c, ok := expr.AsPrimaryColRef(t.Key)
			switch {
			case ok:
				op.tieCols[i] = c.Col
			case st.Width > 8:
				panic(&UnsortableTermError{Term: i, Key: t.Key.String()})
			}
		}
		terms[i], keys[i] = st, t.Key
	}
	op.layout = sorter.NewLayout(terms)
	op.readCols = expr.PrimaryCols(keys...)
	return op
}

func (o *SortOp) setID(id core.OpID) { o.self = id }

// Name implements core.Operator.
func (o *SortOp) Name() string { return o.name }

// OutSchema returns the output schema (same as input).
func (o *SortOp) OutSchema() *storage.Schema { return o.schema }

// Keeps implements core.Operator: the merge gathers rows out of every fed
// block in place, so the scheduler holds them, materialized, until the
// operator finishes.
func (o *SortOp) Keeps() core.Keep { return core.KeepUntilDone }

// Feed implements core.Operator: it buffers each block and issues one
// run-generation work order for it, so run sorting overlaps with upstream
// production.
func (o *SortOp) Feed(_ *core.ExecCtx, _ int, blocks []*storage.Block) []core.WorkOrder {
	wos := make([]core.WorkOrder, len(blocks))
	for i, b := range blocks {
		o.mu.Lock()
		seq := len(o.blocks)
		o.blocks = append(o.blocks, b)
		o.runs = append(o.runs, sorter.Run{Seq: int32(seq)})
		o.mu.Unlock()
		wos[i] = &sortRunWO{op: o, block: b, seq: seq}
	}
	return wos
}

// getScratch hands out a free run-generation scratch, creating one if none
// is available (one lock acquisition per block, like the agg partials).
func (o *SortOp) getScratch(out *core.Output) *sortScratch {
	o.mu.Lock()
	if n := len(o.scratch); n > 0 {
		sc := o.scratch[n-1]
		o.scratch = o.scratch[:n-1]
		o.mu.Unlock()
		out.ScratchHits++
		return sc
	}
	o.mu.Unlock()
	return &sortScratch{}
}

func (o *SortOp) putScratch(sc *sortScratch) {
	o.mu.Lock()
	o.scratch = append(o.scratch, sc)
	o.mu.Unlock()
}

// sortTie resolves approximate terms, char columns wider than 8 bytes, by
// comparing the cells in place: padded cells of one width order as their
// values do. Run indexes select the block, so callers align blocks with run
// order.
type sortTie struct {
	op     *SortOp
	blocks []*storage.Block
}

func (o *SortOp) newTie(blocks []*storage.Block) sorter.Tie {
	if o.layout.Exact {
		return nil
	}
	return &sortTie{op: o, blocks: blocks}
}

func (t *sortTie) Compare(term int, runA int, rowA int32, runB int, rowB int32) int {
	col := t.op.tieCols[term]
	c := bytes.Compare(t.blocks[runA].BytesAt(col, int(rowA)), t.blocks[runB].BytesAt(col, int(rowB)))
	if t.op.terms[term].Desc {
		c = -c
	}
	return c
}

// encodeBlock loads and normalizes every term of ec's n-row block into
// sc.keys (row-major, layout stride) and returns the key array.
func (o *SortOp) encodeBlock(ec *expr.Ctx, sc *sortScratch, n int) []uint64 {
	words := o.layout.Words
	if cap(sc.keys) < n*words {
		sc.keys = make([]uint64, n*words)
	}
	keys := sc.keys[:n*words]
	for t, term := range o.terms {
		switch o.layout.Terms[t].Type {
		case sorter.Int64:
			sc.i64 = sc.vec.Ints(term.Key, ec, sc.i64)
			o.layout.EncodeInt64(t, sc.i64, keys)
		case sorter.Float64:
			sc.f64 = sc.vec.Floats(term.Key, ec, sc.f64)
			o.layout.EncodeFloat64(t, sc.f64, keys)
		case sorter.Bytes:
			o.layout.EncodeBytes(t, n, sc.vec.Bytes(term.Key, ec).Bytes, keys)
		}
	}
	return keys
}

// sortRunWO sorts one fed block into a run: encode normalized keys, then
// radix-sort (single exact word), top-k (Limit > 0), or comparison-sort.
type sortRunWO struct {
	op    *SortOp
	block *storage.Block
	seq   int
}

func (w *sortRunWO) Inputs() []*storage.Block { return []*storage.Block{w.block} }

func (w *sortRunWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	// The fault site fires before any run state exists, so a faulted attempt
	// mutates nothing: the scheduler rolls it back and retries it.
	if err := ctx.FaultAt(faults.SortRun); err != nil {
		return err
	}
	b := w.block
	n := b.NumRows()
	out.RowsIn = int64(n)
	if ctx.Sim != nil {
		out.Sim += ctx.Sim.ConsumedSeq(b, readBytes(b, o.readCols))
	}
	run := sorter.Run{Seq: int32(w.seq)}
	if n > 0 {
		sc := o.getScratch(out)
		words := o.layout.Words
		tie := o.newTie([]*storage.Block{b})
		keys := o.encodeBlock(&expr.Ctx{B: b, Scalars: ctx.Scalars}, sc, n)
		switch {
		case o.limit > 0:
			// Dedicated top-k: the run never materializes more than Limit
			// rows, and rejected rows are counted as pruned.
			tk := sorter.NewTopK(o.limit, &o.layout, 0, tie)
			var pruned int64
			for i := 0; i < n; i++ {
				if !tk.Offer(keys[i*words:(i+1)*words], int32(i)) {
					pruned++
				}
			}
			run.Keys, run.Rows = tk.Sorted()
			out.TopKPruned += pruned
		case words == 1 && o.layout.Exact:
			if cap(sc.kv) < n {
				sc.kv = make([]sorter.KV, n)
			}
			if cap(sc.kvTmp) < n {
				sc.kvTmp = make([]sorter.KV, n)
			}
			kv := sc.kv[:n]
			for i := 0; i < n; i++ {
				kv[i] = sorter.KV{Key: keys[i], ID: int32(i)}
			}
			sorted := sorter.SortKVs(kv, sc.kvTmp[:n])
			rk := make([]uint64, n)
			rr := make([]int32, n)
			for i, it := range sorted {
				rk[i], rr[i] = it.Key, it.ID
			}
			run.Keys, run.Rows = rk, rr
		default:
			if cap(sc.ids) < n {
				sc.ids = make([]int32, n)
			}
			ids := sc.ids[:n]
			for i := range ids {
				ids[i] = int32(i)
			}
			sorter.SortRows(&o.layout, keys, ids, 0, tie)
			rk := make([]uint64, 0, n*words)
			rr := make([]int32, n)
			for i, id := range ids {
				rk = append(rk, keys[int(id)*words:(int(id)+1)*words]...)
				rr[i] = id
			}
			run.Keys, run.Rows = rk, rr
		}
		o.putScratch(sc)
	}
	o.mu.Lock()
	o.runs[w.seq] = run
	o.mu.Unlock()
	out.SortRuns++
	out.SortFastRows += int64(n)
	return nil
}

// Final implements core.Operator. It plans the k-way merge: sample splitters
// over the sorted runs and fan out one range-partitioned merge work order per
// partition (a single partition when a LIMIT bounds the output or an
// approximate layout prevents word-only range comparison).
func (o *SortOp) Final(ctx *core.ExecCtx) []core.WorkOrder {
	total := 0
	for i := range o.runs {
		total += o.runs[i].Len()
	}
	parts := 1
	if o.limit == 0 && o.layout.Exact && ctx.Workers > 1 {
		parts = ctx.Workers
		if parts > sortMaxMergeParts {
			parts = sortMaxMergeParts
		}
		if byRows := total/sortMinMergeRows + 1; parts > byRows {
			parts = byRows
		}
	}
	splits := sorter.Splitters(o.runs, &o.layout, parts)
	bounds := make([][]uint64, 0, len(splits)+2)
	bounds = append(bounds, nil)
	bounds = append(bounds, splits...)
	bounds = append(bounds, nil)
	np := len(bounds) - 1
	wos := make([]core.WorkOrder, np)
	for p := 0; p < np; p++ {
		wos[p] = &sortMergeWO{op: o, lo: bounds[p], hi: bounds[p+1]}
	}
	return wos
}

// sortMergeWO merges one key range of every run and appends it, a batch of
// merged rows at a time, through an emitter (Block.AppendRows gathers it
// column at a time). It seals its last partial block rather than checking
// it in, so as a Final work order its blocks reach the out-edges in
// partition order.
type sortMergeWO struct {
	op     *SortOp
	lo, hi []uint64 // partition bounds as key tuples; nil = open end
}

func (w *sortMergeWO) Inputs() []*storage.Block { return w.op.blocks }

func (w *sortMergeWO) Run(ctx *core.ExecCtx, out *core.Output) error {
	o := w.op
	out.SortMergeFanout++
	runs := o.runs
	lo := make([]int, len(runs))
	hi := make([]int, len(runs))
	for i := range runs {
		if w.lo != nil {
			lo[i] = sorter.LowerBound(&runs[i], &o.layout, w.lo)
		}
		if w.hi != nil {
			hi[i] = sorter.LowerBound(&runs[i], &o.layout, w.hi)
		} else {
			hi[i] = runs[i].Len()
		}
	}
	m := sorter.NewMerge(runs, &o.layout, o.newTie(o.blocks), lo, hi)

	proj := make([]int, o.schema.NumCols())
	for i := range proj {
		proj[i] = i
	}
	remaining := -1
	if o.limit > 0 {
		remaining = o.limit // single partition when limited, so this is global
	}
	em := core.NewEmitter(ctx, out, o.self, o.schema)
	var srcBuf [sortGatherBatch]*storage.Block
	var rowBuf [sortGatherBatch]int32
	for {
		bn := 0
		for bn < sortGatherBatch && remaining != 0 {
			run, row, ok := m.Next()
			if !ok {
				break
			}
			srcBuf[bn], rowBuf[bn] = o.blocks[run], row
			bn++
			if remaining > 0 {
				remaining--
			}
		}
		if bn == 0 {
			break
		}
		em.AppendRows(srcBuf[:bn], rowBuf[:bn], proj)
	}
	em.Seal()
	return nil
}

// Cleanup implements core.Operator.
func (o *SortOp) Cleanup(*core.ExecCtx) {
	o.blocks, o.runs, o.scratch = nil, nil, nil
}

// String renders the operator.
func (o *SortOp) String() string {
	s := fmt.Sprintf("sort(%s,%d terms)", o.name, len(o.terms))
	if o.limit > 0 {
		s += fmt.Sprintf(" limit %d", o.limit)
	}
	return s
}
