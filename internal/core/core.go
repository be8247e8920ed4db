// Package core implements the paper's primary contribution: a Quickstep-style
// push scheduler for relational work orders in which the unit of transfer
// (UoT) between a producer and a consumer operator is an explicit parameter.
//
// A query is a DAG of operators connected by edges. Pipelined edges carry
// storage blocks and have a UoT value: the scheduler buffers the producer's
// output blocks per edge and hands them to the consumer only in groups of
// UoT blocks (partially filled blocks are handed over when the producer
// finishes, as in the paper). UoT = 1 block is what the literature calls
// "pipelining"; UoT = the whole intermediate table is "blocking"; everything
// in between is equally valid — the spectrum of Fig. 1. Blocking edges carry
// no blocks and only order operators (hash-table readiness, scalar-subquery
// values).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cachesim"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/types"
)

// UoTTable is the UoT value meaning "the entire intermediate table": the
// consumer sees no data until the producer operator has completely finished.
const UoTTable = int(^uint(0) >> 1) // max int

// OpID identifies an operator within a plan.
type OpID int

// Task is one unit of work a run submits to a WorkerPool: a closure the pool
// runs exactly once on one of its workers, labeled with the submitting query
// and its priority class so a shared pool can dispatch fairly across
// concurrent queries.
type Task struct {
	// Query identifies the submitting query (ExecCtx.Query).
	Query int
	// Priority is the query's priority class; higher runs first
	// (ExecCtx.Priority).
	Priority int
	// Run executes the work; worker is the pool worker index it landed on
	// (for worker-attributed tracing).
	Run func(worker int)
}

// ExecCtx carries the per-run execution environment into work orders.
type ExecCtx struct {
	// Pool is the global temporary-block pool (Section III-A).
	Pool *storage.Pool
	// Sim, if non-nil, is the memory-hierarchy model that work orders
	// charge with their access summaries.
	Sim *cachesim.Sim
	// Run collects statistics.
	Run *stats.Run
	// Scalars holds scalar-subquery results by slot; the scheduler fills a
	// slot when its providing operator finishes, strictly before any
	// operator gated on it starts.
	Scalars []types.Datum
	// TempBlockBytes and TempFormat describe temporary output blocks. The
	// paper uses the row-store format for temporaries regardless of the
	// base-table format (Section IV-B).
	TempBlockBytes int
	TempFormat     storage.Format
	// Workers is the number of worker threads (T in the model): the run's
	// in-flight task cap, and the size of the pool Run starts when Exec is
	// nil.
	Workers int
	// Exec, if non-nil, is a worker pool shared across concurrent runs. Nil
	// means Run starts a WorkerPool of Workers goroutines for this run alone
	// and closes it on return.
	Exec *WorkerPool
	// Query identifies this run among concurrent runs sharing a worker pool,
	// a storage pool, or a tracer; it labels submitted tasks. 0 is a valid
	// id (the single-query default).
	Query int
	// Priority is the run's dispatch priority class on a shared worker pool;
	// higher is served first. Within a class the pool is fair.
	Priority int
	// TraceRun is the tracer section handle (from Tracer.OpenRun) this run
	// records into, so concurrent runs can share one tracer. When Trace is
	// set and TraceRun is 0, Run opens an unlabeled section and stores its
	// handle here.
	TraceRun int32

	// Trace, if non-nil, receives work-order span events, per-edge gauge
	// samples, and scheduler annotations (see internal/trace). A nil tracer
	// is fully disabled: every recording call is a nil-check no-op and the
	// scheduler takes no timestamps beyond what it already takes.
	Trace *trace.Tracer

	// Ctx, if non-nil, cancels the whole run: the scheduler stops
	// dispatching, drops queued work orders, and emitters abort in-flight
	// work orders at block-materialization boundaries.
	Ctx context.Context
	// Faults, if non-nil, is the deterministic fault injector operators
	// consult at named sites (see internal/faults).
	Faults *faults.Injector
}

// Canceled returns the run-level cancellation error, if the context was
// canceled or its deadline has passed, else nil. The deadline is read off
// the clock: the runtime's timer may close Done late on a loaded host, late
// enough for a short run to finish past its deadline.
func (c *ExecCtx) Canceled() error {
	if c.Ctx == nil {
		return nil
	}
	select {
	case <-c.Ctx.Done():
		return c.Ctx.Err()
	default:
	}
	if dl, ok := c.Ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// FaultAt consults the fault injector at a named site; nil without an
// injector. Call it strictly before mutating shared operator state, so a
// failed attempt can be re-dispatched without rollback of that state.
func (c *ExecCtx) FaultAt(site faults.Site) error {
	if c.Faults == nil {
		return nil
	}
	return c.Faults.At(site)
}

// Output collects what one work-order execution produced: sealed full output
// blocks, simulated ticks, row counts, and the hot-path kernel counters
// (recorded into stats and the tracer so cmd/uotbench and /metrics can report
// lock traffic and kernel row counts).
type Output struct {
	Blocks  []*storage.Block
	Sim     int64
	RowsIn  int64
	RowsOut int64

	// Kernel is bumped by operator code through the promoted fields
	// (out.AggFastRows += n, out.ScratchHits++, ...).
	stats.Kernel

	// emitters registers every Emitter the work order created, so Finish
	// can close them on success or roll their blocks back on failure.
	emitters []*Emitter
}

// Finish completes one work-order attempt's materialization and must be
// called exactly once after Run, with Run's error. On success every emitter
// checks its partial block into the pool (what Emitter.Close used to do at
// the end of each work order); on failure every block the attempt touched is
// rolled back — fresh blocks are released, resumed partials truncated to
// their pre-attempt row count — and the output cleared, so a retry (or a
// concurrent work order of the same operator) never observes the failed
// attempt's rows or kernel counters. The scheduler calls Finish from the
// worker goroutine; code that runs work orders by hand (tests, benchmarks)
// must call it too.
func (o *Output) Finish(err error) {
	for _, e := range o.emitters {
		if err != nil {
			e.rollback()
		} else {
			e.Close()
		}
	}
	o.emitters = nil
	if err != nil {
		o.Blocks = nil
		o.RowsIn = 0
		o.RowsOut = 0
		o.Kernel = stats.Kernel{}
	}
}

// WorkOrder is one schedulable unit of operator logic applied to specific
// inputs (Section III).
type WorkOrder interface {
	// Run executes the work order. It must be safe to run concurrently
	// with other work orders (of this and other operators). A returned
	// error fails the attempt; errors classified transient (see
	// IsTransient) are rolled back and re-queued, up to maxAttempts
	// executions.
	// The retry contract: a work order must not mutate shared operator
	// state before a point where it can still fail transiently —
	// fault-injection sites fire first, and emitter output is rolled back
	// by Output.Finish.
	Run(ctx *ExecCtx, out *Output) error
	// Inputs returns the fed blocks this work order reads; nil for
	// base-table inputs. They are released when it succeeds (or the run
	// aborts), never earlier, so a retried attempt re-reads them; later if
	// its operator Keeps them longer.
	Inputs() []*storage.Block
}

// Operator is a relational operator node driven by the scheduler. All
// methods except work-order Run are invoked under the run's lock, so
// implementations need no locking for their own state.
type Operator interface {
	// Name returns a short display name ("select(lineitem)").
	Name() string
	// Start is called once, when every blocking dependency of the operator
	// has resolved; leaf operators return their full set of work orders.
	Start(ctx *ExecCtx) []WorkOrder
	// Feed delivers a group of blocks (one UoT) on a pipelined input and
	// returns the work orders to process them.
	Feed(ctx *ExecCtx, input int, blocks []*storage.Block) []WorkOrder
	// Final is called once after all inputs are done and all previous work
	// orders completed; blocking operators (aggregation, sort) return
	// their finishing work orders.
	Final(ctx *ExecCtx) []WorkOrder
	// ScalarValue returns the operator's scalar result, if it provides one
	// (valid only after the operator is done).
	ScalarValue() (types.Datum, bool)
	// Keeps says how long the operator reads a block fed to it; the
	// scheduler alone acts on the answer (see Keep).
	Keeps() Keep
	// Cleanup releases operator-owned resources; called when the operator
	// and all work orders are finished.
	Cleanup(ctx *ExecCtx)
}

// Keep is how long an operator reads a block fed to it: when the scheduler
// drops the operator's ref on the block, and what it does to the block
// before.
type Keep uint8

const (
	// KeepWorkOrder: until the work order that lists it in Inputs succeeds.
	KeepWorkOrder Keep = iota
	// KeepUntilDone: until the operator finishes. A sort merges out of its
	// fed blocks in place, so a view is materialized for it.
	KeepUntilDone
	// KeepForReaders: until the operator and every operator behind its
	// blocking edges finish (a join build's table indexes its fed blocks,
	// views included, for its probes). A partial block is cut to its rows,
	// and one the operator alone reads counts in the run's HashTables once
	// its work order completes. A key-only table sealed dense reads none.
	KeepForReaders
	// KeepAdopted: past the run (the result sink and reuse taps take blocks
	// in Feed, without work orders). A view is materialized for it; a
	// successful run hands the block out of the pool, a failed one releases
	// it.
	KeepAdopted
)

// Base provides default implementations of the optional Operator methods.
type Base struct{}

// Start implements Operator.
func (Base) Start(*ExecCtx) []WorkOrder { return nil }

// Feed implements Operator.
func (Base) Feed(*ExecCtx, int, []*storage.Block) []WorkOrder { return nil }

// Final implements Operator.
func (Base) Final(*ExecCtx) []WorkOrder { return nil }

// ScalarValue implements Operator.
func (Base) ScalarValue() (types.Datum, bool) { return types.Datum{}, false }

// Keeps implements Operator.
func (Base) Keeps() Keep { return KeepWorkOrder }

// Cleanup implements Operator.
func (Base) Cleanup(*ExecCtx) {}

// EdgeKind distinguishes data-carrying from ordering-only edges.
type EdgeKind uint8

const (
	// Pipelined edges carry blocks, grouped by the UoT value.
	Pipelined EdgeKind = iota
	// Blocking edges carry no blocks; the consumer cannot start until the
	// producer operator is completely finished (build→probe readiness,
	// scalar parameters, LIP filter availability).
	Blocking
)

// Edge connects a producer operator to a consumer operator.
type Edge struct {
	From    OpID
	To      OpID
	ToInput int // pipelined input index at the consumer
	Kind    EdgeKind
	// UoT is the per-edge unit of transfer in blocks; 0 means "use the
	// run's default", UoTTable means the whole intermediate table.
	UoT int
}

// Plan is a DAG of operators. Operator IDs are indices into Ops.
type Plan struct {
	Ops   []Operator
	Edges []Edge
	// ScalarSlots maps scalar parameter slots to providing operators.
	ScalarSlots []OpID
}

// AddOp appends an operator and returns its ID.
func (p *Plan) AddOp(op Operator) OpID {
	p.Ops = append(p.Ops, op)
	return OpID(len(p.Ops) - 1)
}

// Pipe adds a pipelined edge from producer to consumer input toInput with a
// per-edge UoT override (0 = run default).
func (p *Plan) Pipe(from, to OpID, toInput, uot int) {
	p.Edges = append(p.Edges, Edge{From: from, To: to, ToInput: toInput, Kind: Pipelined, UoT: uot})
}

// Block adds a blocking (ordering-only) edge.
func (p *Plan) Block(from, to OpID) {
	p.Edges = append(p.Edges, Edge{From: from, To: to, Kind: Blocking})
}

// AddScalar registers op as the provider of a new scalar slot and returns
// the slot index.
func (p *Plan) AddScalar(op OpID) int {
	p.ScalarSlots = append(p.ScalarSlots, op)
	return len(p.ScalarSlots) - 1
}

// Emitter materializes an operator's output into temporary blocks via the
// pool, sealing full blocks into the work order's Output and checking
// partial blocks back in for the next work order of the same operator (or
// sealing them too, see Seal). It is the only writer of work-order output.
//
// The emitter tracks what the current attempt acquired — the row count of
// the resumed block at checkout, plus every block it sealed — so a failed
// attempt can be rolled back block-exactly (see Output.Finish). It is also
// the work order's cooperative interruption point: each block checkout
// observes run cancellation and the block-materialize fault site.
type Emitter struct {
	ctx     *ExecCtx
	out     *Output
	owner   int
	schema  *storage.Schema
	proj    []int // set by AppendView and AppendDense: the emitter fills views projecting proj
	dense   bool  // set by AppendDense: the views are dense
	cur     *storage.Block
	curBase int // rows already in cur when it was checked out
	sealed  []sealedBlock
}

// sealedBlock remembers a block sealed by this attempt and how many rows it
// held before the attempt appended to it (nonzero when a resumed partial
// filled up and sealed).
type sealedBlock struct {
	b    *storage.Block
	base int
}

// NewEmitter returns an emitter writing blocks of schema for operator owner,
// registered in out for end-of-attempt finish/rollback.
func NewEmitter(ctx *ExecCtx, out *Output, owner OpID, schema *storage.Schema) *Emitter {
	e := &Emitter{ctx: ctx, out: out, owner: int(owner), schema: schema}
	out.emitters = append(out.emitters, e)
	return e
}

func (e *Emitter) ensure() *storage.Block {
	if e.cur == nil {
		e.interrupt()
		if e.proj != nil {
			e.cur = e.ctx.Pool.CheckOutView(e.owner, e.schema, e.proj, e.dense, e.ctx.TempFormat, e.ctx.TempBlockBytes)
		} else {
			e.cur = e.ctx.Pool.CheckOut(e.owner, e.schema, e.ctx.TempFormat, e.ctx.TempBlockBytes)
		}
		e.curBase = e.cur.NumRows()
	}
	return e.cur
}

// interrupt aborts the work order at a block-materialization boundary when
// the run is canceled or the injector fires at the block-materialize site.
// It unwinds through operator code via a typed panic that runSafely converts
// back into the underlying error; the attempt's blocks are then rolled back
// by Output.Finish.
func (e *Emitter) interrupt() {
	if err := e.ctx.Canceled(); err != nil {
		panic(&woAbort{err})
	}
	if err := e.ctx.FaultAt(faults.BlockMaterialize); err != nil {
		panic(&woAbort{err})
	}
}

func (e *Emitter) seal() {
	b := e.cur
	e.sealed = append(e.sealed, sealedBlock{b: b, base: e.curBase})
	e.cur, e.curBase = nil, 0
	e.out.Blocks = append(e.out.Blocks, b)
	if e.ctx.Sim != nil {
		e.out.Sim += e.ctx.Sim.Produced(b, int64(b.UsedBytes()))
	}
}

// fill appends the caller's n rows through app, which appends them from
// row at onward to b and returns how many it took — zero when b is full. It
// seals and replaces full blocks until every row lands: a resumed partial
// from the pool may itself be exactly full (Close checks it in as a
// partial), so one seal-and-retry is not enough. Every appender runs this
// one loop, so each seals exactly where appending rows one at a time would.
func (e *Emitter) fill(n int, app func(b *storage.Block, at int) int) {
	for at := 0; at < n; {
		took := app(e.ensure(), at)
		if took == 0 {
			e.seal()
			continue
		}
		at += took
		e.out.RowsOut += int64(took)
	}
}

// AppendRow appends a materialized row.
func (e *Emitter) AppendRow(vals ...types.Datum) {
	e.fill(1, func(b *storage.Block, _ int) int {
		if b.AppendRow(vals...) {
			return 1
		}
		return 0
	})
}

// AppendMany bulk-appends the projection projIdx of the given src rows (the
// select operator's materialization; see Block.AppendFromMany for the
// projection contract).
func (e *Emitter) AppendMany(src *storage.Block, rows []int32, projIdx []int) {
	e.fill(len(rows), func(b *storage.Block, at int) int {
		return b.AppendFromMany(src, rows[at:], projIdx)
	})
}

// AppendView appends the given rows of base-table block src, projected
// through proj, as rows of views (see Pool.CheckOutView): the select's
// output when it only renames base columns. Views hold as many rows as the
// temp blocks AppendMany fills and seal at the same rows, so the blocks,
// deliveries and work orders downstream are the same; they copy no cells.
// An emitter appends only views once it has appended one.
func (e *Emitter) AppendView(src *storage.Block, rows []int32, proj []int) {
	e.proj = proj
	e.fill(len(rows), func(b *storage.Block, at int) int {
		return b.AppendView(src, rows[at:])
	})
}

// AppendDense appends every row of base-table block src, projected through
// proj, as runs of dense views (see Pool.CheckOutView): a select's output
// when it neither filters nor computes. They split src where AppendView of
// its every row would. An emitter appends only dense views once it has
// appended one.
func (e *Emitter) AppendDense(src *storage.Block, proj []int) {
	e.proj, e.dense = proj, true
	e.fill(src.NumRows(), func(b *storage.Block, at int) int {
		return b.AppendDense(src, at)
	})
}

// AppendPairs bulk-appends joined tuples (see Block.AppendPairs).
func (e *Emitter) AppendPairs(l *storage.Block, lrows []int32, lproj []int, rs []*storage.Block, rrows []int32, rproj []int) {
	e.fill(len(lrows), func(b *storage.Block, at int) int {
		return b.AppendPairs(l, lrows[at:], lproj, rs[at:], rrows[at:], rproj)
	})
}

// AppendRows bulk-appends rows gathered from many source blocks (see
// Block.AppendRows): the sort merge's output.
func (e *Emitter) AppendRows(srcs []*storage.Block, rows []int32, proj []int) {
	e.fill(len(rows), func(b *storage.Block, at int) int {
		return b.AppendRows(srcs[at:], rows[at:], proj)
	})
}

// AppendColumns bulk-appends the given rows of computed columns (see
// Block.AppendColumns).
func (e *Emitter) AppendColumns(srcs []storage.ColSource, rows []int32) {
	e.fill(len(rows), func(b *storage.Block, at int) int {
		return b.AppendColumns(srcs, rows[at:])
	})
}

// Seal seals the current partial block into the work order's Output instead
// of leaving it for Close to check in, so no later work order of the
// operator appends to it: the sort merge's range partitions each end with
// their own last block and reach the out-edges in partition order.
func (e *Emitter) Seal() {
	if e.cur != nil {
		e.seal()
	}
}

// Close checks the current partial block back into the pool. Called by
// Output.Finish at the end of every successful work-order attempt (operator
// code no longer calls it directly, so that a failed attempt rolls back
// instead of checking a poisoned partial into the shared pool).
func (e *Emitter) Close() {
	e.sealed = nil
	if e.cur == nil {
		return
	}
	if e.cur.NumRows() == 0 {
		e.ctx.Pool.Release(e.cur)
		e.cur, e.curBase = nil, 0
		return
	}
	e.ctx.Pool.CheckIn(e.owner, e.cur)
	e.cur, e.curBase = nil, 0
}

// rollback undoes the attempt's materialization: blocks the attempt checked
// out fresh go back to the pool empty, resumed partials are truncated to
// their pre-attempt row count and checked back in. It runs in the worker
// goroutine before the result is reported, so neither a retry nor a
// concurrent work order of the same operator can resume a block holding the
// failed attempt's rows.
func (e *Emitter) rollback() {
	if e.cur != nil {
		e.undo(e.cur, e.curBase)
		e.cur, e.curBase = nil, 0
	}
	for _, s := range e.sealed {
		e.undo(s.b, s.base)
	}
	e.sealed = nil
}

func (e *Emitter) undo(b *storage.Block, base int) {
	b.Truncate(base)
	if base > 0 {
		e.ctx.Pool.CheckIn(e.owner, b)
	} else {
		e.ctx.Pool.Release(b)
	}
}

// woAbort carries an abort error from deep kernel code with no error return
// path (emitter interruption points) up to runSafely, which unwraps it
// without treating it as a programming-error panic.
type woAbort struct{ err error }

// PanicError is a recovered work-order panic with the goroutine stack
// captured at the panic site (satisfying the "panics must be diagnosable"
// requirement: the stack is attached, not lost).
type PanicError struct {
	Val   any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: work order panicked: %v\n%s", e.Val, e.Stack)
}

// Unwrap exposes a panic value that was itself an error (an injected
// KindPanic fault unwraps to its *faults.Fault, keeping it transient).
func (e *PanicError) Unwrap() error {
	err, _ := e.Val.(error)
	return err
}

// IsTransient reports whether err is safe to retry: some error in its chain
// implements Transient() true. Injected faults are transient;
// programming-error panics and context cancellation are not.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(interface{ Transient() bool }); ok && t.Transient() {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}
