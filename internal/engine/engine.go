// Package engine ties the pieces together: a DB holds the catalog and
// storage settings, a Builder wires operators into plans, and Execute runs a
// plan on the core scheduler with a chosen worker count and unit of
// transfer.
package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/reuse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/types"
)

// Options configures one query execution.
type Options struct {
	// Workers is the number of worker goroutines (T). Default 1.
	Workers int
	// UoTBlocks is the default unit of transfer in blocks for every
	// pipelined edge that does not override it: 1 reproduces classic
	// "pipelining", core.UoTTable reproduces classic "blocking", anything
	// in between is a point on the paper's spectrum. Default 1. Every edge
	// keeps its UoT for the whole run.
	UoTBlocks int
	// TempBlockBytes is the temporary-block size. Default 128 KB.
	TempBlockBytes int
	// TempFormat is the temporary-block layout; the paper uses the row
	// store for temporaries regardless of base-table format.
	TempFormat storage.Format
	// Sim, if non-nil, charges work orders with simulated memory-hierarchy
	// costs.
	Sim *cachesim.Sim
	// MemoryBudget, if positive, softly caps live temporary-block bytes:
	// block-producing work orders are held while consumers drain (a
	// Section III-C scheduler policy). A producer held too often in a row
	// is dispatched anyway; the budget never changes an edge's UoT.
	MemoryBudget int64
	// Context, if non-nil, cancels the whole run when done: queued work
	// orders are dropped and Execute returns the cancellation error.
	Context context.Context
	// Faults, if non-nil, is a deterministic fault injector consulted by
	// operators and the block emitter at named sites (chaos testing).
	Faults *faults.Injector
	// MaxAttempts bounds executions per work order: a transient failure
	// (an injected fault) is rolled back and retried with
	// exponential backoff up to MaxAttempts total attempts. 0 or 1 disables
	// retry.
	MaxAttempts int
	// RetryBackoff is the base re-dispatch delay after a transient failure,
	// doubling per attempt (capped at 100ms). Default 1ms.
	RetryBackoff time.Duration
	// Trace, if non-nil, collects this execution's observability events —
	// per-work-order spans, per-edge gauge samples, scheduler annotations —
	// into the tracer's ring buffer (see internal/trace). One tracer may be
	// shared across executions; each one becomes its own trace section.
	// A nil tracer costs nothing (no timestamps, no allocations).
	Trace *trace.Tracer
	// TraceLabel names this execution's section in the trace ("Q3 uot=4").
	TraceLabel string

	// Reuse, if non-nil, is the cross-query result cache (see internal/reuse):
	// before the run, cached subplan results are spliced into the plan in
	// place of the subtrees that would recompute them; after a successful
	// run, results the plan materialized anyway are offered back.
	Reuse *reuse.Cache

	// Exec, if non-nil, runs this query's work orders on a worker pool
	// shared across concurrent queries; Workers then caps the query's
	// in-flight work orders. Nil runs them on a pool of Workers goroutines
	// started for this execution alone. Either way the query's work orders
	// are dispatched under the run's lock, by the caller at start and then
	// by the worker that finished the previous one. See internal/session for
	// the serving layer built on it.
	Exec *core.WorkerPool
	// Pool, if non-nil, is the global temp-block pool this execution draws
	// from through a per-query Subpool view (isolated partial-block
	// namespace and per-query gauge, shared global gauge). Nil gives the
	// execution a private root pool for its partials and gauge. Either way
	// block allocations recycle through the process-wide freelist. The
	// pool's owner owns everything attached to it: recycling policy
	// (storage.Pool.DisableRecycling) and the spill tier
	// (storage.Pool.EnableSpill / CloseSpill).
	Pool *storage.Pool
	// QueryID identifies the query among concurrent executions sharing
	// Exec, Pool, or Trace: when positive it labels the run's stats snapshot
	// and its trace section, and it labels its submitted tasks. 0 leaves the
	// run unlabeled (trace query -1).
	QueryID int
	// Priority is the query's dispatch priority class on the shared
	// worker pool (higher first; fair within a class).
	Priority int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.UoTBlocks <= 0 {
		o.UoTBlocks = 1
	}
	if o.TempBlockBytes <= 0 {
		o.TempBlockBytes = 128 << 10
	}
	return o
}

// Result is the outcome of one execution.
type Result struct {
	Table *storage.Table
	Run   *stats.Run
}

// Execute runs a built plan and returns the collected result.
func Execute(b *Builder, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if b.collect == nil {
		return nil, fmt.Errorf("engine: plan has no Collect sink")
	}
	run := stats.NewRun()
	var pool *storage.Pool
	if opts.Pool != nil {
		pool = opts.Pool.Subpool(&run.Intermediates, run.AddCheckout)
	} else {
		pool = storage.NewPool(&run.Intermediates, run.AddCheckout)
	}
	query := -1
	if opts.QueryID > 0 {
		query = opts.QueryID
		run.SetQuery(query, opts.TraceLabel)
	}
	traceRun := opts.Trace.OpenRun(opts.TraceLabel, query)
	// A hit pins its cache entry until rs.finalize, which every path below
	// reaches.
	rs := prepareReuse(b, opts)
	if rs != nil && rs.hit {
		opts.Trace.MarkIn(traceRun, trace.MarkReuseHit,
			trace.Event{Rows: rs.splicedOps, RowsOut: rs.hitBytes})
	}
	ctx := &core.ExecCtx{
		Pool:           pool,
		Sim:            opts.Sim,
		Run:            run,
		TempBlockBytes: opts.TempBlockBytes,
		TempFormat:     opts.TempFormat,
		Workers:        opts.Workers,
		Exec:           opts.Exec,
		Query:          opts.QueryID,
		Priority:       opts.Priority,
		TraceRun:       traceRun,
		MemoryBudget:   opts.MemoryBudget,
		Trace:          opts.Trace,
		Ctx:            opts.Context,
		Faults:         opts.Faults,
		MaxAttempts:    opts.MaxAttempts,
		RetryBackoff:   opts.RetryBackoff,
	}
	err := core.Run(b.plan, ctx, opts.UoTBlocks)
	run.Finish()
	if opts.Faults != nil {
		run.AddFaults(opts.Faults.Injected())
	}
	if rs != nil {
		rs.finalize(b, pool, run, opts.Trace, traceRun, err == nil)
	}
	if err != nil {
		return nil, err
	}
	// The result table's blocks leave the pool with the client: stop counting
	// them as live intermediates, or a shared pool's memory picture grows by
	// every result ever returned. (Failed runs instead release adopted blocks
	// in cleanup.)
	pool.Disown(b.collect.Result().AllocBytes())
	return &Result{Table: b.collect.Result(), Run: run}, nil
}

// DB holds the catalog plus the physical settings base tables are created
// with.
type DB struct {
	Catalog    *storage.Catalog
	BlockBytes int
	Format     storage.Format
}

// NewDB returns an empty database whose tables use the given block size and
// format.
func NewDB(blockBytes int, format storage.Format) *DB {
	return &DB{Catalog: storage.NewCatalog(), BlockBytes: blockBytes, Format: format}
}

// CreateTable registers and returns a new empty table.
func (db *DB) CreateTable(name string, schema *storage.Schema) *storage.Table {
	t := storage.NewTable(name, schema, db.Format, db.BlockBytes)
	db.Catalog.Add(t)
	return t
}

// Node is a handle to an operator in a plan under construction.
type Node struct {
	ID     core.OpID
	Schema *storage.Schema
	op     core.Operator
}

// Builder wires operators into a core.Plan, adding the pipelined and
// blocking edges each operator kind needs.
type Builder struct {
	plan    *core.Plan
	collect *exec.CollectOp
}

// NewBuilder returns an empty plan builder.
func NewBuilder() *Builder { return &Builder{plan: &core.Plan{}} }

// Plan returns the underlying plan (for custom wiring).
func (b *Builder) Plan() *core.Plan { return b.plan }

// Select adds a select operator. If spec.Base is nil, `from` must name the
// pipelined input node (whose schema becomes spec.InputSchema).
func (b *Builder) Select(from *Node, spec exec.SelectSpec) *Node {
	if spec.Base == nil {
		if from == nil {
			panic("engine: piped select needs an input node")
		}
		spec.InputSchema = from.Schema
	}
	op := exec.NewSelect(spec)
	id := exec.AddOp(b.plan, op)
	if spec.Base == nil {
		b.plan.Pipe(from.ID, id, 0, 0)
	}
	// LIP filters require the referenced builds to complete first.
	for _, l := range spec.LIPs {
		b.plan.Block(b.mustFind(l.Build), id)
	}
	return &Node{ID: id, Schema: op.OutSchema(), op: op}
}

// ScanSelect adds a base-table select.
func (b *Builder) ScanSelect(spec exec.SelectSpec) *Node { return b.Select(nil, spec) }

// Build adds a hash-table build over `from`.
func (b *Builder) Build(from *Node, spec exec.BuildSpec) (*Node, *exec.BuildHashOp) {
	spec.InputSchema = from.Schema
	op := exec.NewBuildHash(spec)
	id := exec.AddOp(b.plan, op)
	b.plan.Pipe(from.ID, id, 0, 0)
	return &Node{ID: id, Schema: from.Schema, op: op}, op
}

// Probe adds a probe of `build` with pipelined input `from`. The blocking
// build→probe edge is added automatically.
func (b *Builder) Probe(from *Node, build *Node, spec exec.ProbeSpec) *Node {
	spec.InputSchema = from.Schema
	spec.Build = build.op.(*exec.BuildHashOp)
	op := exec.NewProbe(spec)
	id := exec.AddOp(b.plan, op)
	b.plan.Pipe(from.ID, id, 0, 0)
	b.plan.Block(build.ID, id)
	return &Node{ID: id, Schema: op.OutSchema(), op: op}
}

// Agg adds a hash aggregation over `from`.
func (b *Builder) Agg(from *Node, spec exec.AggOpSpec) *Node {
	spec.InputSchema = from.Schema
	op := exec.NewAgg(spec)
	id := exec.AddOp(b.plan, op)
	b.plan.Pipe(from.ID, id, 0, 0)
	return &Node{ID: id, Schema: op.OutSchema(), op: op}
}

// Scalar registers `from` (a scalar aggregate) as a scalar-parameter
// provider and returns the slot to reference with expr.Param. `to`-side
// gating happens in Gate.
func (b *Builder) Scalar(from *Node) int { return b.plan.AddScalar(from.ID) }

// Gate adds a blocking edge: `to` cannot start until `from` finishes (used
// for scalar parameters and custom ordering).
func (b *Builder) Gate(from, to *Node) { b.plan.Block(from.ID, to.ID) }

// Sort adds a sort (with optional limit) over `from`.
func (b *Builder) Sort(from *Node, spec exec.SortSpec) *Node {
	spec.InputSchema = from.Schema
	op := exec.NewSort(spec)
	id := exec.AddOp(b.plan, op)
	b.plan.Pipe(from.ID, id, 0, 0)
	return &Node{ID: id, Schema: op.OutSchema(), op: op}
}

// SetEdgeUoT overrides the unit of transfer on the pipelined edge between
// two nodes (0 restores the run default). Per-edge UoT values let one plan
// mix operating points on the spectrum — e.g. pipeline into a probe but
// block before a poorly-scaling consumer. Panics if no such edge exists.
func (b *Builder) SetEdgeUoT(from, to *Node, uot int) {
	for i := range b.plan.Edges {
		e := &b.plan.Edges[i]
		if e.Kind == core.Pipelined && e.From == from.ID && e.To == to.ID {
			e.UoT = uot
			return
		}
	}
	panic("engine: no pipelined edge between the given nodes")
}

// Collect marks `from` as the plan's result and returns its node.
func (b *Builder) Collect(from *Node) *Node {
	if b.collect != nil {
		panic("engine: plan already has a Collect sink")
	}
	b.collect = exec.NewCollect(from.Schema, 128<<10, storage.RowStore)
	id := exec.AddOp(b.plan, b.collect)
	b.plan.Pipe(from.ID, id, 0, 0)
	return &Node{ID: id, Schema: from.Schema, op: b.collect}
}

func (b *Builder) mustFind(op core.Operator) core.OpID {
	for i, o := range b.plan.Ops {
		if o == op {
			return core.OpID(i)
		}
	}
	panic("engine: LIP references a build operator outside this plan")
}

// Rows materializes a table as datum rows (Char bytes copied).
func Rows(t *storage.Table) [][]types.Datum {
	var out [][]types.Datum
	for _, b := range t.Blocks() {
		for r := 0; r < b.NumRows(); r++ {
			row := b.Row(r)
			for i, d := range row {
				if d.Ty == types.Char {
					cp := make([]byte, len(d.B))
					copy(cp, d.B)
					row[i] = types.NewChar(cp)
				}
			}
			out = append(out, row)
		}
	}
	return out
}

// SortRows orders rows lexicographically (for order-insensitive result
// comparison in tests).
func SortRows(rows [][]types.Datum) {
	sort.Slice(rows, func(i, j int) bool {
		return types.CompareRows(rows[i], rows[j], nil) < 0
	})
}

// FormatRow renders a row for display.
func FormatRow(row []types.Datum) string {
	s := ""
	for i, d := range row {
		if i > 0 {
			s += " | "
		}
		s += d.String()
	}
	return s
}
