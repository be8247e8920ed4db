// Package uot is a reproduction of "On inter-operator data transfers in
// query processing" (Deshmukh, Sundarmurthy, Patel — ICDE 2022): an
// in-memory, block-based analytic query engine in which the unit of
// transfer (UoT) between producer and consumer operators is an explicit,
// tunable parameter, together with the paper's analytical cost model, memory
// model, cache-hierarchy simulator, TPC-H substrate, and a MonetDB-style
// operator-at-a-time baseline.
//
// The central idea: "pipelining" and "blocking" are not two different
// architectures but the two ends of one spectrum. Every pipelined edge in a
// plan carries blocks from producer to consumer in groups of UoT blocks;
// UoT = 1 block is what the literature calls pipelining, UoT = the whole
// intermediate table is blocking, and everything in between is a valid
// operating point:
//
//	db := uot.NewDB(128<<10, uot.ColumnStore)
//	// ... create and load tables ...
//	b := uot.NewBuilder()
//	// ... wire select/build/probe/agg/sort operators ...
//	res, err := uot.Execute(b, uot.Options{Workers: 8, UoTBlocks: 1})
//	res2, err := uot.Execute(b2, uot.Options{Workers: 8, UoTBlocks: uot.UoTTable})
//
// For the TPC-H workloads, the experiments of the paper, and the analytical
// models, see the runnable examples under examples/, the experiment runners
// in internal/bench (driven by cmd/uotbench), and DESIGN.md / EXPERIMENTS.md.
package uot

import (
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/memmodel"
	"repro/internal/monet"
	"repro/internal/reuse"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/types"
)

// UoTTable is the UoT value meaning "the whole intermediate table" — the
// classic blocking strategy.
const UoTTable = core.UoTTable

// Storage formats for base tables and temporaries.
const (
	RowStore    = storage.RowStore
	ColumnStore = storage.ColumnStore
)

// Column types.
const (
	TInt64   = types.Int64
	TFloat64 = types.Float64
	TDate    = types.Date
	TChar    = types.Char
)

// Core engine types.
type (
	// DB holds the catalog and physical settings of base tables.
	DB = engine.DB
	// Builder wires operators into an executable plan.
	Builder = engine.Builder
	// Node is a handle to a plan operator.
	Node = engine.Node
	// Options selects workers (T), the default UoT, temporary block size
	// and format, and an optional cache simulator. A run executes on its
	// own worker and temp-block pools unless Options.Exec / Options.Pool
	// hand it shared ones; the pool's owner attaches any spill tier. Work
	// orders are dispatched under the run's lock, by whichever worker
	// finished the previous one.
	Options = engine.Options
	// Result is a finished execution: the result table plus run statistics
	// (per-work-order timings, memory high-water marks).
	Result = engine.Result
	// Schema describes a relation's columns.
	Schema = storage.Schema
	// Column is one schema attribute.
	Column = storage.Column
	// Table is a list of fixed-size storage blocks.
	Table = storage.Table
	// Loader bulk-appends rows to a table.
	Loader = storage.Loader
	// Datum is a single typed value.
	Datum = types.Datum
	// Expr is a scalar expression over block rows.
	Expr = expr.Expr
)

// Datum constructors.
var (
	Int64Val   = types.NewInt64
	Float64Val = types.NewFloat64
	DateVal    = types.NewDate
	StringVal  = types.NewString
)

// NewLoader returns a bulk loader for t.
func NewLoader(t *Table) *Loader { return storage.NewLoader(t) }

// Operator specs (see package repro/internal/exec for field documentation).
type (
	SelectSpec = exec.SelectSpec
	BuildSpec  = exec.BuildSpec
	ProbeSpec  = exec.ProbeSpec
	AggOpSpec  = exec.AggOpSpec
	AggSpec    = exec.AggSpec
	SortSpec   = exec.SortSpec
	SortTerm   = exec.SortTerm
	JoinType   = exec.JoinType
)

// Join types and aggregate functions.
const (
	Inner     = exec.Inner
	LeftOuter = exec.LeftOuter
	LeftSemi  = exec.LeftSemi
	LeftAnti  = exec.LeftAnti

	Sum   = exec.Sum
	Count = exec.Count
	Avg   = exec.Avg
	Min   = exec.Min
	Max   = exec.Max
)

// NewDB returns an empty database whose base tables use the given block size
// and format (Table V of the paper uses 128 KB, 512 KB, and 2 MB blocks).
func NewDB(blockBytes int, format storage.Format) *DB {
	return engine.NewDB(blockBytes, format)
}

// NewBuilder returns an empty plan builder.
func NewBuilder() *Builder { return engine.NewBuilder() }

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return storage.NewSchema(cols...) }

// Execute runs a built plan.
func Execute(b *Builder, opts Options) (*Result, error) { return engine.Execute(b, opts) }

// ExecuteMonetStyle runs a built plan on the MonetDB-style operator-at-a-time
// baseline (Fig. 11's comparator).
func ExecuteMonetStyle(b *Builder, workers int) (*Result, error) {
	return monet.Execute(b, monet.Options{Workers: workers})
}

// Rows materializes a result table as datum rows.
var Rows = engine.Rows

// Fault-injection support (chaos testing): a deterministic, seeded injector
// wired into Options.Faults fires errors, panics, latency, and allocation
// failures at named execution sites; the scheduler rolls back and retries
// transient failures up to MaxAttempts, then fails the run with a typed error.
type (
	// FaultInjector decides, purely from (seed, site, sequence number),
	// whether each consultation fires.
	FaultInjector = faults.Injector
	// FaultConfig configures an injector: seed, global and per-site rates,
	// fault kinds, and the maximum injected latency.
	FaultConfig = faults.Config
	// FaultSite names an injection point (hash insert, bloom build, agg
	// upsert, block materialize, sort run, repartition, spill write, spill
	// read).
	FaultSite = faults.Site
	// FaultEvent is one fired fault in a replayable schedule.
	FaultEvent = faults.Event
)

// NewFaultInjector returns an injector for cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faults.New(cfg) }

// Execution observability: a Tracer wired into Options.Trace records
// per-work-order spans, per-edge queue gauges, and scheduler annotations
// into a fixed ring buffer with zero overhead when nil. Export the timeline
// as Chrome trace-event JSON (WriteChromeTrace renders the Fig. 2 schedule
// shapes in chrome://tracing / Perfetto) or snapshot aggregate metrics as
// JSON / Prometheus-style text.
type (
	// Tracer is the ring-buffer event sink; nil means tracing disabled.
	Tracer = trace.Tracer
	// TraceEvent is one fixed-width recorded event.
	TraceEvent = trace.Event
	// TraceMetrics is an aggregate metrics snapshot (JSON / Prometheus).
	TraceMetrics = trace.Metrics
)

// NewTracer returns a tracer retaining up to capacity events
// (trace.DefaultCapacity if capacity <= 0):
//
//	tr := uot.NewTracer(0)
//	res, err := uot.Execute(b, uot.Options{Workers: 8, UoTBlocks: 2, Trace: tr, TraceLabel: "uot=2"})
//	tr.WriteChromeFile("trace.json")        // timeline for chrome://tracing
//	tr.Snapshot().WritePrometheus(os.Stdout) // metrics scrape text
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// EdgeUoT is one pipelined edge's recorded UoT: the value the plan declared
// (0 = the run default) and the resolved UoT, which is its declared value
// (at least 1) or Options.UoTBlocks. An edge keeps that UoT for the whole
// run, Options.MemoryBudget included:
//
//	res, err := uot.Execute(b, uot.Options{Workers: 8, MemoryBudget: 64 << 10})
//	for _, e := range res.Run.EdgeUoTs() { ... } // per-edge resolved UoT
type EdgeUoT = stats.EdgeUoT

// TPCH is a loaded TPC-H dataset.
type TPCH = tpch.Dataset

// LoadTPCH generates the eight TPC-H tables at the given scale factor.
func LoadTPCH(sf float64, blockBytes int, format storage.Format) *TPCH {
	return tpch.Load(sf, blockBytes, format)
}

// TPCHQueries returns the implemented TPC-H query numbers.
func TPCHQueries() []int { return tpch.Numbers() }

// BuildTPCH constructs the plan for a TPC-H query; set lip to enable
// lookahead-information-passing bloom filters.
func BuildTPCH(d *TPCH, query int, lip bool) (*Builder, error) {
	return tpch.Build(d, query, tpch.QueryOpts{LIP: lip})
}

// TPCHOpts tunes TPC-H plan construction.
type TPCHOpts = tpch.QueryOpts

// BuildTPCHWith constructs the plan for a TPC-H query with full options
// (LIP filters, staged one-join-at-a-time execution).
func BuildTPCHWith(d *TPCH, query int, opts TPCHOpts) (*Builder, error) {
	return tpch.Build(d, query, opts)
}

// CacheSim is the deterministic memory-hierarchy model (Section V costs:
// residency, prefetching, bandwidth contention).
type CacheSim = cachesim.Sim

// NewCacheSim returns a simulator with the default Haswell-like parameters.
func NewCacheSim() *CacheSim { return cachesim.New(cachesim.Default()) }

// CostModel is the Section V analytical model (Table I parameters, Eq. 1
// ratio, persistent-store variant).
type CostModel = costmodel.Params

// NewCostModel returns default model parameters for UoT size B bytes and T
// threads.
func NewCostModel(B int64, T int) CostModel { return costmodel.Default(B, T) }

// Memory-model helpers (Section VI).
var (
	// HashTableSize is the (M/w)·(c/f) model.
	HashTableSize = memmodel.HashTableSize
	// LowUoTOverhead is Σ|H_i| for i ≥ 2 (Table II).
	LowUoTOverhead = memmodel.LowUoTOverhead
	// HighUoTOverhead is |σ(R)| (Table II).
	HighUoTOverhead = memmodel.HighUoTOverhead
)

// Expression constructors, re-exported for plan building.
var (
	Col      = expr.C
	BuildCol = expr.C2
	Const    = expr.Const
	Int      = expr.Int
	Float    = expr.Float
	Str      = expr.Str
	Date     = expr.Date
	Eq       = expr.Eq
	Ne       = expr.Ne
	Lt       = expr.Lt
	Le       = expr.Le
	Gt       = expr.Gt
	Ge       = expr.Ge
	Between  = expr.Between
	And      = expr.And
	Or       = expr.Or
	Not      = expr.Not
	AddE     = expr.AddE
	SubE     = expr.SubE
	MulE     = expr.MulE
	DivE     = expr.DivE
	Year     = expr.Year
	Substr   = expr.Substr
	Like     = expr.Like
	NotLike  = expr.NotLike
	In       = expr.In
	Param    = expr.Param
)

// Concurrent multi-query serving (see internal/session): a Session shares
// one worker pool and one temporary-block pool across N concurrent queries,
// gated by an admission controller that arbitrates a global memory budget —
// queries beyond capacity wait in a bounded priority queue or are shed with
// typed errors:
//
//	s := uot.OpenSession(uot.SessionConfig{Workers: 8, MemoryBudget: 1 << 30})
//	defer s.Close()
//	resp, err := s.Submit(uot.Request{Build: func() *uot.Builder { ... }})
//	if errors.Is(err, uot.ErrAdmissionRejected) { /* shed: back off */ }
type (
	// Session serves concurrent queries with admission control and
	// per-query isolation.
	Session = session.Session
	// SessionConfig sizes a session: worker pool, concurrency cap, queue
	// depth, global memory budget.
	SessionConfig = session.Config
	// Request is one query submission (plan constructor, priority,
	// deadline, optional context and fault injector).
	Request = session.Request
	// Response is a completed query: result table, run statistics, queue
	// wait and total latency.
	Response = session.Response
	// ServeCounters snapshots a session's admission/shed/completion
	// statistics.
	ServeCounters = session.Counters
)

// OpenSession starts a serving session.
func OpenSession(cfg SessionConfig) *Session { return session.Open(cfg) }

// Cross-query result reuse (see internal/reuse): a ReuseCache keys
// materialized subplan results by canonical plan fingerprints, so repeated
// or overlapping queries splice a scan of the cached block set in place of
// recomputing the subtree. Attach one to a session with
// SessionConfig{Reuse: true} or to a standalone execution via
// engine.Options.Reuse.
type (
	// ReuseCache is the benefit-ranked cross-query result cache.
	ReuseCache = reuse.Cache
	// ReuseConfig sizes a cache: its RAM budget (one entry may take at
	// most a quarter of it).
	ReuseConfig = reuse.Config
	// ReuseCounters snapshots hits, misses, admissions, evictions, and
	// occupancy.
	ReuseCounters = reuse.Counters
	// Fingerprint identifies a subplan's canonical encoding.
	Fingerprint = reuse.Fingerprint
)

// NewReuseCache builds a standalone result cache (sessions build their own
// from SessionConfig).
func NewReuseCache(cfg ReuseConfig) *ReuseCache { return reuse.New(cfg) }

// Typed serving and robustness errors, matched with errors.Is.
var (
	// ErrAdmissionRejected: the session shed the query without running it
	// (queue full, deadline already blown, or estimate over the global
	// budget).
	ErrAdmissionRejected = session.ErrAdmissionRejected
	// ErrSessionClosed: Submit against a closed session.
	ErrSessionClosed = session.ErrSessionClosed
	// ErrQueryCancelled: the query's context was cancelled (queued or
	// running); the error chain also matches context.Canceled.
	ErrQueryCancelled = core.ErrQueryCancelled
	// ErrDeadlineExceeded: a deadline expired — before admission (also
	// matches ErrAdmissionRejected) or mid-run.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	// ErrMemoryBudget: a memory-budget rejection (also matches
	// ErrAdmissionRejected).
	ErrMemoryBudget = core.ErrMemoryBudget
)
