// Package stats collects run statistics: per-work-order and per-operator
// timings (wall clock and simulated cache-model ticks) and byte-exact memory
// gauges. Explicit accounting is used instead of runtime.MemStats because Go
// GC timing would otherwise obscure the footprint comparisons of Section VI
// of the paper.
package stats

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MemGauge tracks live bytes and the high-water mark of one memory class.
// It is safe for concurrent use.
type MemGauge struct {
	live int64
	high int64
}

// Add records an allocation of n bytes and updates the high-water mark.
func (g *MemGauge) Add(n int64) {
	v := atomic.AddInt64(&g.live, n)
	for {
		h := atomic.LoadInt64(&g.high)
		if v <= h || atomic.CompareAndSwapInt64(&g.high, h, v) {
			return
		}
	}
}

// Sub records a release of n bytes.
func (g *MemGauge) Sub(n int64) { atomic.AddInt64(&g.live, -n) }

// Live returns the current live bytes.
func (g *MemGauge) Live() int64 { return atomic.LoadInt64(&g.live) }

// High returns the high-water mark in bytes.
func (g *MemGauge) High() int64 { return atomic.LoadInt64(&g.high) }

// Reset zeroes the gauge.
func (g *MemGauge) Reset() {
	atomic.StoreInt64(&g.live, 0)
	atomic.StoreInt64(&g.high, 0)
}

// WorkOrder records one executed work order.
type WorkOrder struct {
	OpID    int
	OpName  string
	Worker  int
	Start   time.Time
	End     time.Time
	Sim     int64 // simulated ticks (ns) charged by the cache model, 0 if no sim
	Rows    int64 // input rows processed
	RowsOut int64 // output rows produced

	// Kernel holds the work order's hot-path counters (zero on a failed
	// attempt).
	Kernel

	// Robustness fields: which execution attempt this record is (1 = first)
	// and whether the attempt failed. Failed attempts are rolled back by the
	// scheduler, so their row counters are excluded from operator totals.
	Attempt int
	Failed  bool
}

// Wall returns the wall-clock duration of the work order.
func (w WorkOrder) Wall() time.Duration { return w.End.Sub(w.Start) }

// OpTotals aggregates all work orders of one operator.
type OpTotals struct {
	OpID      int
	Name      string
	Count     int
	WallTotal time.Duration
	SimTotal  int64
	Rows      int64
	RowsOut   int64

	// Kernel sums the hot-path counters of every attempt.
	Kernel
	// AggFallbackRows and SortFallbackRows are always 0: every aggregation
	// and sort runs on its one kernel. Declared only because
	// benchmark/layers.go reads them; drop them in the next [benchmark] PR
	// together with Robustness.Demotions.
	AggFallbackRows, SortFallbackRows int64

	// FailedAttempts counts rolled-back work-order attempts of the operator
	// (they are included in Count and WallTotal — the time was spent — but
	// not in the row counters).
	FailedAttempts int
}

// AvgWall returns the mean wall-clock work-order time.
func (o OpTotals) AvgWall() time.Duration {
	if o.Count == 0 {
		return 0
	}
	return o.WallTotal / time.Duration(o.Count)
}

// AvgSim returns the mean simulated work-order time in ticks.
func (o OpTotals) AvgSim() int64 {
	if o.Count == 0 {
		return 0
	}
	return o.SimTotal / int64(o.Count)
}

// Run accumulates the statistics of one query execution. All methods are
// safe for concurrent use by workers.
type Run struct {
	mu     sync.Mutex
	orders []WorkOrder
	start  time.Time
	end    time.Time

	// HashTables gauges join/aggregation hash-table bytes; Intermediates
	// gauges materialized temporary-block bytes — the two memory classes
	// Table II of the paper compares.
	HashTables    MemGauge
	Intermediates MemGauge

	// poolCheckouts counts temporary-block checkouts, a proxy for storage
	// management overhead at small block sizes. It is written with atomics
	// from worker goroutines and must only be read through Checkouts();
	// it was previously an exported field read without synchronization,
	// which is a torn read on 32-bit targets and a data race everywhere
	// when a metrics snapshot runs concurrently with the query.
	poolCheckouts int64

	robust   Robustness
	reuse    Reuse
	edgeUoTs []EdgeUoT

	// query/label identify the run among concurrent runs (serving layer);
	// query is -1 until SetQuery is called.
	query int
	label string
}

// SetQuery labels the run with its query id and display label, so snapshots
// of concurrent runs are attributable (the serving layer sets it at
// admission).
func (r *Run) SetQuery(id int, label string) {
	r.mu.Lock()
	r.query = id
	r.label = label
	r.mu.Unlock()
}

// Query returns the run's query id (-1 if never set).
func (r *Run) Query() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.query
}

// Label returns the run's display label ("" if never set).
func (r *Run) Label() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.label
}

// EdgeUoT is one pipelined edge's UoT in a run, recorded by the scheduler at
// run end. UoT is the *resolved* value (the declared per-edge value or the
// run default), fixed for the whole run, so experiments need not re-derive
// the Edge.UoT==0 fallback.
type EdgeUoT struct {
	From, To         int    // operator IDs
	FromName, ToName string // operator display names
	Input            int    // consumer input index
	Declared         int    // per-edge UoT from the plan (0 = run default)
	UoT              int    // resolved UoT
}

// Robustness aggregates the fault-tolerance counters of one run: what the
// injector fired, how the scheduler reacted (retries, cancellations), and
// what the post-run invariant checker found.
type Robustness struct {
	// FaultsInjected is the number of faults the injector fired (all
	// kinds, latency included).
	FaultsInjected int64
	// FailedAttempts counts work-order attempts that returned an error and
	// were rolled back.
	FailedAttempts int64
	// Retries counts transient failures that were re-dispatched.
	Retries int64
	// Demotions is always 0: operators pick their kernel at plan time and
	// retry is the only fault recovery. Declared only because
	// benchmark/layers.go reads it; drop both in the next [benchmark] PR.
	Demotions int64
	// Cancellations counts queued work orders dropped when the run failed
	// or was canceled.
	Cancellations int64
	// LeakedBlocks is the invariant checker's count of blocks still
	// buffered on edges, held by operators, or checked in as partials
	// after the run; OutstandingRefs is its count of live refcount
	// entries. Both must be zero.
	LeakedBlocks    int64
	OutstandingRefs int64
}

// Reuse is one run's result-cache activity: whether a cached entry was
// spliced into the plan (and what that pruned), and what the run's cold side
// contributed back (captures admitted or rejected). Copied once from the
// engine's reuse bookkeeping at run end.
type Reuse struct {
	Hit         bool  // a cached result was spliced into the plan
	SplicedOps  int64 // operators pruned from the plan by hit-splices
	HitBytes    int64 // cached bytes the spliced scans read
	Captured    int64 // results admitted: interior taps and the root
	CaptureRej  int64 // results rejected by admission
	BytesPinned int64 // bytes this run added to the cache
}

// SetReuse records the run's reuse-cache snapshot.
func (r *Run) SetReuse(u Reuse) {
	r.mu.Lock()
	r.reuse = u
	r.mu.Unlock()
}

// Reuse returns the run's reuse-cache snapshot (zero without a cache).
func (r *Run) Reuse() Reuse {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reuse
}

// Robust returns a snapshot of the run's robustness counters.
func (r *Run) Robust() Robustness {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.robust
}

// AddFaults adds n injector-fired faults to the snapshot (recorded once per
// run from the injector's own counter).
func (r *Run) AddFaults(n int64) {
	r.mu.Lock()
	r.robust.FaultsInjected += n
	r.mu.Unlock()
}

// AddFailedAttempt records one rolled-back work-order attempt.
func (r *Run) AddFailedAttempt() {
	r.mu.Lock()
	r.robust.FailedAttempts++
	r.mu.Unlock()
}

// AddRetry records one transient failure re-dispatched by the scheduler.
func (r *Run) AddRetry() {
	r.mu.Lock()
	r.robust.Retries++
	r.mu.Unlock()
}

// AddCancellations records n work orders dropped by a failing or canceled
// run.
func (r *Run) AddCancellations(n int64) {
	r.mu.Lock()
	r.robust.Cancellations += n
	r.mu.Unlock()
}

// SetEdgeUoTs records the per-edge UoT snapshot (scheduler, at run end).
func (r *Run) SetEdgeUoTs(edges []EdgeUoT) {
	r.mu.Lock()
	r.edgeUoTs = edges
	r.mu.Unlock()
}

// EdgeUoTs returns a copy of the per-edge UoT snapshot, one entry per
// pipelined edge in plan order (nil before the run finishes).
func (r *Run) EdgeUoTs() []EdgeUoT {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EdgeUoT, len(r.edgeUoTs))
	copy(out, r.edgeUoTs)
	return out
}

// SetLeaks records the invariant checker's post-run leak counts.
func (r *Run) SetLeaks(blocks, refs int64) {
	r.mu.Lock()
	r.robust.LeakedBlocks = blocks
	r.robust.OutstandingRefs = refs
	r.mu.Unlock()
}

// NewRun returns an empty Run with the start time set to now.
func NewRun() *Run { return &Run{start: time.Now(), query: -1} }

// Record appends a completed work order (attempt).
func (r *Run) Record(w WorkOrder) {
	r.mu.Lock()
	r.orders = append(r.orders, w)
	r.mu.Unlock()
}

// AddCheckout bumps the pool-checkout counter.
func (r *Run) AddCheckout() { atomic.AddInt64(&r.poolCheckouts, 1) }

// Checkouts returns the pool-checkout count; safe to call while workers are
// still recording.
func (r *Run) Checkouts() int64 { return atomic.LoadInt64(&r.poolCheckouts) }

// Finish stamps the end of the run.
func (r *Run) Finish() {
	r.mu.Lock()
	r.end = time.Now()
	r.mu.Unlock()
}

// WallTime returns the total run duration (now, if Finish was not called).
// Safe to call concurrently with Finish (a mid-run metrics snapshot).
func (r *Run) WallTime() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.end.IsZero() {
		return time.Since(r.start)
	}
	return r.end.Sub(r.start)
}

// Orders returns a copy of all recorded work orders in completion order.
func (r *Run) Orders() []WorkOrder {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkOrder, len(r.orders))
	copy(out, r.orders)
	return out
}

// PerOp aggregates work orders per operator, sorted by operator ID.
func (r *Run) PerOp() []OpTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := map[int]*OpTotals{}
	for _, w := range r.orders {
		t := m[w.OpID]
		if t == nil {
			t = &OpTotals{OpID: w.OpID, Name: w.OpName}
			m[w.OpID] = t
		}
		t.Count++
		t.WallTotal += w.Wall()
		t.SimTotal += w.Sim
		t.Kernel.Add(w.Kernel)
		if w.Failed {
			// The attempt was rolled back: its time was spent but its
			// output does not count.
			t.FailedAttempts++
			continue
		}
		t.Rows += w.Rows
		t.RowsOut += w.RowsOut
	}
	out := make([]OpTotals, 0, len(m))
	for _, t := range m {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OpID < out[j].OpID })
	return out
}

// Op returns the totals for one operator ID (zero value if it never ran).
func (r *Run) Op(opID int) OpTotals {
	for _, t := range r.PerOp() {
		if t.OpID == opID {
			return t
		}
	}
	return OpTotals{OpID: opID}
}

// TotalSim returns the sum of simulated ticks across all work orders.
func (r *Run) TotalSim() int64 {
	var s int64
	for _, t := range r.PerOp() {
		s += t.SimTotal
	}
	return s
}

// Kernels sums the kernel counters across all work orders.
func (r *Run) Kernels() Kernel {
	r.mu.Lock()
	defer r.mu.Unlock()
	var k Kernel
	for i := range r.orders {
		k.Add(r.orders[i].Kernel)
	}
	return k
}

// TotalWallWork returns the sum of wall-clock work-order durations (CPU work,
// not makespan).
func (r *Run) TotalWallWork() time.Duration {
	var s time.Duration
	for _, t := range r.PerOp() {
		s += t.WallTotal
	}
	return s
}
