// Package trace is the execution observability layer: a fixed-capacity
// ring-buffer sink for scheduler events that makes the paper's central
// artifact — the realized work-order schedule — directly observable instead
// of reconstructed from logs.
//
// Three event kinds are recorded:
//
//   - spans: one per completed work-order attempt, carrying the operator,
//     worker, attempt number, UoT batch id, and the enqueue/start/finish
//     timestamps, plus the failed/retried annotations of the fault path;
//   - edge samples: per-pipelined-edge gauges taken on scheduler
//     transitions — buffered blocks vs. the UoT threshold, scheduler queue
//     depth, accumulated stall time, and memory-pool occupancy;
//   - marks: instant annotations (retry scheduled, run finished, spill and
//     reuse events).
//
// The sink must never perturb what it measures: every recording method is
// safe on a nil *Tracer and allocates nothing — events are fixed-width
// structs copied by value into a preallocated ring (alloc_test.go asserts
// 0 allocs/op on both the disabled and the enabled path). When the ring
// fills, the oldest events are overwritten and counted as dropped; the
// aggregate metrics (see Snapshot) are maintained outside the ring and stay
// exact regardless.
//
// Exports: WriteChromeTrace renders the timeline as a Chrome trace-event
// JSON file (load in chrome://tracing or Perfetto to see the Fig. 2
// interleaving-vs-blocking schedule shapes); Snapshot returns a
// machine-readable metrics snapshot serializable as JSON or Prometheus-style
// text.
package trace

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// Kind classifies a recorded event.
type Kind uint8

// Event kinds.
const (
	// KindSpan is one completed work-order attempt.
	KindSpan Kind = iota + 1
	// KindEdge is a per-edge gauge sample taken on a scheduler transition.
	KindEdge
	// KindMark is an instant annotation.
	KindMark
)

// MarkCode identifies an instant annotation.
type MarkCode uint8

// Mark codes.
const (
	// MarkRetry: a transiently-failed work order was re-queued.
	MarkRetry MarkCode = iota + 1
	// MarkRunEnd: the run finished (FlagFailed set if it errored).
	MarkRunEnd
	// MarkSpill: the spill tier evicted cold temp blocks to disk after a
	// scheduler-side pressure event (Rows carries the blocks written in the
	// round, RowsOut the bytes). Worker-side evictions triggered from
	// CheckOut are counted in the tier's own totals but not marked — the
	// scheduler is the only goroutine that may touch the tracer section.
	MarkSpill
	// MarkSpillFaultIn: a delivery blocked while spilled blocks were read
	// back in (Rows carries the blocks faulted in, RowsOut the bytes,
	// StallNS the read-through stall the consumer paid).
	MarkSpillFaultIn
	// MarkReuseHit: the reuse cache matched a subtree fingerprint and the
	// engine spliced a cached-result scan in its place (Rows carries the
	// operators pruned, RowsOut the entry's bytes).
	MarkReuseHit
	// MarkReuseEvict: the reuse cache evicted an entry to make room
	// (RowsOut carries the evicted entry's bytes).
	MarkReuseEvict
)

// Span flag bits.
const (
	// FlagFailed marks a failed (rolled-back) attempt or an errored run.
	FlagFailed uint8 = 1 << iota
	// FlagRetried marks a failed attempt the scheduler re-dispatched.
	FlagRetried
)

// Event is one fixed-width trace record. Which fields are meaningful depends
// on Kind; unused fields are zero. All timestamps are nanoseconds since the
// tracer's base time (see Now).
type Event struct {
	Kind  Kind
	Mark  MarkCode
	Flags uint8

	Run     int32 // run (section) id, assigned by the tracer on record
	Query   int32 // query id of the section (-1 when unlabeled), assigned on record
	Op      int32 // operator id within the run
	Edge    int32 // edge id within the run (KindEdge; -1 on spans)
	Worker  int32 // executing worker (KindSpan)
	Attempt int32 // 1-based attempt number (KindSpan)

	// Batch is the per-edge UoT delivery id whose blocks this work order
	// consumes (-1 for work orders not born from an edge delivery).
	Batch int64

	EnqueueNS int64 // when the work order entered the scheduler queue
	StartNS   int64 // when the attempt started on a worker (sample time for KindEdge/KindMark)
	EndNS     int64 // when the attempt finished

	Rows    int64 // input rows consumed by the attempt
	RowsOut int64 // output rows produced by the attempt

	// Kernel is the attempt's hot-path counters (KindSpan). They are summed
	// for failed attempts too: core.Output.Finish leaves a rolled-back
	// attempt only the counters that outlive it.
	stats.Kernel

	// Edge-sample gauges (KindEdge).
	Buffered   int32 // blocks buffered on the edge after the transition
	UoT        int64 // the edge's UoT threshold in blocks
	QueueDepth int32 // scheduler queue depth at the sample
	StallNS    int64 // time the drained blocks waited buffered (0 while filling)
	PoolBytes  int64 // live temporary-block bytes at the sample
}

// EdgeInfo describes a registered plan edge.
type EdgeInfo struct {
	From      int    // producer operator id
	To        int    // consumer operator id
	FromName  string // producer display name
	ToName    string // consumer display name
	Input     int    // pipelined input index at the consumer
	Pipelined bool   // false for blocking (ordering-only) edges
	UoT       int    // the edge's initial UoT in blocks (0 for blocking edges)
}

// runMeta is one traced execution section: its label, registered operators
// and edges, and their aggregates — kept outside the ring, directly in the
// form Snapshot exports them.
type runMeta struct {
	pid     int32
	query   int32 // query id span label (-1 when the section has none)
	label   string
	ops     []string
	opAggs  []OpMetrics
	edges   []EdgeInfo
	edgeAgg []EdgeMetrics
	beginNS int64
	endNS   int64
	failed  bool
	workers int

	// Spill aggregates, maintained outside the ring like the op/edge
	// aggregates so snapshots stay exact when the ring wraps.
	spillBlocksOut, spillBytesOut int64
	spillBlocksIn, spillBytesIn   int64
	spillStallNS                  int64

	// Reuse aggregates (see internal/reuse).
	reuseHits, reuseSplicedOps, reuseHitBytes int64
	reuseEvictions, reuseEvictedBytes         int64
}

// Tracer is the event sink. The zero value is not usable; construct with
// New. A nil *Tracer is the disabled tracer: every method is a nil-safe
// no-op, so call sites need no separate enabled flag.
type Tracer struct {
	mu      sync.Mutex
	base    time.Time
	buf     []Event
	next    int // next ring slot to write
	n       int // events currently stored
	dropped int64
	runs    []*runMeta
}

// DefaultCapacity is the ring size used when New is given capacity <= 0.
const DefaultCapacity = 1 << 16

// New returns a tracer whose ring holds capacity events (DefaultCapacity if
// capacity <= 0). Timestamps are nanoseconds since this call.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{base: time.Now(), buf: make([]Event, capacity)}
}

// Enabled reports whether events are being collected; false on nil.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns nanoseconds since the tracer's base time; 0 on nil.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// Since converts an absolute timestamp to tracer-relative nanoseconds.
func (t *Tracer) Since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.base))
}

// OpenRun begins a new trace section (one execution) and returns its handle
// for the *In recording methods. Every execution records into a section it
// opened, so concurrent executions sharing one tracer never corrupt each
// other's aggregates, and sequential ones appear side by side in execution
// order (the FIG2 sweep records one section per UoT value). query is the
// section's query-id span label (use -1 for none); every event recorded into
// the section carries it in Event.Query. The zero handle names no section:
// recording into it is a no-op.
func (t *Tracer) OpenRun(label string, query int) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &runMeta{pid: int32(len(t.runs)), query: int32(query), label: label, beginNS: int64(time.Since(t.base))}
	t.runs = append(t.runs, r)
	return r.pid + 1
}

// section resolves a handle under t.mu; nil for the zero or an unknown
// handle.
func (t *Tracer) section(h int32) *runMeta {
	if h > 0 && int(h) <= len(t.runs) {
		return t.runs[h-1]
	}
	return nil
}

// EndRunIn stamps section h finished; failed marks an errored run.
func (t *Tracer) EndRunIn(h int32, failed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if r := t.section(h); r != nil {
		r.endNS = int64(time.Since(t.base))
		r.failed = failed
	}
	t.mu.Unlock()
	e := Event{StartNS: t.Now()}
	if failed {
		e.Flags = FlagFailed
	}
	t.MarkIn(h, MarkRunEnd, e)
}

// SetWorkersIn records section h's worker count (thread naming in exports).
func (t *Tracer) SetWorkersIn(h int32, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if r := t.section(h); r != nil {
		r.workers = n
	}
	t.mu.Unlock()
}

// RegisterOpIn names operator id within section h.
func (t *Tracer) RegisterOpIn(h int32, id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.section(h)
	if r == nil {
		return
	}
	for len(r.ops) <= id {
		r.ops = append(r.ops, "")
		r.opAggs = append(r.opAggs, OpMetrics{Op: len(r.opAggs)})
	}
	r.ops[id] = name
	r.opAggs[id].Name = name
}

// RegisterEdgeIn describes edge id within section h.
func (t *Tracer) RegisterEdgeIn(h int32, id int, info EdgeInfo) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.section(h)
	if r == nil {
		return
	}
	for len(r.edges) <= id {
		r.edges = append(r.edges, EdgeInfo{})
		r.edgeAgg = append(r.edgeAgg, EdgeMetrics{Edge: len(r.edgeAgg)})
	}
	r.edges[id] = info
	a := &r.edgeAgg[id]
	a.From, a.To, a.Input, a.Pipelined, a.UoT = info.FromName, info.ToName, info.Input, info.Pipelined, int64(info.UoT)
}

// SpanIn records one completed work-order attempt into section h. Kind, Run,
// Query, and Edge are set by the tracer.
func (t *Tracer) SpanIn(h int32, e Event) {
	if t == nil {
		return
	}
	e.Kind = KindSpan
	e.Edge = -1
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.section(h)
	if r == nil {
		return
	}
	if int(e.Op) < len(r.opAggs) {
		a := &r.opAggs[e.Op]
		a.Spans++
		a.BusyNS += e.EndNS - e.StartNS
		if e.EnqueueNS > 0 && e.StartNS > e.EnqueueNS {
			a.QueueNS += e.StartNS - e.EnqueueNS
		}
		a.Kernel.Add(e.Kernel)
		if e.Flags&FlagFailed != 0 {
			a.Failed++
			if e.Flags&FlagRetried != 0 {
				a.Retries++
			}
		} else {
			a.Rows += e.Rows
			a.RowsOut += e.RowsOut
		}
	}
	t.recordLocked(r, e)
}

// EdgeIn records a per-edge gauge sample into section h; delivered is how
// many blocks this transition handed to the consumer (0 for a pure buffering
// sample, in which case no batch is counted).
func (t *Tracer) EdgeIn(h int32, e Event, delivered int) {
	if t == nil {
		return
	}
	e.Kind = KindEdge
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.section(h)
	if r == nil {
		return
	}
	if int(e.Edge) < len(r.edgeAgg) {
		a := &r.edgeAgg[e.Edge]
		a.Samples++
		if delivered > 0 {
			a.Batches++
			a.Blocks += int64(delivered)
		}
		if e.Buffered > a.MaxBuffered {
			a.MaxBuffered = e.Buffered
		}
		a.StallNS += e.StallNS
		a.UoT = e.UoT
	}
	t.recordLocked(r, e)
}

// MarkIn records an instant annotation into section h.
func (t *Tracer) MarkIn(h int32, code MarkCode, e Event) {
	if t == nil {
		return
	}
	e.Kind = KindMark
	e.Mark = code
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.section(h)
	if r == nil {
		return
	}
	switch code {
	case MarkSpill:
		r.spillBlocksOut += e.Rows
		r.spillBytesOut += e.RowsOut
	case MarkSpillFaultIn:
		r.spillBlocksIn += e.Rows
		r.spillBytesIn += e.RowsOut
		r.spillStallNS += e.StallNS
	case MarkReuseHit:
		r.reuseHits++
		r.reuseSplicedOps += e.Rows
		r.reuseHitBytes += e.RowsOut
	case MarkReuseEvict:
		r.reuseEvictions++
		r.reuseEvictedBytes += e.RowsOut
	}
	t.recordLocked(r, e)
}

func (t *Tracer) recordLocked(r *runMeta, e Event) {
	e.Run = r.pid
	e.Query = r.query
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.dropped++
	}
}

// Events returns the retained events oldest-first (a copy).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		out[i] = t.buf[(start+i)%len(t.buf)]
	}
	return out
}

// OpName resolves an operator id within a run id ("" if unknown).
func (t *Tracer) OpName(run, op int32) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(run) < len(t.runs) && int(op) < len(t.runs[run].ops) {
		return t.runs[run].ops[op]
	}
	return ""
}
