package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/types"
)

// Run executes a plan on ctx.Exec, or on a WorkerPool of ctx.Workers
// goroutines started for this run alone, routing producer output blocks to
// consumers in groups of UoT blocks per pipelined edge (ResolveUoT against
// defaultUoT, fixed for the whole run). The run has no goroutine of its own:
// its scheduling state is guarded by one lock, and whoever changes it — Run's
// caller at start, the worker that just finished a work order, or a retry
// timer — dispatches the next work orders. Run returns after every operator
// has finished, after the run context is canceled, or after a work order
// fails fatally (transient failures are rolled back and retried up to
// ctx.MaxAttempts with exponential backoff). On any exit path the scheduler
// reclaims every intermediate block and verifies the zero-leak invariants.
func Run(plan *Plan, ctx *ExecCtx, defaultUoT int) error {
	if ctx.Workers <= 0 {
		ctx.Workers = 1
	}
	if ctx.TraceRun == 0 {
		ctx.TraceRun = ctx.Trace.OpenRun("", -1)
	}
	return newSched(plan, ctx, defaultUoT).run()
}

// memHoldLimit is how many times in a row a block-producing work order is
// held back under memory pressure before it is dispatched anyway.
const memHoldLimit = 8

type job struct {
	op OpID
	wo WorkOrder
	// attempt counts completed executions of wo (0 for the first
	// dispatch).
	attempt int
	// Tracing annotations (zero when tracing is disabled): when the job
	// entered the queue and which UoT delivery batch fed it (-1 for work
	// orders not born from an edge delivery).
	enqueueNS int64
	batch     int64
}

// wres is one finished attempt of a job: the job itself (op, work order,
// and the tracing annotations carried through) plus what the
// worker observed. attempt is bumped to count this execution (1-based).
type wres struct {
	job
	out    *Output
	start  time.Time
	end    time.Time
	worker int
	err    error
}

type edgeState struct {
	e            Edge
	buf          []*storage.Block
	producerDone bool
	delivered    bool // inputsOpen decremented at consumer
	// id is the edge's index in sched.edges (doubles as its tracer id);
	// batches counts UoT deliveries (batch ids); bufSince is when buf last
	// went non-empty (stall-time tracking; 0 while empty), maintained only
	// when tracing.
	id       int32
	batches  int64
	bufSince int64
	// uot is a pipelined edge's ResolveUoT value, fixed for the run.
	uot int
}

type opState struct {
	id          OpID
	op          Operator
	deps        int
	inputsOpen  int
	depth       int // longest pipelined-edge distance from a leaf
	started     bool
	inflight    int
	queued      int
	finalIssued bool
	stage       int // next post-Final stage index (StagedOperator)
	done        bool
	memHolds    int // consecutive memory-budget holds (see memHoldLimit)
	out         []*edgeState
	held        map[*storage.Block]struct{}
	scalarSlots []int
}

type sched struct {
	plan *Plan
	ctx  *ExecCtx
	exec *WorkerPool

	// mu guards every field below and the operators' own state: Operator
	// methods other than work-order Run are called only under it.
	mu sync.Mutex

	states []*opState
	edges  []*edgeState
	queue  []job
	rc     map[*storage.Block]int
	// adopted holds every block routed to an adopting consumer. Such a block
	// is never recycled when its refcount drains: it outlives a successful
	// run with its adopter, and cleanup releases it after a failed one.
	adopted  map[*storage.Block]struct{}
	doneOps  int
	inflight int
	runErr   error
	// retries holds the armed backoff timers of transient failures whose
	// work order is not yet back in the queue (st.queued counts it meanwhile).
	retries map[*time.Timer]struct{}
	// done is closed once nothing is in flight, nothing can be dispatched and
	// no retry is pending.
	done chan struct{}
	// lastOp is the operator of this run's previous job on each pool
	// worker, for the IC term of the Section V model (Sim runs only).
	lastOp []OpID
}

func newSched(plan *Plan, ctx *ExecCtx, defaultUoT int) *sched {
	s := &sched{plan: plan, ctx: ctx}
	s.rc = make(map[*storage.Block]int)
	s.adopted = make(map[*storage.Block]struct{})
	s.retries = make(map[*time.Timer]struct{})
	s.done = make(chan struct{})
	s.states = make([]*opState, len(s.plan.Ops))
	for i, op := range s.plan.Ops {
		s.states[i] = &opState{
			id:   OpID(i),
			op:   op,
			held: make(map[*storage.Block]struct{}),
		}
	}
	for _, e := range s.plan.Edges {
		switch e.Kind {
		case Pipelined:
			es := &edgeState{e: e, uot: ResolveUoT(e, defaultUoT)}
			s.edges = append(s.edges, es)
			s.states[e.From].out = append(s.states[e.From].out, es)
			s.states[e.To].inputsOpen++
		case Blocking:
			es := &edgeState{e: e}
			s.edges = append(s.edges, es)
			s.states[e.From].out = append(s.states[e.From].out, es)
			s.states[e.To].deps++
		}
	}
	for i, es := range s.edges {
		es.id = int32(i)
	}
	for slot, op := range s.plan.ScalarSlots {
		s.states[op].scalarSlots = append(s.states[op].scalarSlots, slot)
	}
	if tr := s.ctx.Trace; tr.Enabled() {
		tr.SetWorkersIn(s.ctx.TraceRun, s.ctx.Workers)
		for i, st := range s.states {
			tr.RegisterOpIn(s.ctx.TraceRun, i, st.op.Name())
		}
		for i, es := range s.edges {
			tr.RegisterEdgeIn(s.ctx.TraceRun, i, trace.EdgeInfo{
				From: int(es.e.From), To: int(es.e.To),
				FromName:  s.states[es.e.From].op.Name(),
				ToName:    s.states[es.e.To].op.Name(),
				Input:     es.e.ToInput,
				Pipelined: es.e.Kind == Pipelined,
				UoT:       es.uot, // 0 for blocking edges
			})
		}
	}
	// Operator depth orders dispatch: a consumer's work orders take
	// priority over queued producer work orders, so with a low UoT a
	// consumer runs "as soon as it is available" (Section III-C) instead
	// of starving behind the producer's backlog. Plans are DAGs, so a
	// fixed number of relaxation rounds converges.
	for round := 0; round < len(s.states); round++ {
		changed := false
		for _, e := range s.plan.Edges {
			if e.Kind != Pipelined {
				continue
			}
			if d := s.states[e.From].depth + 1; d > s.states[e.To].depth {
				s.states[e.To].depth = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return s
}

// ResolveUoT is an edge's UoT for a whole run, and admission prices edge
// buffers with it before the run exists. An explicit per-edge value wins,
// clamped to at least 1; otherwise the run default applies. Blocking edges
// resolve to 0 (they transfer no pipelined blocks).
func ResolveUoT(e Edge, startUoT int) int {
	if e.Kind != Pipelined {
		return 0
	}
	if e.UoT != 0 {
		return max(e.UoT, 1)
	}
	if startUoT <= 0 {
		return 1
	}
	return startUoT
}

func (s *sched) run() error {
	s.exec = s.ctx.Exec
	if s.exec == nil {
		s.exec = NewWorkerPool(s.ctx.Workers)
		defer s.exec.Close()
	}
	if n := len(s.plan.ScalarSlots); len(s.ctx.Scalars) < n {
		s.ctx.Scalars = make([]types.Datum, n)
	}
	s.mu.Lock()
	for _, st := range s.states {
		st.op.Init(s.ctx)
	}
	for _, st := range s.states {
		if st.deps == 0 {
			s.startOp(st)
		}
	}
	s.step()
	s.mu.Unlock()
	<-s.done
	s.cleanup()
	s.checkInvariants()
	s.recordEdgeUoTs()
	s.ctx.Trace.EndRunIn(s.ctx.TraceRun, s.runErr != nil)
	return s.runErr
}

// step advances the run; it is called under s.mu by whoever just changed the
// scheduling state. It observes cancellation, dispatches queued jobs in
// pickJob order up to the in-flight cap, and closes done once the run is
// over: nothing in flight, nothing dispatchable, no retry pending. With one
// worker every dispatch decision is taken on a fresh queue right after the
// previous completion, so the schedule is fully deterministic (what makes a
// seeded fault schedule replayable).
func (s *sched) step() {
	if s.runErr == nil {
		if err := s.ctx.Canceled(); err != nil {
			s.fail(&CancelError{Cause: err})
		}
	}
	for s.inflight < s.ctx.Workers {
		ji := s.pickJob()
		if ji < 0 {
			break
		}
		j := s.queue[ji]
		s.queue = append(s.queue[:ji], s.queue[ji+1:]...)
		s.states[j.op].queued--
		s.states[j.op].inflight++
		s.inflight++
		s.exec.Submit(Task{
			Query:    s.ctx.Query,
			Priority: s.ctx.Priority,
			Run:      func(worker int) { s.runJob(j, worker) },
		})
	}
	if s.inflight > 0 || len(s.retries) > 0 {
		return
	}
	if s.doneOps < len(s.states) && s.runErr == nil {
		s.failStalled()
	}
	close(s.done)
}

// recordEdgeUoTs publishes each pipelined edge's declared and resolved UoT
// into the run's stats snapshot.
func (s *sched) recordEdgeUoTs() {
	if s.ctx.Run == nil {
		return
	}
	var out []stats.EdgeUoT
	for _, es := range s.edges {
		if es.e.Kind != Pipelined {
			continue
		}
		out = append(out, stats.EdgeUoT{
			From: int(es.e.From), To: int(es.e.To),
			FromName: s.states[es.e.From].op.Name(),
			ToName:   s.states[es.e.To].op.Name(),
			Input:    es.e.ToInput,
			Declared: es.e.UoT,
			UoT:      es.uot,
		})
	}
	s.ctx.Run.SetEdgeUoTs(out)
}

// fail records the first fatal error and cancels all remaining queued work
// orders, including retries still waiting out their backoff.
func (s *sched) fail(err error) {
	if s.runErr != nil {
		return
	}
	s.runErr = err
	if dropped := len(s.queue) + len(s.retries); dropped > 0 && s.ctx.Run != nil {
		s.ctx.Run.AddCancellations(int64(dropped))
	}
	s.queue = nil
	for t := range s.retries {
		t.Stop()
		delete(s.retries, t)
	}
	for _, o := range s.states {
		o.queued = 0
	}
}

// failStalled reports a scheduler stall (unreachable operator or missing
// edge), including which pipelined edges still buffer undelivered blocks —
// the bookkeeping that pins down where the data stopped flowing.
func (s *sched) failStalled() {
	var stuck []string
	for _, st := range s.states {
		if !st.done {
			stuck = append(stuck, fmt.Sprintf("%s{started=%v deps=%d inputsOpen=%d queued=%d inflight=%d finalIssued=%v}",
				st.op.Name(), st.started, st.deps, st.inputsOpen, st.queued, st.inflight, st.finalIssued))
		}
	}
	var buffered []string
	blocks := 0
	for _, es := range s.edges {
		if es.e.Kind == Pipelined && len(es.buf) > 0 {
			blocks += len(es.buf)
			buffered = append(buffered, fmt.Sprintf("%s->%s(input %d): %d blocks",
				s.states[es.e.From].op.Name(), s.states[es.e.To].op.Name(), es.e.ToInput, len(es.buf)))
		}
	}
	msg := fmt.Sprintf("core: scheduler stalled with %d/%d operators done (plan bug: unreachable operator or missing edge): %v",
		s.doneOps, len(s.states), stuck)
	if len(buffered) > 0 {
		msg += fmt.Sprintf("; %d undelivered blocks buffered on %d edge(s): %v", blocks, len(buffered), buffered)
	}
	s.fail(fmt.Errorf("%s", msg))
}

// pickJob returns the index of the dispatchable queued job belonging to the
// deepest operator (consumer priority), breaking ties by queue order; -1 if
// nothing is dispatchable. After an error, nothing is dispatchable.
//
// When a temp-memory budget is set (a Section III-C scheduler policy) and
// live intermediate bytes exceed it, producer work orders — jobs of
// operators that are not at maximal depth among the queued jobs — are held
// back so consumers can drain buffered blocks first; if the queue holds only
// producers, one is dispatched anyway to guarantee progress. A producer held
// back more than memHoldLimit times in a row is dispatched anyway. Holding is
// the budget's only mechanism: no edge's UoT moves.
func (s *sched) pickJob() int {
	if s.runErr != nil {
		return -1
	}
	best, bestDepth := -1, -1
	for i, j := range s.queue {
		st := s.states[j.op]
		if st.depth > bestDepth {
			best, bestDepth = i, st.depth
		}
	}
	if best >= 0 && s.overBudget() && s.inflight > 0 && s.producesBlocks(s.queue[best].op) {
		st := s.states[s.queue[best].op]
		st.memHolds++
		if st.memHolds <= memHoldLimit {
			// Hold back block-producing work while over budget; the
			// in-flight work orders (consumers, by depth priority) will
			// complete, release their input blocks, and unblock the
			// queue. inflight > 0 guarantees progress.
			return -1
		}
		st.memHolds = 0
	}
	return best
}

func (s *sched) overBudget() bool {
	return s.ctx.MemoryBudget > 0 && s.ctx.Run != nil &&
		s.ctx.Run.Intermediates.Live() > s.ctx.MemoryBudget
}

// producesBlocks reports whether an operator feeds pipelined consumers (its
// output occupies temp-block memory until drained).
func (s *sched) producesBlocks(id OpID) bool {
	for _, es := range s.states[id].out {
		if es.e.Kind == Pipelined {
			return true
		}
	}
	return false
}

// runJob executes one work-order attempt on the given pool worker, then,
// under the run's lock, records its result and dispatches what it unblocked.
func (s *sched) runJob(j job, worker int) {
	out := &Output{}
	start := time.Now()
	var err error
	if cerr := s.ctx.Canceled(); cerr != nil {
		// Canceled while queued: report without running at all.
		err = cerr
	} else {
		err = runSafely(j.wo, s.ctx, out)
	}
	j.attempt++
	r := wres{job: j, out: out, start: start, end: time.Now(), worker: worker, err: err}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onComplete(r)
	s.step()
}

// runSafely executes one work-order attempt. Panics are recovered into
// PanicError with the goroutine stack captured at the panic site; typed
// aborts from emitter interruption points (injected faults, cancellation)
// unwind to their underlying error. On any failure the attempt's
// materialized blocks are rolled back via Output.Finish before the result is
// reported, so a failed attempt leaves no trace in the temp-block pool.
func runSafely(wo WorkOrder, ctx *ExecCtx, out *Output) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(*woAbort); ok {
				err = a.err
			} else {
				err = &PanicError{Val: r, Stack: debug.Stack()}
			}
		}
		out.Finish(err)
	}()
	return wo.Run(ctx, out)
}

// maxAttempts returns the per-work-order attempt bound (>= 1).
func (s *sched) maxAttempts() int {
	if s.ctx.MaxAttempts > 1 {
		return s.ctx.MaxAttempts
	}
	return 1
}

// retryBackoff returns the delay before re-dispatching a work order that
// failed `attempt` times: exponential from RetryBackoff (default 1ms),
// capped at 100ms.
func (s *sched) retryBackoff(attempt int) time.Duration {
	base := s.ctx.RetryBackoff
	if base <= 0 {
		base = time.Millisecond
	}
	d := base << (attempt - 1)
	if maxB := 100 * time.Millisecond; d > maxB || d <= 0 {
		d = 100 * time.Millisecond
	}
	return d
}

func (s *sched) onComplete(r wres) {
	st := s.states[r.op]
	st.inflight--
	s.inflight--

	if s.ctx.Sim != nil {
		// A worker switching operators re-fills the instruction cache: the IC
		// term of the Section V model. Charged here, under the run's lock,
		// against this run's previous job on the same worker; per worker,
		// completions arrive in execution order.
		for len(s.lastOp) <= r.worker {
			s.lastOp = append(s.lastOp, -1)
		}
		if s.lastOp[r.worker] != r.op {
			r.out.Sim += s.ctx.Sim.ContextSwitch()
		}
		s.lastOp[r.worker] = r.op
	}

	retry := false
	if r.err != nil {
		if s.ctx.Run != nil {
			s.ctx.Run.AddFailedAttempt()
		}
		retry = s.runErr == nil && r.attempt < s.maxAttempts() && IsTransient(r.err)
	}
	if s.ctx.Run != nil {
		s.ctx.Run.Record(stats.WorkOrder{
			OpID:    int(r.op),
			OpName:  st.op.Name(),
			Worker:  r.worker,
			Start:   r.start,
			End:     r.end,
			Sim:     r.out.Sim,
			Rows:    r.out.RowsIn,
			RowsOut: r.out.RowsOut,
			Kernel:  r.out.Kernel,
			Attempt: r.attempt,
			Failed:  r.err != nil,
		})
	}
	if tr := s.ctx.Trace; tr.Enabled() {
		var flags uint8
		if r.err != nil {
			flags |= trace.FlagFailed
		}
		if retry {
			flags |= trace.FlagRetried
		}
		tr.SpanIn(s.ctx.TraceRun, trace.Event{
			Op:        int32(r.op),
			Worker:    int32(r.worker),
			Attempt:   int32(r.attempt),
			Batch:     r.batch,
			Flags:     flags,
			EnqueueNS: r.enqueueNS,
			StartNS:   tr.Since(r.start),
			EndNS:     tr.Since(r.end),
			Rows:      r.out.RowsIn,
			RowsOut:   r.out.RowsOut,
			Kernel:    r.out.Kernel,
		})
	}
	if retry {
		// The attempt was rolled back by runSafely; the inputs stay held
		// and the same work order re-queues when its backoff timer fires.
		if s.ctx.Run != nil {
			s.ctx.Run.AddRetry()
		}
		s.ctx.Trace.MarkIn(s.ctx.TraceRun, trace.MarkRetry, trace.Event{
			Op: int32(r.op), Attempt: int32(r.attempt), Batch: r.batch,
			StartNS: s.ctx.Trace.Now(),
		})
		j := r.job
		j.enqueueNS = s.ctx.Trace.Now()
		var t *time.Timer
		t = time.AfterFunc(s.retryBackoff(r.attempt), func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if _, ok := s.retries[t]; !ok {
				return // dropped by fail
			}
			delete(s.retries, t)
			s.queue = append(s.queue, j)
			s.step()
		})
		s.retries[t] = struct{}{}
		st.queued++
		return
	}
	if r.err != nil && s.runErr == nil {
		// Work orders that died of run cancellation (canceled while queued,
		// or aborted at an emitter interruption point) surface the raw
		// context error; type it like the run-loop path does.
		err := wrapCancel(r.err)
		if r.attempt > 1 {
			err = fmt.Errorf("core: work order for %s failed after %d attempts: %w", st.op.Name(), r.attempt, err)
		}
		s.fail(err)
	}
	// Release consumed intermediate blocks (kept until now so retried
	// attempts could re-read them).
	for _, b := range r.wo.Inputs() {
		if _, ok := st.held[b]; ok {
			delete(st.held, b)
			s.decRef(b)
		}
	}
	if s.runErr == nil {
		s.emit(st, r.out.Blocks)
	} else {
		// A straggler that completed after the run failed: its output
		// will never be delivered, so reclaim it here.
		for _, b := range r.out.Blocks {
			s.release(b)
		}
	}
	s.check(st)
}

// emit routes every block produced by st into each of its outgoing pipelined
// edges.
func (s *sched) emit(st *opState, blocks []*storage.Block) {
	if len(blocks) == 0 {
		return
	}
	// Reference count = number of non-adopting pipelined consumers; one
	// adopting consumer makes the blocks adopted.
	pipes, refs, adopts := 0, 0, false
	for _, es := range st.out {
		if es.e.Kind == Pipelined {
			pipes++
			if s.states[es.e.To].op.AdoptsInputs() {
				adopts = true
			} else {
				refs++
			}
		}
	}
	if pipes == 0 {
		// Output of an operator with only blocking/gate consumers (e.g. a
		// scalar provider, whose value travels via ScalarValue, not blocks).
		for _, b := range blocks {
			s.release(b)
		}
		return
	}
	evicted := 0
	var evictedBytes int64
	for _, b := range blocks {
		if refs > 0 {
			s.rc[b] = refs
		}
		if adopts {
			s.adopted[b] = struct{}{}
		}
		for _, es := range st.out {
			if es.e.Kind == Pipelined {
				es.buf = append(es.buf, b)
			}
		}
		// The block is now sealed and parked awaiting delivery: cool it so
		// the spill tier may evict it under memory pressure (no-op without a
		// tier). Cool rebalances, so eviction rounds happen right here under
		// the run's lock; mark them on the trace.
		eb, ebytes := s.ctx.Pool.Cool(b)
		evicted += eb
		evictedBytes += ebytes
	}
	if evicted > 0 {
		s.ctx.Trace.MarkIn(s.ctx.TraceRun, trace.MarkSpill, trace.Event{
			Op: int32(st.id), Rows: int64(evicted), RowsOut: evictedBytes,
			StartNS: s.ctx.Trace.Now(),
		})
	}
	for _, es := range st.out {
		if es.e.Kind == Pipelined {
			s.tryFlush(es)
			if s.runErr != nil {
				return // a delivery's fault-in failed; cleanup reclaims the rest
			}
		}
	}
}

// tryFlush hands buffered blocks to the consumer in UoT-sized groups. When
// tracing is enabled every transition ends with a gauge sample of the edge
// (buffered blocks vs. the UoT threshold, scheduler queue depth, stall time
// of the drained blocks, and memory-pool occupancy); the untraced path takes
// no timestamps.
func (s *sched) tryFlush(es *edgeState) {
	traced := es.e.Kind == Pipelined && s.ctx.Trace.Enabled()
	delivered := 0
	c := s.states[es.e.To]
	if !c.started {
		if traced {
			if len(es.buf) > 0 && es.bufSince == 0 {
				es.bufSince = s.ctx.Trace.Now()
			}
			s.sampleEdge(es, 0, 0)
		}
		return
	}
	uot := es.uot
	for uot != UoTTable && len(es.buf) >= uot {
		chunk := es.buf[:uot:uot]
		es.buf = es.buf[uot:]
		delivered += len(chunk)
		s.deliver(c, es, chunk)
		if s.runErr != nil {
			return // fault-in failed; blocks left in es.buf go to cleanup
		}
	}
	if es.producerDone {
		if len(es.buf) > 0 {
			chunk := es.buf
			es.buf = nil
			delivered += len(chunk)
			s.deliver(c, es, chunk)
			if s.runErr != nil {
				return
			}
		}
		if !es.delivered {
			es.delivered = true
			c.inputsOpen--
			s.check(c)
		}
	}
	if traced {
		var stall int64
		nowNS := s.ctx.Trace.Now()
		if delivered > 0 && es.bufSince > 0 {
			// How long the just-drained blocks waited buffered behind the
			// UoT threshold before the consumer could see them.
			stall = nowNS - es.bufSince
		}
		if len(es.buf) == 0 {
			es.bufSince = 0
		} else if delivered > 0 || es.bufSince == 0 {
			es.bufSince = nowNS
		}
		s.sampleEdge(es, delivered, stall)
	}
}

// sampleEdge records one per-edge gauge sample (tracing enabled only).
func (s *sched) sampleEdge(es *edgeState, delivered int, stallNS int64) {
	var pool int64
	if s.ctx.Run != nil {
		pool = s.ctx.Run.Intermediates.Live()
	}
	s.ctx.Trace.EdgeIn(s.ctx.TraceRun, trace.Event{
		Edge:       es.id,
		StartNS:    s.ctx.Trace.Now(),
		Buffered:   int32(len(es.buf)),
		UoT:        int64(es.uot),
		QueueDepth: int32(len(s.queue)),
		StallNS:    stallNS,
		PoolBytes:  pool,
	}, delivered)
}

// deliver hands one UoT group to the consumer. Every block is pinned first:
// a pinned block is ineligible for spill eviction for as long as operator
// code may touch its memory, and a block the tier already evicted is faulted
// back in synchronously — the read-through stall the delivery path pays in
// the Section V-C persistent-store regime. A fault-in that fails past the
// retry bound abandons the whole delivery: the consumer never sees the chunk,
// and cleanup reclaims it (every delivered block is refcounted, adopted, or
// both).
func (s *sched) deliver(c *opState, es *edgeState, blocks []*storage.Block) {
	faulted := 0
	var faultBytes, faultStall int64
	for _, b := range blocks {
		pr, err := s.ctx.Pool.Pin(b)
		if err != nil {
			s.fail(fmt.Errorf("core: delivering %d block(s) to %s: %w", len(blocks), c.op.Name(), err))
			return
		}
		if pr.FaultedIn {
			faulted++
			faultBytes += pr.Bytes
			faultStall += pr.StallNS
		}
	}
	if faulted > 0 {
		s.ctx.Trace.MarkIn(s.ctx.TraceRun, trace.MarkSpillFaultIn, trace.Event{
			Op: int32(es.e.To), Edge: es.id,
			Rows: int64(faulted), RowsOut: faultBytes, StallNS: faultStall,
			StartNS: s.ctx.Trace.Now(),
		})
	}
	if c.op.AdoptsInputs() {
		// Ownership leaves the pool with the Feed; the tier must not keep
		// tracking blocks it can no longer see released.
		for _, b := range blocks {
			s.ctx.Pool.Forget(b)
		}
	} else {
		for _, b := range blocks {
			if _, ok := s.rc[b]; ok {
				c.held[b] = struct{}{}
			}
		}
	}
	es.batches++
	s.enqueueBatch(c, c.op.Feed(s.ctx, es.e.ToInput, blocks), es.batches-1)
}

func (s *sched) enqueue(st *opState, wos []WorkOrder) {
	s.enqueueBatch(st, wos, -1)
}

// enqueueBatch queues work orders annotated with the UoT delivery batch that
// produced them (-1 for Start/Final work orders).
func (s *sched) enqueueBatch(st *opState, wos []WorkOrder, batch int64) {
	if s.runErr != nil {
		return
	}
	var enq int64
	if s.ctx.Trace.Enabled() {
		enq = s.ctx.Trace.Now()
	}
	for _, wo := range wos {
		s.queue = append(s.queue, job{op: st.id, wo: wo, enqueueNS: enq, batch: batch})
	}
	st.queued += len(wos)
}

func (s *sched) startOp(st *opState) {
	st.started = true
	s.enqueue(st, st.op.Start(s.ctx))
	for _, es := range s.edges {
		if es.e.Kind == Pipelined && es.e.To == st.id {
			s.tryFlush(es)
		}
	}
	s.check(st)
}

// check advances an operator through final work orders to completion.
func (s *sched) check(st *opState) {
	if st.done || !st.started {
		return
	}
	if st.inputsOpen > 0 || st.inflight > 0 || st.queued > 0 {
		return
	}
	if !st.finalIssued {
		st.finalIssued = true
		if wos := st.op.Final(s.ctx); len(wos) > 0 {
			s.enqueue(st, wos)
			return
		}
	}
	// Staged operators run post-Final waves: each wave must fully complete
	// before the next stage is asked for, which is what lets a later stage
	// hand ordered blocks to the out-edges in one deterministic work order.
	if so, ok := st.op.(StagedOperator); ok {
		for {
			wos := so.NextStage(s.ctx, st.stage)
			if wos == nil {
				break
			}
			st.stage++
			if len(wos) > 0 {
				s.enqueue(st, wos)
				return
			}
		}
	}
	s.finish(st)
}

func (s *sched) finish(st *opState) {
	st.done = true
	s.doneOps++

	// Publish scalar results before unblocking dependents.
	for _, slot := range st.scalarSlots {
		v, ok := st.op.ScalarValue()
		if !ok {
			s.fail(fmt.Errorf("core: operator %q registered for scalar slot %d produced no scalar", st.op.Name(), slot))
		} else {
			s.ctx.Scalars[slot] = v
		}
	}

	// Partially-filled output blocks are transferred at operator end.
	if s.runErr == nil {
		s.emit(st, s.ctx.Pool.TakePartials(int(st.id)))
	}

	st.op.Cleanup(s.ctx)

	for _, es := range st.out {
		switch es.e.Kind {
		case Pipelined:
			es.producerDone = true
			s.tryFlush(es)
		case Blocking:
			c := s.states[es.e.To]
			c.deps--
			if c.deps == 0 && !c.started {
				s.startOp(c)
			}
		}
	}

	// Blocks this operator buffered but never consumed through work orders.
	for b := range st.held {
		delete(st.held, b)
		s.decRef(b)
	}
}

// cleanup is the one place an aborted run's blocks are reclaimed: refcounted
// blocks, blocks buffered on edges awaiting delivery, partial blocks still
// checked into the pool, a staged operator's parked blocks, and the adopted
// set — a partial result is meaningless, and under a shared pool every block
// of a failed query must return to the global accounting. Successful runs
// release everything through the normal flow and hand the adopted set over
// untouched, so this is a no-op for them.
func (s *sched) cleanup() {
	if s.runErr == nil {
		return
	}
	released := make(map[*storage.Block]struct{})
	release := func(b *storage.Block) {
		if _, ok := released[b]; ok {
			return
		}
		released[b] = struct{}{}
		s.release(b)
	}
	for b := range s.rc {
		release(b)
		delete(s.rc, b)
	}
	for _, es := range s.edges {
		for _, b := range es.buf {
			release(b)
		}
		es.buf = nil
	}
	for _, st := range s.states {
		for b := range st.held {
			delete(st.held, b)
		}
		for _, b := range s.ctx.Pool.TakePartials(int(st.id)) {
			release(b)
		}
		// Blocks materialized for an emit stage that will never run are in
		// no refcount, edge, or partial structure — only the operator knows
		// about them.
		if so, ok := st.op.(StagedOperator); ok {
			for _, b := range so.AbandonStages() {
				release(b)
			}
		}
	}
	for b := range s.adopted {
		release(b)
		delete(s.adopted, b)
	}
}

// checkInvariants verifies the zero-leak invariants after every run — no
// blocks buffered on edges, none held by operators, no partials checked into
// the pool, no refcount entries alive — records the counts in stats, and
// turns a violation on an otherwise successful run into an error (it means a
// scheduler bug, and silently leaking is worse than failing).
func (s *sched) checkInvariants() {
	bufBlocks := 0
	for _, es := range s.edges {
		bufBlocks += len(es.buf)
	}
	heldBlocks := 0
	for _, st := range s.states {
		heldBlocks += len(st.held)
	}
	partials := s.ctx.Pool.PendingPartials()
	refs := len(s.rc)
	if s.ctx.Run != nil {
		s.ctx.Run.SetLeaks(int64(bufBlocks+heldBlocks+partials), int64(refs))
	}
	if s.runErr == nil && bufBlocks+heldBlocks+partials+refs > 0 {
		s.runErr = fmt.Errorf("core: invariant violation after run: %d edge-buffered, %d held, %d partial blocks leaked, %d outstanding block refs",
			bufBlocks, heldBlocks, partials, refs)
	}
}

func (s *sched) decRef(b *storage.Block) {
	n, ok := s.rc[b]
	if !ok {
		return
	}
	n--
	if n > 0 {
		s.rc[b] = n
		return
	}
	delete(s.rc, b)
	if _, ok := s.adopted[b]; ok {
		return // the block stays with its adopter
	}
	s.release(b)
}

// release is the one way a block leaves the run: back to the pool, and out of
// the cache model.
func (s *sched) release(b *storage.Block) {
	s.ctx.Pool.Release(b)
	if s.ctx.Sim != nil {
		s.ctx.Sim.Evict(b)
	}
}
