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
// caller at start, or the worker that just finished a work order — dispatches
// the next work orders. Run returns after every operator has finished, after
// the run context is canceled, or after a work order fails fatally (a
// transient failure is rolled back and re-queued at once, up to maxAttempts
// executions). On any exit path the scheduler reclaims every intermediate
// block and verifies the zero-leak invariants.
func Run(plan *Plan, ctx *ExecCtx, defaultUoT int) error {
	if ctx.Workers <= 0 {
		ctx.Workers = 1
	}
	if ctx.TraceRun == 0 {
		ctx.TraceRun = ctx.Trace.OpenRun("", -1)
	}
	return newSched(plan, ctx, defaultUoT).run()
}

// maxAttempts bounds executions of one work order: a transient failure (see
// IsTransient) is rolled back and re-queued until the work order succeeds or
// has run maxAttempts times. Injected faults fire by per-site sequence
// number, not by time, so a retry waits for nothing.
const maxAttempts = 8

type job struct {
	op OpID
	wo WorkOrder
	// attempt counts completed executions of wo (0 for the first
	// dispatch).
	attempt int
	// final is the work order's index in its operator's Final wave, -1 for
	// every other work order.
	final int
	// Tracing annotations (zero when tracing is disabled): when the job
	// entered the queue and which UoT delivery batch fed it (-1 for work
	// orders not born from an edge delivery).
	enqueueNS int64
	batch     int64
	// input is the consumer input whose delivery fed wo; -1 for Start and
	// Final work orders.
	input int
}

// delivery is one block delivered on one input of its consumer, which holds
// one ref on the block for it: a producer piped into two inputs of one
// consumer delivers each block twice.
type delivery struct {
	b     *storage.Block
	input int
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
	// finalOut parks each completed Final work order's output in its issue
	// slot (finalDone marks the slot filled); finalNext is the first slot
	// not yet emitted. Final output routes in issue order, whatever order
	// the wave completes in.
	finalOut    [][]*storage.Block
	finalDone   []bool
	finalNext   int
	done        bool
	out         []*edgeState
	held        map[delivery]struct{}
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
	// levels holds the queued jobs in one FIFO per operator depth; queued
	// counts them all.
	levels   [][]job
	queued   int
	doneOps  int
	inflight int
	runErr   error
	// done is closed once nothing is in flight and nothing can be dispatched.
	done chan struct{}
	// lastOp is the operator of this run's previous job on each pool
	// worker, for the IC term of the Section V model (Sim runs only).
	lastOp []OpID
}

func newSched(plan *Plan, ctx *ExecCtx, defaultUoT int) *sched {
	s := &sched{plan: plan, ctx: ctx}
	s.done = make(chan struct{})
	s.states = make([]*opState, len(s.plan.Ops))
	for i, op := range s.plan.Ops {
		s.states[i] = &opState{
			id:   OpID(i),
			op:   op,
			held: make(map[delivery]struct{}),
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
	maxDepth := 0
	for _, st := range s.states {
		maxDepth = max(maxDepth, st.depth)
	}
	s.levels = make([][]job, maxDepth+1)
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
// over: nothing in flight, nothing dispatchable. With one worker every
// dispatch decision is taken on a fresh queue right after the previous
// completion, so the schedule is fully deterministic (what makes a seeded
// fault schedule replayable).
func (s *sched) step() {
	if s.runErr == nil {
		if err := s.ctx.Canceled(); err != nil {
			s.fail(&CancelError{Cause: err})
		}
	}
	for s.inflight < s.ctx.Workers {
		j, ok := s.pickJob()
		if !ok {
			break
		}
		s.states[j.op].inflight++
		s.inflight++
		s.exec.Submit(Task{
			Query:    s.ctx.Query,
			Priority: s.ctx.Priority,
			Run:      func(worker int) { s.runJob(j, worker) },
		})
	}
	if s.inflight > 0 {
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
// orders.
func (s *sched) fail(err error) {
	if s.runErr != nil {
		return
	}
	s.runErr = err
	if s.queued > 0 && s.ctx.Run != nil {
		s.ctx.Run.AddCancellations(int64(s.queued))
	}
	clear(s.levels)
	s.queued = 0
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

// pickJob dequeues the head of the deepest non-empty depth FIFO: consumer
// priority, ties broken by queue order. It reports false when the queue is
// empty or the run has failed.
func (s *sched) pickJob() (job, bool) {
	if s.runErr != nil || s.queued == 0 {
		return job{}, false
	}
	d := len(s.levels) - 1
	for len(s.levels[d]) == 0 {
		d--
	}
	q := s.levels[d]
	j := q[0]
	q[0] = job{} // drop the backing array's reference to the work order
	s.levels[d] = q[1:]
	s.states[j.op].queued--
	s.queued--
	return j, true
}

// push appends a job to its operator's depth FIFO.
func (s *sched) push(j job) {
	st := s.states[j.op]
	s.levels[st.depth] = append(s.levels[st.depth], j)
	st.queued++
	s.queued++
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
		retry = s.runErr == nil && r.attempt < maxAttempts && IsTransient(r.err)
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
		// and the same work order goes straight back on the queue, where
		// pickJob orders it like any other job.
		if s.ctx.Run != nil {
			s.ctx.Run.AddRetry()
		}
		s.ctx.Trace.MarkIn(s.ctx.TraceRun, trace.MarkRetry, trace.Event{
			Op: int32(r.op), Attempt: int32(r.attempt), Batch: r.batch,
			StartNS: s.ctx.Trace.Now(),
		})
		j := r.job
		j.enqueueNS = s.ctx.Trace.Now()
		s.push(j)
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
	// attempts could re-read them), unless the operator reads them on.
	switch st.op.Keeps() {
	case KeepWorkOrder:
		for _, b := range r.wo.Inputs() {
			d := delivery{b, r.input}
			if _, ok := st.held[d]; ok {
				delete(st.held, d)
				s.drop(b)
			}
		}
	case KeepForReaders:
		// A block the operator alone reads is now part of its table.
		for _, b := range r.wo.Inputs() {
			if _, ok := st.held[delivery{b, r.input}]; ok && b.Refs() == 1 && s.ctx.Run != nil {
				s.ctx.Pool.Keep(b, &s.ctx.Run.HashTables)
			}
		}
	}
	switch {
	case s.runErr != nil:
		// A straggler that completed after the run failed: its output
		// will never be delivered, so reclaim it here.
		for _, b := range r.out.Blocks {
			s.release(b)
		}
	case r.final >= 0:
		s.emitFinal(st, r.final, r.out.Blocks)
	default:
		s.emit(st, r.out.Blocks)
	}
	s.check(st)
}

// emitFinal parks a completed Final work order's output in its issue slot and
// emits the longest completed prefix of the wave, so ordered output (a sort's
// range partitions) reaches the out-edges in partition order. Parked blocks
// are the scheduler's until emitted; cleanup releases them on a failed run.
func (s *sched) emitFinal(st *opState, slot int, blocks []*storage.Block) {
	st.finalOut[slot], st.finalDone[slot] = blocks, true
	for st.finalNext < len(st.finalDone) && st.finalDone[st.finalNext] && s.runErr == nil {
		blocks := st.finalOut[st.finalNext]
		st.finalOut[st.finalNext] = nil
		st.finalNext++
		s.emit(st, blocks)
	}
}

// emit routes every block produced by st into each of its outgoing pipelined
// edges.
func (s *sched) emit(st *opState, blocks []*storage.Block) {
	if len(blocks) == 0 {
		return
	}
	// One ref per pipelined consumer, adopters included. Only a sole
	// consumer that drops or indexes a view reads it in place: a sort's
	// merge and an adopter need the cells themselves, and a consumer that
	// materializes a view would change it under the others.
	refs, materialize, cut := 0, false, false
	for _, es := range st.out {
		if es.e.Kind == Pipelined {
			refs++
			switch s.states[es.e.To].op.Keeps() {
			case KeepUntilDone, KeepAdopted:
				materialize = true
			case KeepForReaders:
				cut = true
			}
		}
	}
	materialize = materialize || refs > 1
	if refs == 0 {
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
		if materialize {
			s.ctx.Pool.Materialize(b, s.ctx.TempBlockBytes)
		}
		if cut {
			// A consumer keeps the block past its work orders: a partial
			// one should not pin a whole budget meanwhile.
			s.ctx.Pool.Cut(b)
		}
		for _, es := range st.out {
			if es.e.Kind == Pipelined {
				es.buf = append(es.buf, b)
			}
		}
		// The block is now sealed and parked awaiting delivery, so the spill
		// tier may evict it under memory pressure. Park rebalances, so
		// eviction rounds happen right here under the run's lock; mark them
		// on the trace.
		eb, ebytes := s.ctx.Pool.Park(b, refs)
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
		QueueDepth: int32(s.queued),
		StallNS:    stallNS,
		PoolBytes:  pool,
	}, delivered)
}

// deliver hands one UoT group to the consumer. The consumer holds every
// block first, then every block is pinned: a pinned block is ineligible for
// spill eviction for as long as operator code may touch its memory, and a
// block the tier already evicted is faulted back in synchronously — the
// read-through stall the delivery path pays in the Section V-C
// persistent-store regime. A fault-in that fails past the retry bound
// abandons the whole delivery: the consumer never sees the chunk, and
// cleanup drops its refs from the consumer's held set.
func (s *sched) deliver(c *opState, es *edgeState, blocks []*storage.Block) {
	for _, b := range blocks {
		c.held[delivery{b, es.e.ToInput}] = struct{}{}
	}
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
	es.batches++
	s.enqueueBatch(c, c.op.Feed(s.ctx, es.e.ToInput, blocks), es.batches-1, es.e.ToInput, false)
}

func (s *sched) enqueue(st *opState, wos []WorkOrder) {
	s.enqueueBatch(st, wos, -1, -1, false)
}

// enqueueBatch queues work orders annotated with the UoT delivery batch that
// produced them (-1 for Start/Final work orders). A Final wave's jobs carry
// their issue index (see emitFinal).
func (s *sched) enqueueBatch(st *opState, wos []WorkOrder, batch int64, input int, final bool) {
	if s.runErr != nil {
		return
	}
	var enq int64
	if s.ctx.Trace.Enabled() {
		enq = s.ctx.Trace.Now()
	}
	for i, wo := range wos {
		j := job{op: st.id, wo: wo, final: -1, enqueueNS: enq, batch: batch, input: input}
		if final {
			j.final = i
		}
		s.push(j)
	}
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
			st.finalOut = make([][]*storage.Block, len(wos))
			st.finalDone = make([]bool, len(wos))
			s.enqueueBatch(st, wos, -1, -1, true)
			return
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

	// Blocks this operator buffered but never consumed through work orders,
	// or kept past them; and the kept blocks of a producer whose blocking
	// consumers are now all done.
	s.releaseHeld(st)
	for _, es := range s.edges {
		if es.e.Kind == Blocking && es.e.To == st.id {
			s.releaseHeld(s.states[es.e.From])
		}
	}
}

// releaseHeld drops a finished operator's input refs, unless it adopted them
// (cleanup hands those out) or keeps them for an operator behind one of its
// blocking edges that has not finished yet.
func (s *sched) releaseHeld(st *opState) {
	if !st.done || len(st.held) == 0 || st.op.Keeps() == KeepAdopted {
		return
	}
	if st.op.Keeps() == KeepForReaders {
		for _, es := range st.out {
			if es.e.Kind == Blocking && !s.states[es.e.To].done {
				return
			}
		}
	}
	for d := range st.held {
		delete(st.held, d)
		s.drop(d.b)
	}
}

// cleanup hands the adopters' blocks out of a successful run and is the one
// place an aborted run's blocks are reclaimed. Every ref on a block is an
// edge-buffer entry or a held delivery, so dropping each once releases every
// parked or delivered block, adopted ones included; partial blocks still
// checked into the pool and a Final wave's parked outputs are released too —
// a partial result is meaningless, and under a shared pool every block of a
// failed query must return to the global accounting. An operator that did
// not finish is cleaned up here, so a table whose last probe never ran
// leaves the run's HashTables. A successful run has released everything else
// through the normal flow.
func (s *sched) cleanup() {
	if s.runErr == nil {
		for _, st := range s.states {
			if st.op.Keeps() == KeepAdopted {
				for d := range st.held {
					delete(st.held, d)
					s.ctx.Pool.HandOut(d.b)
				}
			}
		}
		return
	}
	for _, es := range s.edges {
		for _, b := range es.buf {
			s.drop(b)
		}
		es.buf = nil
	}
	for _, st := range s.states {
		for d := range st.held {
			delete(st.held, d)
			s.drop(d.b)
		}
		for _, b := range s.ctx.Pool.TakePartials(int(st.id)) {
			s.release(b)
		}
		for _, bs := range st.finalOut {
			for _, b := range bs {
				s.release(b)
			}
		}
		st.finalOut = nil
		if !st.done {
			st.op.Cleanup(s.ctx)
		}
	}
}

// checkInvariants verifies the zero-leak invariants after every run — no
// blocks buffered on edges, none held by operators, no partials checked into
// the pool, no bytes left on the run's pool or hash-table gauges — records
// them in stats, and turns a violation on an otherwise successful run into
// an error (it means a scheduler bug, and silently leaking is worse than
// failing).
func (s *sched) checkInvariants() {
	blocks := s.ctx.Pool.PendingPartials()
	for _, es := range s.edges {
		blocks += len(es.buf)
	}
	for _, st := range s.states {
		blocks += len(st.held)
	}
	leaked := s.ctx.Pool.Live()
	if s.ctx.Run != nil {
		leaked += s.ctx.Run.HashTables.Live()
		s.ctx.Run.SetLeaks(int64(blocks), leaked)
	}
	if s.runErr == nil && (blocks != 0 || leaked != 0) {
		s.runErr = fmt.Errorf("core: invariant violation after run: %d blocks buffered, held or checked in, %d bytes left on the pool and hash-table gauges",
			blocks, leaked)
	}
}

// drop drops one of b's refs; the last returns b to the pool and takes it
// out of the cache model.
func (s *sched) drop(b *storage.Block) {
	if s.ctx.Pool.Drop(b) && s.ctx.Sim != nil {
		s.ctx.Sim.Evict(b)
	}
}

// release returns a block no reader holds to the pool and takes it out of
// the cache model.
func (s *sched) release(b *storage.Block) {
	s.ctx.Pool.Release(b)
	if s.ctx.Sim != nil {
		s.ctx.Sim.Evict(b)
	}
}
