package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/types"
)

// transientErr is a minimal retryable error for scheduler tests.
type transientErr struct{ msg string }

func (e *transientErr) Error() string   { return e.msg }
func (e *transientErr) Transient() bool { return true }

// flaky emits one block of rows via a work order that fails its first failN
// attempts with a transient error before succeeding.
type flaky struct {
	Base
	failN int
	fatal error // if set, returned instead of the transient error
	runs  atomic.Int32
	rows  int
}

func (f *flaky) Name() string { return "flaky" }

func (f *flaky) Start(*ExecCtx) []WorkOrder {
	return []WorkOrder{&flakyWO{f: f}}
}

type flakyWO struct{ f *flaky }

func (w *flakyWO) Inputs() []*storage.Block { return nil }

func (w *flakyWO) Run(ctx *ExecCtx, out *Output) error {
	n := int(w.f.runs.Add(1))
	if n <= w.f.failN {
		if w.f.fatal != nil {
			return w.f.fatal
		}
		return &transientErr{"flaky failure"}
	}
	b := checkOut(ctx, w.f.rows)
	for r := 0; r < w.f.rows; r++ {
		b.AppendRow(types.NewInt64(int64(r)))
	}
	out.Blocks = append(out.Blocks, b)
	return nil
}

func TestTransientFailureRetriesUntilSuccess(t *testing.T) {
	f := &flaky{failN: 3, rows: 5}
	c := &consumer{}
	plan := &Plan{}
	fid := plan.AddOp(f)
	cid := plan.AddOp(c)
	plan.Pipe(fid, cid, 0, 1)
	ctx := newCtx(2)
	if err := Run(plan, ctx, 1); err != nil {
		t.Fatalf("run failed despite retries: %v", err)
	}
	if c.rows != 5 {
		t.Fatalf("consumer rows = %d, want 5 (exactly one successful delivery)", c.rows)
	}
	r := ctx.Run.Robust()
	if r.Retries != 3 || r.FailedAttempts != 3 {
		t.Fatalf("retries=%d failedAttempts=%d, want 3/3", r.Retries, r.FailedAttempts)
	}
	per := ctx.Run.PerOp()[fid] // both operators ran, so PerOp is indexed by ID
	if per.OpID != int(fid) || per.Count != 4 || per.FailedAttempts != 3 {
		t.Fatalf("flaky op totals: count=%d failed=%d, want 4/3", per.Count, per.FailedAttempts)
	}
	if r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
		t.Fatalf("leak counters nonzero after faulty run: %+v", r)
	}
}

// TestRetryExhaustionReportsAttempts: a work order that keeps failing
// transiently runs maxAttempts times, and the run's retries leave no goroutine
// behind (a retry is a re-queue, not a timer).
func TestRetryExhaustionReportsAttempts(t *testing.T) {
	f := &flaky{failN: 100, rows: 1}
	plan := &Plan{}
	plan.AddOp(f)
	ctx := newCtx(1)
	before := runtime.NumGoroutine()
	err := Run(plan, ctx, 1)
	if err == nil || !strings.Contains(err.Error(), "failed after 8 attempts") {
		t.Fatalf("want attempt-count error, got %v", err)
	}
	if got := f.runs.Load(); got != 8 {
		t.Fatalf("work order ran %d times, want 8", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, got)
	}
}

func TestFatalErrorIsNotRetried(t *testing.T) {
	f := &flaky{failN: 100, fatal: errors.New("corrupt input"), rows: 1}
	plan := &Plan{}
	plan.AddOp(f)
	ctx := newCtx(1)
	err := Run(plan, ctx, 1)
	if err == nil || !strings.Contains(err.Error(), "corrupt input") {
		t.Fatalf("want fatal error, got %v", err)
	}
	if got := f.runs.Load(); got != 1 {
		t.Fatalf("fatal work order ran %d times, want 1", got)
	}
}

// slowFailProducer: many slow work orders; one consumer work order fails
// fatally. The scheduler must cancel the remaining queued work promptly.
type failingConsumer struct {
	consumer
	failOnce atomic.Bool
}

func (c *failingConsumer) Feed(_ *ExecCtx, _ int, blocks []*storage.Block) []WorkOrder {
	wos := make([]WorkOrder, len(blocks))
	for i, b := range blocks {
		wos[i] = &failingConsumeWO{c: c, b: b}
	}
	return wos
}

type failingConsumeWO struct {
	c *failingConsumer
	b *storage.Block
}

func (w *failingConsumeWO) Inputs() []*storage.Block { return []*storage.Block{w.b} }

func (w *failingConsumeWO) Run(_ *ExecCtx, out *Output) error {
	if w.c.failOnce.CompareAndSwap(false, true) {
		return errors.New("consumer exploded")
	}
	time.Sleep(2 * time.Millisecond)
	atomic.AddInt64(&w.c.rows, int64(w.b.NumRows()))
	return nil
}

func TestMidQueryErrorCancelsQueuedWorkPromptly(t *testing.T) {
	// 200 blocks x 2ms serial consume time would take ~200ms at 2 workers if
	// the queue kept draining after the failure; the run must come back far
	// faster, drop the queued work orders, and leak nothing.
	p := &producer{nblocks: 200, rows: 2}
	c := &failingConsumer{}
	plan := &Plan{}
	pid := plan.AddOp(p)
	cid := plan.AddOp(c)
	plan.Pipe(pid, cid, 0, 1)
	ctx := newCtx(2)

	before := runtime.NumGoroutine()
	start := time.Now()
	err := Run(plan, ctx, 1)
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "consumer exploded") {
		t.Fatalf("want consumer error, got %v", err)
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("failed run took %v; queued work was not canceled promptly", elapsed)
	}
	r := ctx.Run.Robust()
	if r.Cancellations == 0 {
		t.Fatal("no queued work orders were recorded as canceled")
	}
	if r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
		t.Fatalf("aborted run leaked blocks: %+v", r)
	}
	// Workers must exit once Run returns (the run-local pool is closed).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, got)
	}
}

func TestContextCancellationDropsQueuedWork(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	p := &producer{nblocks: 100, rows: 1}
	c := &consumer{}
	plan := &Plan{}
	pid := plan.AddOp(p)
	cid := plan.AddOp(c)
	plan.Pipe(pid, cid, 0, 1)
	ctx := newCtx(2)
	ctx.Ctx = cctx
	cancel() // canceled before the run even starts: nothing should execute
	err := Run(plan, ctx, 1)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	r := ctx.Run.Robust()
	if r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
		t.Fatalf("canceled run leaked blocks: %+v", r)
	}
}

// emitN emits the values from, from+1, ... as rows rows through the
// pool-backed emitter (so cancellation and rollback paths see real pool
// blocks).
type emitN struct {
	Base
	self       OpID
	rows, from int
}

func (e *emitN) Name() string { return "emitN" }
func (e *emitN) Start(*ExecCtx) []WorkOrder {
	return []WorkOrder{&emitNWO{op: e}}
}

type emitNWO struct{ op *emitN }

func (w *emitNWO) Inputs() []*storage.Block { return nil }

func (w *emitNWO) Run(ctx *ExecCtx, out *Output) error {
	em := NewEmitter(ctx, out, w.op.self, testSchema)
	for r := 0; r < w.op.rows; r++ {
		em.AppendRow(types.NewInt64(int64(w.op.from + r)))
	}
	return nil
}

// adopter is an adopting sink that keeps every fed block, as a result
// collector does.
type adopter struct {
	Base
	blocks []*storage.Block
}

func (a *adopter) Name() string { return "adopter" }
func (a *adopter) Keeps() Keep  { return KeepAdopted }
func (a *adopter) Feed(_ *ExecCtx, _ int, blocks []*storage.Block) []WorkOrder {
	a.blocks = append(a.blocks, blocks...)
	return nil
}

// TestAdoptedBlocksOutliveTheirOtherConsumer: a producer feeds a refcounting
// consumer and an adopting sink the same blocks. When the consumer drops its
// last reference the blocks stay with the adopter, live and unrecycled, past
// a successful run, which hands them out of the pool: the pool counts none
// of their bytes, and a later run that checks out whatever the freelist
// holds leaves their rows intact. When the run fails — in the consumer, or
// in an operator that starts only after the adopter was fed every block —
// cleanup releases the adopter's blocks and the pool drains to zero.
func TestAdoptedBlocksOutliveTheirOtherConsumer(t *testing.T) {
	for _, fail := range []string{"", "consumer", "after feed"} {
		e := &emitN{rows: 40}
		var c Operator = &consumer{}
		if fail == "consumer" {
			c = &failingConsumer{}
		}
		a := &adopter{}
		plan := &Plan{}
		e.self = plan.AddOp(e)
		plan.Pipe(e.self, plan.AddOp(c), 0, 1)
		plan.Pipe(e.self, plan.AddOp(a), 0, 1)
		if fail == "after feed" {
			plan.Block(e.self, plan.AddOp(&flaky{failN: 1, fatal: errors.New("late failure")}))
		}
		ctx := newCtx(1)
		err := Run(plan, ctx, 1)
		if r := ctx.Run.Robust(); r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
			t.Fatalf("fail=%q: leak counters nonzero: %+v", fail, r)
		}
		if fail != "" {
			if err == nil {
				t.Fatalf("fail=%q: run succeeded", fail)
			}
			if fail == "after feed" && len(a.blocks) < 2 {
				t.Fatalf("the run failed before the adopter was fed (%d blocks)", len(a.blocks))
			}
			if n := ctx.Pool.Live(); n != 0 {
				t.Fatalf("fail=%q: failed run left %d live bytes after adopting %d blocks", fail, n, len(a.blocks))
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := ctx.Pool.Live(); n != 0 {
			t.Fatalf("pool counts %d live bytes after handing the adopted blocks over", n)
		}
		// Other values through the same allocation budget: a recycled adopted
		// block would be checked out again and overwritten.
		again := &emitN{rows: 400, from: 1000}
		plan = &Plan{}
		again.self = plan.AddOp(again)
		plan.Pipe(again.self, plan.AddOp(&consumer{}), 0, 1)
		if err := Run(plan, newCtx(1), 1); err != nil {
			t.Fatal(err)
		}
		var bytes, rows int64
		for _, b := range a.blocks {
			bytes += int64(b.AllocBytes())
			for r := range b.NumRows() {
				if v := b.Int64At(0, r); v != rows {
					t.Fatalf("adopted row %d reads %d (recycled under the adopter?)", rows, v)
				}
				rows++
			}
		}
		if len(a.blocks) < 2 || rows != 40 || bytes == 0 {
			t.Fatalf("adopter holds %d blocks, %d rows, %d B; want several blocks, 40 rows and their bytes", len(a.blocks), rows, bytes)
		}
	}
}

func TestStallErrorReportsBufferedEdges(t *testing.T) {
	// A producer fills an edge whose consumer is gated behind a dependency
	// cycle: the stall error must name the edge and its undelivered blocks.
	plan := &Plan{}
	p := &producer{nblocks: 4, rows: 2}
	pid := plan.AddOp(p)
	c := &consumer{}
	cid := plan.AddOp(c)
	plan.Pipe(pid, cid, 0, 1)
	a := &gated{}
	b := &gated{}
	aid := plan.AddOp(a)
	bid := plan.AddOp(b)
	plan.Block(aid, bid)
	plan.Block(bid, aid)
	plan.Block(aid, cid) // consumer never starts
	ctx := newCtx(2)
	err := Run(plan, ctx, 1)
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("want stall error, got %v", err)
	}
	if !strings.Contains(err.Error(), "undelivered blocks") ||
		!strings.Contains(err.Error(), "producer->consumer") {
		t.Fatalf("stall error does not report buffered edges: %v", err)
	}
	r := ctx.Run.Robust()
	if r.LeakedBlocks != 0 {
		t.Fatalf("stalled run leaked %d blocks", r.LeakedBlocks)
	}
}

func TestPanicErrorCarriesStack(t *testing.T) {
	plan := &Plan{}
	plan.AddOp(&panicOp{})
	err := Run(plan, newCtx(1), 1)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatalf("panic error lost the stack: %q", pe.Stack)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic value missing from error: %v", err)
	}
}

func TestRollbackRestoresResumedPartialAndReleasesFreshBlocks(t *testing.T) {
	ctx := newCtx(1) // TempBlockBytes 64 → 8 rows per block
	const owner = 7

	// Attempt 1 succeeds with 3 rows: a partial is checked in.
	out1 := &Output{}
	em1 := NewEmitter(ctx, out1, owner, testSchema)
	for r := 0; r < 3; r++ {
		em1.AppendRow(types.NewInt64(int64(r)))
	}
	out1.Finish(nil)

	// Attempt 2 resumes the partial, appends 10 rows (sealing one full
	// block), then fails: everything must roll back to the 3-row state.
	out2 := &Output{}
	em2 := NewEmitter(ctx, out2, owner, testSchema)
	for r := 0; r < 10; r++ {
		em2.AppendRow(types.NewInt64(int64(100 + r)))
	}
	if len(out2.Blocks) == 0 {
		t.Fatal("test setup: attempt 2 sealed no block")
	}
	out2.Finish(errors.New("injected"))
	if out2.Blocks != nil || out2.RowsOut != 0 {
		t.Fatalf("failed attempt kept output: %d blocks, %d rows", len(out2.Blocks), out2.RowsOut)
	}

	// Attempt 3 resumes and appends one more row.
	out3 := &Output{}
	em3 := NewEmitter(ctx, out3, owner, testSchema)
	em3.AppendRow(types.NewInt64(99))
	out3.Finish(nil)

	parts := ctx.Pool.TakePartials(owner)
	if len(parts) != 1 {
		t.Fatalf("partials = %d, want 1", len(parts))
	}
	b := parts[0]
	want := []int64{0, 1, 2, 99}
	if b.NumRows() != len(want) {
		t.Fatalf("rows after rollback = %d, want %d", b.NumRows(), len(want))
	}
	for i, v := range want {
		if got := b.Int64At(0, i); got != v {
			t.Fatalf("row %d = %d, want %d (failed attempt's rows leaked in)", i, got, v)
		}
	}
	if n := ctx.Pool.PendingPartials(); n != 0 {
		t.Fatalf("pending partials = %d, want 0", n)
	}
}

// slowSink consumes slowly, so producer work orders queue up behind it.
type slowSink struct {
	consumer
}

func (c *slowSink) Feed(_ *ExecCtx, _ int, blocks []*storage.Block) []WorkOrder {
	wos := make([]WorkOrder, len(blocks))
	for i, b := range blocks {
		wos[i] = &slowSinkWO{c: c, b: b}
	}
	return wos
}

type slowSinkWO struct {
	c *slowSink
	b *storage.Block
}

func (w *slowSinkWO) Inputs() []*storage.Block { return []*storage.Block{w.b} }

func (w *slowSinkWO) Run(_ *ExecCtx, out *Output) error {
	time.Sleep(3 * time.Millisecond)
	atomic.AddInt64(&w.c.rows, int64(w.b.NumRows()))
	out.RowsIn = int64(w.b.NumRows())
	return nil
}

// TestSlowSinkDrainsProducersAtUoT1: at Workers 2, 40 pool-backed producer
// work orders feed a slow sink. Every row reaches the sink, the edge's UoT is
// untouched (every edge sample and the run-end record carry UoT 1), and no
// block leaks.
func TestSlowSinkDrainsProducersAtUoT1(t *testing.T) {
	e := &emitN{rows: 8}
	plan := &Plan{}
	eid := plan.AddOp(&multiEmit{op: e, n: 40}) // 40 independent producer WOs
	e.self = eid
	c := &slowSink{}
	cid := plan.AddOp(c)
	plan.Pipe(eid, cid, 0, 1)
	ctx, tr := newTracedCtx(2, "slow-sink")
	if err := Run(plan, ctx, 1); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := atomic.LoadInt64(&c.rows); got != 40*8 {
		t.Fatalf("sink rows = %d, want %d", got, 40*8)
	}
	samples := 0
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindEdge {
			samples++
			if ev.UoT != 1 {
				t.Fatalf("edge sample carries UoT %d, want 1: %+v", ev.UoT, ev)
			}
		}
	}
	if samples == 0 {
		t.Fatal("no edge samples recorded")
	}
	if got := ctx.Run.EdgeUoTs(); len(got) != 1 || got[0].UoT != 1 {
		t.Fatalf("edge UoTs = %+v, want one edge at UoT 1", got)
	}
	r := ctx.Run.Robust()
	if r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
		t.Fatalf("run leaked blocks: %+v", r)
	}
}

// multiEmit wraps emitN with n independent start work orders.
type multiEmit struct {
	Base
	op *emitN
	n  int
}

func (m *multiEmit) Name() string { return "multiEmit" }
func (m *multiEmit) Start(*ExecCtx) []WorkOrder {
	wos := make([]WorkOrder, m.n)
	for i := range wos {
		wos[i] = &emitNWO{op: m.op}
	}
	return wos
}

// lateTimerCtx has a deadline but never closes Done, as a context whose
// timer the runtime has not fired yet.
type lateTimerCtx struct {
	context.Context
	dl time.Time
}

func (c lateTimerCtx) Deadline() (time.Time, bool) { return c.dl, true }

// TestCanceledReadsTheDeadlineOffTheClock: a run sees its deadline pass
// even while the context's timer has not closed Done.
func TestCanceledReadsTheDeadlineOffTheClock(t *testing.T) {
	past := &ExecCtx{Ctx: lateTimerCtx{context.Background(), time.Now().Add(-time.Millisecond)}}
	if err := past.Canceled(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("passed deadline: Canceled() = %v", err)
	}
	future := &ExecCtx{Ctx: lateTimerCtx{context.Background(), time.Now().Add(time.Hour)}}
	if err := future.Canceled(); err != nil {
		t.Fatalf("future deadline: Canceled() = %v", err)
	}
}

// tableOp charges a table's bytes to the run's HashTables when it starts
// and takes them off in Cleanup, unless it leaks them.
type tableOp struct {
	Base
	leak bool
}

func (o *tableOp) Name() string { return "table" }

func (o *tableOp) Start(ctx *ExecCtx) []WorkOrder {
	ctx.Run.HashTables.Add(100)
	return nil
}

func (o *tableOp) Cleanup(ctx *ExecCtx) {
	if !o.leak {
		ctx.Run.HashTables.Sub(100)
	}
}

// TestLeakedGaugeBytesFailTheRun: the invariant checker reads the run's
// pool and hash-table gauges after cleanup, so a successful run that leaves
// bytes on either fails, and records them in LeakedBytes; a run whose
// operators give back what they charged passes.
func TestLeakedGaugeBytesFailTheRun(t *testing.T) {
	for _, leak := range []bool{false, true} {
		plan := &Plan{}
		plan.AddOp(&tableOp{leak: leak})
		pid := plan.AddOp(&producer{nblocks: 2, rows: 3})
		plan.Pipe(pid, plan.AddOp(&consumer{}), 0, 1)
		ctx := newCtx(1)
		err := Run(plan, ctx, 1)
		r := ctx.Run.Robust()
		if !leak && (err != nil || r.LeakedBytes != 0) {
			t.Fatalf("no leak: err %v, leaks %+v", err, r)
		}
		if leak && (err == nil || !strings.Contains(err.Error(), "100 bytes left") || r.LeakedBytes != 100) {
			t.Fatalf("leak: err %v, leaks %+v", err, r)
		}
	}
}
