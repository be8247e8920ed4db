package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

var testSchema = storage.NewSchema(storage.Column{Name: "k", Type: types.Int64})

func newCtx(workers int) *ExecCtx {
	run := stats.NewRun()
	return &ExecCtx{
		Pool:           storage.NewPool(&run.Intermediates, run.AddCheckout),
		Run:            run,
		TempBlockBytes: 64,
		TempFormat:     storage.RowStore,
		Workers:        workers,
	}
}

// producer emits nblocks blocks of rows each via its Start work orders.
type producer struct {
	Base
	nblocks int
	rows    int
	perWO   int // blocks per work order (default 1)
}

func (p *producer) Name() string { return "producer" }

func (p *producer) Start(*ExecCtx) []WorkOrder {
	per := p.perWO
	if per <= 0 {
		per = 1
	}
	var wos []WorkOrder
	for i := 0; i < p.nblocks; i += per {
		n := per
		if i+n > p.nblocks {
			n = p.nblocks - i
		}
		wos = append(wos, &produceWO{rows: p.rows, blocks: n, base: i})
	}
	return wos
}

type produceWO struct {
	rows, blocks, base int
}

func (w *produceWO) Inputs() []*storage.Block { return nil }

func (w *produceWO) Run(ctx *ExecCtx, out *Output) error {
	for b := 0; b < w.blocks; b++ {
		blk := checkOut(ctx, w.rows)
		for r := 0; r < w.rows; r++ {
			blk.AppendRow(types.NewInt64(int64(w.base*w.rows + b*w.rows + r)))
		}
		out.Blocks = append(out.Blocks, blk)
	}
	return nil
}

// checkOut checks a block that holds rows testSchema rows out of ctx.Pool,
// as an emitter would, for a fixture that seals its own blocks. No fixture
// checks a partial in, so owner -1 never resumes one.
func checkOut(ctx *ExecCtx, rows int) *storage.Block {
	return ctx.Pool.CheckOut(-1, testSchema, storage.RowStore, rows*testSchema.RowWidth())
}

// consumer records the size of every Feed group and counts rows via work
// orders.
type consumer struct {
	Base
	mu        sync.Mutex
	feedSizes []int
	rows      int64
	started   time.Time
	finalAt   time.Time
}

func (c *consumer) Name() string { return "consumer" }

func (c *consumer) Start(*ExecCtx) []WorkOrder {
	c.started = time.Now()
	return nil
}

func (c *consumer) Feed(_ *ExecCtx, _ int, blocks []*storage.Block) []WorkOrder {
	c.mu.Lock()
	c.feedSizes = append(c.feedSizes, len(blocks))
	c.mu.Unlock()
	wos := make([]WorkOrder, len(blocks))
	for i, b := range blocks {
		wos[i] = &consumeWO{c: c, b: b}
	}
	return wos
}

func (c *consumer) Final(*ExecCtx) []WorkOrder {
	c.finalAt = time.Now()
	return nil
}

type consumeWO struct {
	c *consumer
	b *storage.Block
}

func (w *consumeWO) Inputs() []*storage.Block { return []*storage.Block{w.b} }

func (w *consumeWO) Run(_ *ExecCtx, out *Output) error {
	n := int64(w.b.NumRows())
	atomic.AddInt64(&w.c.rows, n)
	out.RowsIn = n
	return nil
}

func pipePlan(p *producer, c *consumer, uot int) *Plan {
	plan := &Plan{}
	pid := plan.AddOp(p)
	cid := plan.AddOp(c)
	plan.Pipe(pid, cid, 0, uot)
	return plan
}

func TestUoTBatching(t *testing.T) {
	cases := []struct {
		uot       int
		blocks    int
		wantFeeds []int
	}{
		{1, 5, []int{1, 1, 1, 1, 1}},
		{2, 5, []int{2, 2, 1}}, // remainder at producer end
		{3, 9, []int{3, 3, 3}},
		{UoTTable, 5, []int{5}}, // whole intermediate table at once
		{10, 5, []int{5}},       // UoT larger than output behaves like table
	}
	for _, tc := range cases {
		p := &producer{nblocks: tc.blocks, rows: 4}
		c := &consumer{}
		if err := Run(pipePlan(p, c, tc.uot), newCtx(1), 1); err != nil {
			t.Fatalf("uot=%d: %v", tc.uot, err)
		}
		if len(c.feedSizes) != len(tc.wantFeeds) {
			t.Fatalf("uot=%d: feeds %v, want %v", tc.uot, c.feedSizes, tc.wantFeeds)
		}
		for i := range c.feedSizes {
			if c.feedSizes[i] != tc.wantFeeds[i] {
				t.Fatalf("uot=%d: feeds %v, want %v", tc.uot, c.feedSizes, tc.wantFeeds)
			}
		}
		if c.rows != int64(tc.blocks*4) {
			t.Fatalf("uot=%d: rows %d, want %d", tc.uot, c.rows, tc.blocks*4)
		}
	}
}

func TestDefaultUoTAppliesToUnsetEdges(t *testing.T) {
	p := &producer{nblocks: 6, rows: 2}
	c := &consumer{}
	if err := Run(pipePlan(p, c, 0), newCtx(1), 3); err != nil { // edge UoT 0 -> default 3
		t.Fatal(err)
	}
	if len(c.feedSizes) != 2 || c.feedSizes[0] != 3 {
		t.Fatalf("feeds = %v, want [3 3]", c.feedSizes)
	}
}

func TestEveryBlockDeliveredExactlyOnceConcurrent(t *testing.T) {
	for _, uot := range []int{1, 2, 7, UoTTable} {
		p := &producer{nblocks: 40, rows: 3}
		c := &consumer{}
		if err := Run(pipePlan(p, c, uot), newCtx(8), 1); err != nil {
			t.Fatalf("uot=%d: %v", uot, err)
		}
		if c.rows != 120 {
			t.Fatalf("uot=%d: rows = %d, want 120", uot, c.rows)
		}
		total := 0
		for _, s := range c.feedSizes {
			total += s
		}
		if total != 40 {
			t.Fatalf("uot=%d: delivered %d blocks, want 40", uot, total)
		}
	}
}

// blockingConsumer observes when it is allowed to start.
type gated struct {
	Base
	startedAt atomic.Int64
}

func (g *gated) Name() string { return "gated" }
func (g *gated) Start(*ExecCtx) []WorkOrder {
	g.startedAt.Store(time.Now().UnixNano())
	return nil
}

// slowProducer emits blocks with a delay so ordering is observable.
type slowProducer struct {
	producer
	doneAt atomic.Int64
}

func (p *slowProducer) Name() string { return "slow" }
func (p *slowProducer) Start(ctx *ExecCtx) []WorkOrder {
	return []WorkOrder{&slowWO{p: p}}
}

type slowWO struct{ p *slowProducer }

func (w *slowWO) Inputs() []*storage.Block { return nil }
func (w *slowWO) Run(*ExecCtx, *Output) error {
	time.Sleep(20 * time.Millisecond)
	w.p.doneAt.Store(time.Now().UnixNano())
	return nil
}

func TestBlockingEdgeGatesStart(t *testing.T) {
	plan := &Plan{}
	sp := &slowProducer{}
	g := &gated{}
	pid := plan.AddOp(sp)
	gid := plan.AddOp(g)
	plan.Block(pid, gid)
	if err := Run(plan, newCtx(4), 1); err != nil {
		t.Fatal(err)
	}
	if g.startedAt.Load() < sp.doneAt.Load() {
		t.Fatal("gated operator started before its blocking dependency finished")
	}
}

// scalarProvider provides a fixed scalar.
type scalarProvider struct {
	Base
	v types.Datum
}

func (s *scalarProvider) Name() string                     { return "scalar" }
func (s *scalarProvider) ScalarValue() (types.Datum, bool) { return s.v, true }

// scalarReader asserts the scalar is visible when it starts.
type scalarReader struct {
	Base
	slot int
	got  types.Datum
}

func (s *scalarReader) Name() string { return "reader" }
func (s *scalarReader) Start(ctx *ExecCtx) []WorkOrder {
	s.got = ctx.Scalars[s.slot]
	return nil
}

func TestScalarSlotFilledBeforeDependentStarts(t *testing.T) {
	plan := &Plan{}
	p := &scalarProvider{v: types.NewFloat64(42.5)}
	pid := plan.AddOp(p)
	slot := plan.AddScalar(pid)
	r := &scalarReader{slot: slot}
	rid := plan.AddOp(r)
	plan.Block(pid, rid)
	if err := Run(plan, newCtx(2), 1); err != nil {
		t.Fatal(err)
	}
	if r.got.F != 42.5 {
		t.Fatalf("scalar = %v, want 42.5", r.got)
	}
}

func TestCycleReportsStall(t *testing.T) {
	plan := &Plan{}
	a := &gated{}
	b := &gated{}
	aid := plan.AddOp(a)
	bid := plan.AddOp(b)
	plan.Block(aid, bid)
	plan.Block(bid, aid)
	err := Run(plan, newCtx(2), 1)
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("want stall error, got %v", err)
	}
}

type panicOp struct{ Base }

func (p *panicOp) Name() string { return "panic" }
func (p *panicOp) Start(*ExecCtx) []WorkOrder {
	return []WorkOrder{panicWO{}}
}

type panicWO struct{}

func (panicWO) Inputs() []*storage.Block    { return nil }
func (panicWO) Run(*ExecCtx, *Output) error { panic("boom") }

func TestWorkOrderPanicBecomesError(t *testing.T) {
	plan := &Plan{}
	plan.AddOp(&panicOp{})
	// A second healthy operator must not hang the run.
	plan.AddOp(&producer{nblocks: 3, rows: 1})
	err := Run(plan, newCtx(4), 1)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want panic error, got %v", err)
	}
}

func TestStatsRecorded(t *testing.T) {
	p := &producer{nblocks: 4, rows: 2}
	c := &consumer{}
	ctx := newCtx(2)
	if err := Run(pipePlan(p, c, 1), ctx, 1); err != nil {
		t.Fatal(err)
	}
	per := ctx.Run.PerOp()
	if len(per) != 2 {
		t.Fatalf("PerOp = %d entries", len(per))
	}
	if per[0].Count != 4 || per[1].Count != 4 {
		t.Fatalf("work order counts: %+v", per)
	}
	if per[1].Rows != 8 {
		t.Fatalf("consumer rows = %d", per[1].Rows)
	}
}

func TestFanOutDeliversToAllConsumers(t *testing.T) {
	plan := &Plan{}
	p := &producer{nblocks: 6, rows: 2}
	c1 := &consumer{}
	c2 := &consumer{}
	pid := plan.AddOp(p)
	c1id := plan.AddOp(c1)
	c2id := plan.AddOp(c2)
	plan.Pipe(pid, c1id, 0, 2)
	plan.Pipe(pid, c2id, 0, UoTTable)
	if err := Run(plan, newCtx(4), 1); err != nil {
		t.Fatal(err)
	}
	if c1.rows != 12 || c2.rows != 12 {
		t.Fatalf("fan-out rows: %d, %d", c1.rows, c2.rows)
	}
	if len(c2.feedSizes) != 1 || c2.feedSizes[0] != 6 {
		t.Fatalf("table-UoT consumer feeds = %v", c2.feedSizes)
	}
}

// TestProducerPipedIntoTwoInputsLeaksNothing: a producer piped into both
// inputs of one consumer delivers each block twice, so the consumer holds it
// twice; each work order's completion drops one of those refs, and the run
// ends with every block back in the pool.
func TestProducerPipedIntoTwoInputsLeaksNothing(t *testing.T) {
	for _, workers := range []int{1, 4} {
		plan := &Plan{}
		p := &producer{nblocks: 6, rows: 2}
		c := &consumer{}
		pid, cid := plan.AddOp(p), plan.AddOp(c)
		plan.Pipe(pid, cid, 0, 1)
		plan.Pipe(pid, cid, 1, 1)
		ctx := newCtx(workers)
		if err := Run(plan, ctx, 1); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if c.rows != 24 {
			t.Fatalf("workers %d: consumer read %d rows, want 24 (every block on both inputs)", workers, c.rows)
		}
		if r := ctx.Run.Robust(); r.LeakedBlocks != 0 || r.LeakedBytes != 0 || ctx.Pool.Live() != 0 {
			t.Fatalf("workers %d: %d blocks and %d bytes leaked, pool live %d", workers, r.LeakedBlocks, r.LeakedBytes, ctx.Pool.Live())
		}
	}
}

// TestICTermChargesOperatorSwitches pins the Section V IC term at one worker:
// a job is charged one instruction-cache miss when this run's previous job on
// the same worker ran a different operator. Pipelining at UoT 1 alternates
// producer and consumer on every block; blocking switches once each way.
func TestICTermChargesOperatorSwitches(t *testing.T) {
	const n = 5
	for _, tc := range []struct {
		uot      int
		switches int64
	}{{1, 2 * n}, {UoTTable, 2}} {
		ctx := newCtx(1)
		ctx.Sim = cachesim.New(cachesim.Default())
		if err := Run(pipePlan(&producer{nblocks: n, rows: 2}, &consumer{}, tc.uot), ctx, 1); err != nil {
			t.Fatal(err)
		}
		var got int64
		for _, op := range ctx.Run.PerOp() {
			got += op.SimTotal
		}
		if want := tc.switches * cachesim.Default().ICMiss; got != want {
			t.Errorf("uot=%d: simulated ticks = %d, want %d (%d operator switches)", tc.uot, got, want, tc.switches)
		}
	}
}

// tagOp queues tagged work orders: one per start tag, and one per fed block
// tagged feedBase+n for its n-th fed block. A work order reports its tag as
// RowsIn and, when emits is set, outputs one block. The first attempt of the
// work order tagged failTag fails transiently.
type tagOp struct {
	Base
	name     string
	start    []int64
	feedBase int64
	fed      int64
	emits    bool
	failTag  int64
	failed   bool
}

func (o *tagOp) Name() string { return o.name }

func (o *tagOp) Start(*ExecCtx) []WorkOrder {
	wos := make([]WorkOrder, len(o.start))
	for i, tag := range o.start {
		wos[i] = &tagWO{op: o, tag: tag}
	}
	return wos
}

func (o *tagOp) Feed(_ *ExecCtx, _ int, blocks []*storage.Block) []WorkOrder {
	wos := make([]WorkOrder, len(blocks))
	for i, b := range blocks {
		o.fed++
		wos[i] = &tagWO{op: o, tag: o.feedBase + o.fed, in: []*storage.Block{b}}
	}
	return wos
}

type tagWO struct {
	op  *tagOp
	tag int64
	in  []*storage.Block
}

func (w *tagWO) Inputs() []*storage.Block { return w.in }

func (w *tagWO) Run(ctx *ExecCtx, out *Output) error {
	if w.tag == w.op.failTag && !w.op.failed {
		w.op.failed = true
		return &transientErr{"tagged failure"}
	}
	out.RowsIn = w.tag
	if w.op.emits {
		b := checkOut(ctx, 1)
		b.AppendRow(types.NewInt64(w.tag))
		out.Blocks = append(out.Blocks, b)
	}
	return nil
}

// TestPickJobDeepestFirstInQueueOrder pins the dispatch order at Workers 1:
// the head of the deepest non-empty depth FIFO goes first. p (depth 0) feeds
// q and u (depth 1), and q feeds r (depth 2); every edge is at UoT 1. u is
// added before q, but p's edge to q is declared first, so a p block queues
// q's work order ahead of u's. u's start work order 30 fails once and
// re-queues behind q's start work orders, already queued at depth 1.
func TestPickJobDeepestFirstInQueueOrder(t *testing.T) {
	p := &tagOp{name: "p", start: []int64{1, 2}, emits: true}
	u := &tagOp{name: "u", start: []int64{30}, feedBase: 40, failTag: 30}
	q := &tagOp{name: "q", start: []int64{10, 11}, feedBase: 20, emits: true}
	r := &tagOp{name: "r", start: []int64{50}, feedBase: 60}
	plan := &Plan{}
	pid, uid, qid, rid := plan.AddOp(p), plan.AddOp(u), plan.AddOp(q), plan.AddOp(r)
	plan.Pipe(pid, qid, 0, 1)
	plan.Pipe(pid, uid, 0, 1)
	plan.Pipe(qid, rid, 0, 1)
	ctx := newCtx(1)
	if err := Run(plan, ctx, 1); err != nil {
		t.Fatal(err)
	}
	// A failed attempt reports no rows; it reads as its operator's name and "!".
	want := "r50 u! q10 r61 q11 r62 u30 p1 q21 r63 u41 p2 q22 r64 u42"
	var got []string
	for _, w := range ctx.Run.Orders() {
		if w.Failed {
			got = append(got, w.OpName+"!")
		} else {
			got = append(got, fmt.Sprintf("%s%d", w.OpName, w.Rows))
		}
	}
	if g := strings.Join(got, " "); g != want {
		t.Fatalf("dispatch order:\n got %s\nwant %s", g, want)
	}
	if r := ctx.Run.Robust(); r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
		t.Fatalf("run leaked blocks: %+v", r)
	}
}
