package core

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// waveSrc fans Final out into n work orders. Work order i checks one pool
// block out, writes i into it and returns it in out.Blocks. waitFor[i] lists
// the work orders i blocks on before running (to force a completion order);
// transient[i] is how many times i fails transiently first; fatal is the one
// work order that fails fatally (-1 for none).
type waveSrc struct {
	Base
	self      OpID
	n         int
	waitFor   map[int][]int
	transient map[int]int
	fatal     int

	mu        sync.Mutex
	runs      map[int]int
	done      []chan struct{}
	completed []int // successful work orders, in completion order
}

func newWaveSrc(n int) *waveSrc {
	s := &waveSrc{n: n, fatal: -1, runs: map[int]int{}}
	for i := 0; i < n; i++ {
		s.done = append(s.done, make(chan struct{}))
	}
	return s
}

func (s *waveSrc) Name() string { return "wave" }

func (s *waveSrc) Final(*ExecCtx) []WorkOrder {
	wos := make([]WorkOrder, s.n)
	for i := range wos {
		wos[i] = &waveWO{s: s, i: i}
	}
	return wos
}

type waveWO struct {
	s *waveSrc
	i int
}

func (w *waveWO) Inputs() []*storage.Block { return nil }

func (w *waveWO) Run(ctx *ExecCtx, out *Output) error {
	s := w.s
	for _, j := range s.waitFor[w.i] {
		<-s.done[j]
	}
	s.mu.Lock()
	s.runs[w.i]++
	run := s.runs[w.i]
	s.mu.Unlock()
	if w.i == s.fatal {
		return errors.New("wave work order exploded")
	}
	if run <= s.transient[w.i] {
		return &transientErr{"wave work order flaked"}
	}
	b := ctx.Pool.CheckOut(int(s.self), testSchema, ctx.TempFormat, ctx.TempBlockBytes)
	b.AppendRow(types.NewInt64(int64(w.i)))
	out.Blocks = append(out.Blocks, b)
	out.RowsOut++
	s.mu.Lock()
	s.completed = append(s.completed, w.i)
	s.mu.Unlock()
	close(s.done[w.i])
	return nil
}

// orderSink records row values in Feed (scheduler) order and releases the
// blocks through a per-batch work order.
type orderSink struct {
	Base
	mu   sync.Mutex
	vals []int64
}

func (c *orderSink) Name() string { return "ordersink" }

func (c *orderSink) Feed(_ *ExecCtx, _ int, blocks []*storage.Block) []WorkOrder {
	c.mu.Lock()
	for _, b := range blocks {
		for r := 0; r < b.NumRows(); r++ {
			c.vals = append(c.vals, b.Row(r)[0].I)
		}
	}
	c.mu.Unlock()
	return []WorkOrder{&releaseWO{blocks: blocks}}
}

type releaseWO struct{ blocks []*storage.Block }

func (w *releaseWO) Inputs() []*storage.Block { return w.blocks }
func (w *releaseWO) Run(*ExecCtx, *Output) error {
	return nil
}

// runWave runs src into an orderSink at the given worker count.
func runWave(t *testing.T, src *waveSrc, workers int) (*ExecCtx, *orderSink, error) {
	t.Helper()
	sink := &orderSink{}
	plan := &Plan{}
	src.self = plan.AddOp(src)
	plan.Pipe(src.self, plan.AddOp(sink), 0, 1)
	ctx := newCtx(workers)
	return ctx, sink, Run(plan, ctx, 1)
}

func wantIssueOrder(t *testing.T, got []int64, n int) {
	t.Helper()
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(i)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("sink rows = %v, want %v", got, want)
	}
}

func wantNoLeaks(t *testing.T, ctx *ExecCtx) {
	t.Helper()
	if r := ctx.Run.Robust(); r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
		t.Fatalf("run leaked blocks: %+v", r)
	}
	if live := ctx.Run.Intermediates.Live(); live != 0 {
		t.Fatalf("run left %d live bytes", live)
	}
}

// TestFinalWaveRoutesInIssueOrder: a Final wave that completes in reverse
// order still reaches the sink in issue order. At 4 workers work order i
// waits for i+1 within each window of 4 dispatched together (a work order
// cannot wait for one that is not yet dispatched).
func TestFinalWaveRoutesInIssueOrder(t *testing.T) {
	const n, workers = 6, 4
	src := newWaveSrc(n)
	src.waitFor = map[int][]int{}
	for i := 0; i+1 < n; i++ {
		if (i+1)%workers != 0 {
			src.waitFor[i] = []int{i + 1}
		}
	}
	ctx, sink, err := runWave(t, src, workers)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if src.completed[0] != 3 || slices.IsSorted(src.completed) {
		t.Fatalf("completion order %v: the wave did not complete out of order", src.completed)
	}
	wantIssueOrder(t, sink.vals, n)
	wantNoLeaks(t, ctx)
}

// TestFinalWaveRetryKeepsIssueOrder: a retried Final work order goes back on
// the queue behind the rest of its wave, yet its output still routes first.
func TestFinalWaveRetryKeepsIssueOrder(t *testing.T) {
	const n = 6
	src := newWaveSrc(n)
	src.transient = map[int]int{0: 1}
	ctx, sink, err := runWave(t, src, 1)
	if err != nil {
		t.Fatalf("run failed despite the retry: %v", err)
	}
	if want := []int{1, 2, 3, 4, 5, 0}; !slices.Equal(src.completed, want) {
		t.Fatalf("completion order %v, want %v (the retry re-queues behind the wave)", src.completed, want)
	}
	if r := ctx.Run.Robust(); r.Retries != 1 {
		t.Fatalf("retries = %d, want 1", r.Retries)
	}
	wantIssueOrder(t, sink.vals, n)
	wantNoLeaks(t, ctx)
}

// TestFinalWaveParkedOutputsReleasedOnFailure: work order 3 fails fatally
// after 4 and 5 completed, so their outputs are parked behind it; cleanup
// must release them.
func TestFinalWaveParkedOutputsReleasedOnFailure(t *testing.T) {
	const n = 6
	src := newWaveSrc(n)
	src.fatal = 3
	src.waitFor = map[int][]int{3: {4, 5}}
	ctx, sink, err := runWave(t, src, 4)
	if err == nil {
		t.Fatal("run succeeded, want the work order's fatal error")
	}
	completed := slices.Clone(src.completed)
	slices.Sort(completed)
	if want := []int{0, 1, 2, 4, 5}; !slices.Equal(completed, want) {
		t.Fatalf("completed work orders %v, want %v", src.completed, want)
	}
	for _, v := range sink.vals {
		if v >= 3 {
			t.Fatalf("sink read %v: output behind the failed work order was routed", sink.vals)
		}
	}
	wantNoLeaks(t, ctx)
}
