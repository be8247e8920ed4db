package session

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestServingMatchesSequential is the tentpole invariant: 16 queries served
// concurrently over a shared worker pool and shared block pool return
// exactly the single-query result, every per-query gauge drains to zero, and
// the global accounting returns to zero once the results are handed over.
func TestServingMatchesSequential(t *testing.T) {
	fact, dim := serveFixture()
	ref, err := engine.Execute(joinAggPlan(fact, dim), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := tableKey(ref.Table)

	tr := trace.New(1 << 14)
	const n = 16
	s := Open(Config{Workers: 4, MaxConcurrent: 4, QueueDepth: n, Trace: tr})
	defer s.Close()
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Submit(Request{
				Build: func() *engine.Builder { return joinAggPlan(fact, dim) },
			})
		}(i)
	}
	wg.Wait()

	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		r := resps[i]
		if got := tableKey(r.Table); got != want {
			t.Errorf("query %d: result differs from sequential reference", i)
		}
		if live := r.Run.Intermediates.Live(); live != 0 {
			t.Errorf("query %d: per-query gauge %d bytes after completion, want 0", i, live)
		}
		if r.Run.Query() != r.Query {
			t.Errorf("query %d: run labelled %d, response says %d", i, r.Run.Query(), r.Query)
		}
		if seen[r.Query] {
			t.Errorf("query id %d assigned twice", r.Query)
		}
		seen[r.Query] = true
	}
	if live := s.Live(); live != 0 {
		t.Errorf("global gauge %d bytes after drain, want 0", live)
	}
	if p := s.PendingPartials(); p != 0 {
		t.Errorf("%d partial blocks leaked", p)
	}
	c := s.Counters()
	if c.Submitted != n || c.Admitted != n || c.Completed != n {
		t.Errorf("counters = %+v, want %d submitted/admitted/completed", c, n)
	}
	// Every query recorded its own trace section, query-labelled.
	m := tr.Snapshot()
	labelled := 0
	for _, rm := range m.Runs {
		if rm.Query > 0 {
			labelled++
		}
	}
	if labelled != n {
		t.Errorf("%d query-labelled trace sections, want %d", labelled, n)
	}
}

// TestOverloadShedsTyped fills the one admission slot and the one queue slot
// with gated queries, then checks the next arrival is shed with the typed
// QueueFull rejection.
func TestOverloadShedsTyped(t *testing.T) {
	fact, _ := serveFixture()
	s := Open(Config{Workers: 2, MaxConcurrent: 1, QueueDepth: 1})
	defer s.Close()

	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(Request{
				Build: func() *engine.Builder { return gatedPlan(fact, gate) },
			}); err != nil {
				t.Errorf("gated query failed: %v", err)
			}
		}()
	}
	waitFor(t, "one running, one queued", func() bool {
		inflight, waiting, _ := s.Occupancy()
		return inflight == 1 && waiting == 1
	})

	_, err := s.Submit(Request{Build: func() *engine.Builder { return gatedPlan(fact, gate) }})
	if err == nil {
		t.Fatal("overload submit succeeded, want shed")
	}
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("shed error %v does not match ErrAdmissionRejected", err)
	}
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Reason != QueueFull {
		t.Fatalf("shed error %v, want QueueFull", err)
	}

	close(gate)
	wg.Wait()
	c := s.Counters()
	if c.RejectedQueueFull != 1 || c.Completed != 2 {
		t.Errorf("counters = %+v, want 1 queue-full rejection and 2 completions", c)
	}
	if s.Live() != 0 {
		t.Errorf("global gauge %d after drain, want 0", s.Live())
	}
}

// TestOverBudgetShedsTyped: an estimate larger than the whole budget can
// never be admitted and is shed immediately with the memory-typed rejection.
// The join+agg plan's estimate carries a costmodel.DefaultStatefulBytes
// reserve per stateful operator, above the 1 MiB budget.
func TestOverBudgetShedsTyped(t *testing.T) {
	fact, dim := serveFixture()
	s := Open(Config{Workers: 1, MemoryBudget: 1 << 20})
	defer s.Close()
	_, err := s.Submit(Request{
		Build: func() *engine.Builder { return joinAggPlan(fact, dim) },
	})
	if !errors.Is(err, ErrAdmissionRejected) || !errors.Is(err, core.ErrMemoryBudget) {
		t.Fatalf("err = %v, want admission rejection matching core.ErrMemoryBudget", err)
	}
	if c := s.Counters(); c.RejectedOverBudget != 1 {
		t.Errorf("counters = %+v, want 1 over-budget rejection", c)
	}
}

// TestCancelWhileQueued: a queued waiter whose context is cancelled abandons
// its slot with a typed cancellation, and the slot still flows to later
// waiters.
func TestCancelWhileQueued(t *testing.T) {
	fact, _ := serveFixture()
	s := Open(Config{Workers: 2, MaxConcurrent: 1, QueueDepth: 2})
	defer s.Close()

	gate := make(chan struct{})
	var running sync.WaitGroup
	running.Add(1)
	go func() {
		defer running.Done()
		if _, err := s.Submit(Request{Build: func() *engine.Builder { return gatedPlan(fact, gate) }}); err != nil {
			t.Errorf("gated query failed: %v", err)
		}
	}()
	waitFor(t, "gated query admitted", func() bool {
		inflight, _, _ := s.Occupancy()
		return inflight == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(Request{
			Build:   func() *engine.Builder { return gatedPlan(fact, gate) },
			Context: ctx,
		})
		errc <- err
	}()
	waitFor(t, "second query queued", func() bool {
		_, waiting, _ := s.Occupancy()
		return waiting == 1
	})
	cancel()
	err := <-errc
	if !errors.Is(err, core.ErrQueryCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-cancel error %v, want typed cancellation preserving context.Canceled", err)
	}

	close(gate)
	running.Wait()
	if c := s.Counters(); c.Cancelled != 1 || c.Completed != 1 {
		t.Errorf("counters = %+v, want 1 cancelled, 1 completed", c)
	}
}

// TestCancelWhileRunning: cancelling an admitted query's context aborts the
// run with the typed cancellation and releases every pool block.
func TestCancelWhileRunning(t *testing.T) {
	fact, _ := serveFixture()
	s := Open(Config{Workers: 1})
	defer s.Close()

	gate := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(Request{
			Build:   func() *engine.Builder { return gatedPlan(fact, gate) },
			Context: ctx,
		})
		errc <- err
	}()
	waitFor(t, "query admitted", func() bool {
		inflight, _, _ := s.Occupancy()
		return inflight == 1
	})
	cancel()
	close(gate)
	err := <-errc
	if !errors.Is(err, core.ErrQueryCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("running-cancel error %v, want typed cancellation", err)
	}
	if s.Live() != 0 || s.PendingPartials() != 0 {
		t.Errorf("cancelled query leaked: live=%d partials=%d", s.Live(), s.PendingPartials())
	}
	if c := s.Counters(); c.Cancelled != 1 {
		t.Errorf("counters = %+v, want 1 cancelled", c)
	}
}

// TestDeadlineWhileRunning: a blown per-request deadline surfaces as the
// typed deadline error.
func TestDeadlineWhileRunning(t *testing.T) {
	fact, _ := serveFixture()
	s := Open(Config{Workers: 1})
	defer s.Close()

	gate := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(Request{
			Build:    func() *engine.Builder { return gatedPlan(fact, gate) },
			Deadline: 2 * time.Millisecond,
		})
		errc <- err
	}()
	waitFor(t, "query admitted", func() bool {
		inflight, _, _ := s.Occupancy()
		return inflight == 1
	})
	time.Sleep(5 * time.Millisecond)
	close(gate)
	err := <-errc
	if !errors.Is(err, core.ErrDeadlineExceeded) {
		t.Fatalf("deadline error %v, want core.ErrDeadlineExceeded", err)
	}
	if s.Live() != 0 {
		t.Errorf("deadline-killed query leaked %d bytes", s.Live())
	}
	if c := s.Counters(); c.DeadlineExceeded != 1 {
		t.Errorf("counters = %+v, want 1 deadline exceeded", c)
	}
}

// TestCloseRejectsQueuedAndFutureSubmits: Close fails parked waiters with
// ErrSessionClosed, waits for the running query, and refuses later submits.
func TestCloseRejectsQueuedAndFutureSubmits(t *testing.T) {
	fact, _ := serveFixture()
	s := Open(Config{Workers: 2, MaxConcurrent: 1, QueueDepth: 2})

	gate := make(chan struct{})
	runErr := make(chan error, 1)
	go func() {
		_, err := s.Submit(Request{Build: func() *engine.Builder { return gatedPlan(fact, gate) }})
		runErr <- err
	}()
	waitFor(t, "gated query admitted", func() bool {
		inflight, _, _ := s.Occupancy()
		return inflight == 1
	})
	queuedErr := make(chan error, 1)
	go func() {
		_, err := s.Submit(Request{Build: func() *engine.Builder { return gatedPlan(fact, gate) }})
		queuedErr <- err
	}()
	waitFor(t, "second query queued", func() bool {
		_, waiting, _ := s.Occupancy()
		return waiting == 1
	})

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	if err := <-queuedErr; !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("queued waiter got %v, want ErrSessionClosed", err)
	}
	close(gate)
	if err := <-runErr; err != nil {
		t.Fatalf("running query failed during close: %v", err)
	}
	<-closed

	if _, err := s.Submit(Request{Build: func() *engine.Builder { return gatedPlan(fact, gate) }}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("post-close submit got %v, want ErrSessionClosed", err)
	}
}

// TestResultSurvivesPoolReuse: result tables handed to clients must stay
// intact while later queries recycle blocks through the shared pool.
func TestResultSurvivesPoolReuse(t *testing.T) {
	fact, dim := serveFixture()
	s := Open(Config{Workers: 2, MaxConcurrent: 2})
	defer s.Close()

	first, err := s.Submit(Request{Build: func() *engine.Builder { return joinAggPlan(fact, dim) }})
	if err != nil {
		t.Fatal(err)
	}
	want := tableKey(first.Table)
	var tables []*storage.Table
	for i := 0; i < 8; i++ {
		r, err := s.Submit(Request{Build: func() *engine.Builder { return joinAggPlan(fact, dim) }})
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, r.Table)
	}
	if got := tableKey(first.Table); got != want {
		t.Fatal("first result mutated by later queries reusing the pool")
	}
	for i, tab := range tables {
		if tableKey(tab) != want {
			t.Fatalf("result %d differs", i)
		}
	}
}

// TestExecuteMatchesSessionSchedule: a single-query execution is the served
// engine with one tenant. The same plan through engine.Execute at Workers 1
// and through a session at PerQueryWorkers 1 runs the same work-order
// sequence, records the same per-edge UoTs and kernel counters, returns the
// same rows, and leaves no live intermediate bytes on either path.
func TestExecuteMatchesSessionSchedule(t *testing.T) {
	fact, dim := serveFixture()
	direct, err := engine.Execute(joinAggPlan(fact, dim), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := Open(Config{PerQueryWorkers: 1})
	defer s.Close()
	served, err := s.Submit(Request{Build: func() *engine.Builder { return joinAggPlan(fact, dim) }})
	if err != nil {
		t.Fatal(err)
	}

	if tableKey(direct.Table) != tableKey(served.Table) {
		t.Error("served result differs from engine.Execute's")
	}
	opSeq := func(r *stats.Run) []int {
		var seq []int
		for _, w := range r.Orders() {
			seq = append(seq, w.OpID)
		}
		return seq
	}
	if d, v := opSeq(direct.Run), opSeq(served.Run); !reflect.DeepEqual(d, v) {
		t.Errorf("work-order operator sequence differs:\n  execute: %v\n  session: %v", d, v)
	}
	if d, v := direct.Run.EdgeUoTs(), served.Run.EdgeUoTs(); !reflect.DeepEqual(d, v) {
		t.Errorf("edge UoTs differ:\n  execute: %+v\n  session: %+v", d, v)
	}
	// ScratchHits counts sync.Pool reuse, which the runtime may drop at any
	// time (always under -race): not a property of the schedule.
	d, v := direct.Run.Kernels(), served.Run.Kernels()
	d.ScratchHits, v.ScratchHits = 0, 0
	if d != v {
		t.Errorf("kernel counters differ:\n  execute: %+v\n  session: %+v", d, v)
	}
	for name, r := range map[string]*stats.Run{"execute": direct.Run, "session": served.Run} {
		if live := r.Intermediates.Live(); live != 0 {
			t.Errorf("%s: %d intermediate bytes live after success, want 0", name, live)
		}
	}
}
