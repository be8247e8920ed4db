package trace

import (
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestNilTracerIsNoOp exercises every method on a nil *Tracer: the disabled
// tracer must be callable from instrumented code without any guard.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	if got := tr.Now(); got != 0 {
		t.Fatalf("nil Now() = %d, want 0", got)
	}
	if got := tr.Since(time.Now()); got != 0 {
		t.Fatalf("nil Since() = %d, want 0", got)
	}
	h := tr.OpenRun("x", -1)
	if h != 0 {
		t.Fatalf("nil OpenRun() = %d, want 0", h)
	}
	tr.EndRunIn(h, true)
	tr.SetWorkersIn(h, 4)
	tr.RegisterOpIn(h, 0, "op")
	tr.RegisterEdgeIn(h, 0, EdgeInfo{})
	tr.SpanIn(h, Event{})
	tr.EdgeIn(h, Event{}, 1)
	tr.MarkIn(h, MarkRetry, Event{})
	if ev := tr.Events(); ev != nil {
		t.Fatalf("nil Events() = %v, want nil", ev)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("nil Dropped() = %d, want 0", d)
	}
	if n := tr.OpName(0, 0); n != "" {
		t.Fatalf("nil OpName() = %q, want empty", n)
	}
	m := tr.Snapshot()
	if m.CapturedEvents != 0 || len(m.Runs) != 0 {
		t.Fatalf("nil Snapshot() = %+v, want empty", m)
	}
}

func TestRegistrationAndOpName(t *testing.T) {
	tr := New(16)
	first := tr.OpenRun("first", -1)
	tr.RegisterOpIn(first, 0, "select")
	tr.RegisterOpIn(first, 2, "probe") // sparse ids must work
	second := tr.OpenRun("second", -1)
	tr.RegisterOpIn(second, 0, "agg")
	if got := tr.OpName(0, 0); got != "select" {
		t.Fatalf("OpName(0,0) = %q, want select", got)
	}
	if got := tr.OpName(0, 2); got != "probe" {
		t.Fatalf("OpName(0,2) = %q, want probe", got)
	}
	if got := tr.OpName(0, 1); got != "" {
		t.Fatalf("OpName(0,1) = %q, want empty (never registered)", got)
	}
	if got := tr.OpName(1, 0); got != "agg" {
		t.Fatalf("OpName(1,0) = %q, want agg", got)
	}
	if got := tr.OpName(7, 0); got != "" {
		t.Fatalf("OpName(7,0) = %q, want empty (unknown run)", got)
	}
}

// TestZeroHandleRecordsNothing: the zero handle names no section, so
// recording into it neither opens one nor reaches the ring (core.Run opens a
// section for a run that brings a tracer but no handle).
func TestZeroHandleRecordsNothing(t *testing.T) {
	tr := New(16)
	tr.RegisterOpIn(0, 0, "lone")
	tr.SpanIn(0, Event{Op: 0, StartNS: 1, EndNS: 2})
	tr.MarkIn(0, MarkRetry, Event{})
	if m := tr.Snapshot(); len(m.Runs) != 0 || m.CapturedEvents != 0 {
		t.Fatalf("zero handle recorded: %+v", m)
	}
}

func TestSpanAggregates(t *testing.T) {
	tr := New(64)
	h := tr.OpenRun("q", -1)
	tr.RegisterOpIn(h, 0, "select")
	tr.RegisterOpIn(h, 1, "probe")

	// Two successful attempts and one failed+retried attempt on op 0.
	tr.SpanIn(h, Event{Op: 0, Worker: 0, Attempt: 1, Batch: -1, EnqueueNS: 10, StartNS: 100, EndNS: 300, Rows: 5, RowsOut: 3})
	tr.SpanIn(h, Event{Op: 0, Worker: 1, Attempt: 1, Batch: 0, EnqueueNS: 50, StartNS: 60, EndNS: 90, Rows: 7, RowsOut: 7, Kernel: stats.Kernel{ScratchHits: 1}})
	tr.SpanIn(h, Event{Op: 0, Worker: 0, Attempt: 1, Batch: -1, Flags: FlagFailed | FlagRetried, StartNS: 400, EndNS: 450, Rows: 99, RowsOut: 99})
	tr.EndRunIn(h, false)

	m := tr.Snapshot()
	if len(m.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(m.Runs))
	}
	ops := m.Runs[0].Ops
	if len(ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(ops))
	}
	o := ops[0]
	if o.Name != "select" || o.Spans != 3 || o.Failed != 1 || o.Retries != 1 {
		t.Fatalf("select counts = %+v", o)
	}
	// Failed attempts contribute busy time but not rows.
	if o.Rows != 12 || o.RowsOut != 10 {
		t.Fatalf("select rows = %d/%d, want 12/10 (failed attempt excluded)", o.Rows, o.RowsOut)
	}
	if o.BusyNS != (300-100)+(90-60)+(450-400) {
		t.Fatalf("select busyNS = %d", o.BusyNS)
	}
	if o.QueueNS != (100-10)+(60-50) {
		t.Fatalf("select queueNS = %d", o.QueueNS)
	}
	if o.ScratchHits != 1 {
		t.Fatalf("select scratch hits = %d", o.ScratchHits)
	}
	if ops[1].Spans != 0 {
		t.Fatalf("probe spans = %d, want 0", ops[1].Spans)
	}
	if m.Runs[0].WallNS <= 0 {
		t.Fatalf("wallNS = %d, want > 0 after EndRunIn", m.Runs[0].WallNS)
	}

	// The recorded span events carry the forced Kind/Edge.
	for _, e := range tr.Events() {
		if e.Kind == KindSpan && e.Edge != -1 {
			t.Fatalf("span event Edge = %d, want -1", e.Edge)
		}
	}
}

func TestEdgeAggregates(t *testing.T) {
	tr := New(64)
	h := tr.OpenRun("q", -1)
	tr.RegisterEdgeIn(h, 0, EdgeInfo{From: 0, To: 1, FromName: "select", ToName: "probe", Pipelined: true, UoT: 4})
	tr.RegisterEdgeIn(h, 1, EdgeInfo{From: 1, To: 2, FromName: "probe", ToName: "agg", Pipelined: true, UoT: 4})

	tr.EdgeIn(h, Event{Edge: 0, Buffered: 2, UoT: 4, StallNS: 0}, 0)   // buffering sample
	tr.EdgeIn(h, Event{Edge: 0, Buffered: 0, UoT: 4, StallNS: 500}, 4) // delivery
	tr.EdgeIn(h, Event{Edge: 0, Buffered: 3, UoT: 8, StallNS: 0}, 0)   // the last sample's UoT wins

	m := tr.Snapshot()
	e := m.Runs[0].Edges[0]
	if e.From != "select" || e.To != "probe" || !e.Pipelined {
		t.Fatalf("edge info = %+v", e)
	}
	if e.Samples != 3 || e.Batches != 1 || e.Blocks != 4 {
		t.Fatalf("edge counts = samples %d batches %d blocks %d", e.Samples, e.Batches, e.Blocks)
	}
	if e.MaxBuffered != 3 {
		t.Fatalf("maxBuffered = %d, want 3", e.MaxBuffered)
	}
	if e.StallNS != 500 {
		t.Fatalf("stallNS = %d, want 500", e.StallNS)
	}
	if e.UoT != 8 {
		t.Fatalf("UoT = %d, want 8 (last sample wins)", e.UoT)
	}
	// Edge 1 registered but never sampled: initial UoT reported.
	if e1 := m.Runs[0].Edges[1]; e1.Samples != 0 || e1.UoT != 4 {
		t.Fatalf("idle edge = %+v", e1)
	}
}

func TestRingWraparound(t *testing.T) {
	const cap = 8
	tr := New(cap)
	h := tr.OpenRun("wrap", -1)
	tr.RegisterOpIn(h, 0, "op")
	const total = 20
	for i := 0; i < total; i++ {
		tr.SpanIn(h, Event{Op: 0, StartNS: int64(i), EndNS: int64(i) + 1, Rows: 1})
	}
	ev := tr.Events()
	if len(ev) != cap {
		t.Fatalf("retained %d events, want %d", len(ev), cap)
	}
	if got := tr.Dropped(); got != total-cap {
		t.Fatalf("dropped = %d, want %d", got, total-cap)
	}
	// Oldest-first: the survivors are the last cap spans in order.
	for i, e := range ev {
		if want := int64(total - cap + i); e.StartNS != want {
			t.Fatalf("event %d StartNS = %d, want %d", i, e.StartNS, want)
		}
	}
	// Aggregates are exact despite the overwrites.
	m := tr.Snapshot()
	if m.CapturedEvents != cap || m.DroppedEvents != total-cap {
		t.Fatalf("snapshot counts = %d/%d", m.CapturedEvents, m.DroppedEvents)
	}
	if o := m.Runs[0].Ops[0]; o.Spans != total || o.Rows != total {
		t.Fatalf("aggregate spans/rows = %d/%d, want %d despite ring overflow", o.Spans, o.Rows, total)
	}
}

func TestMultipleRunSections(t *testing.T) {
	tr := New(64)
	for i, label := range []string{"uot=2", "uot=16"} {
		h := tr.OpenRun(label, -1)
		tr.SetWorkersIn(h, 2)
		tr.RegisterOpIn(h, 0, "select")
		tr.SpanIn(h, Event{Op: 0, StartNS: 1, EndNS: 2})
		tr.EndRunIn(h, i == 1) // second run "fails"
	}
	m := tr.Snapshot()
	if len(m.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(m.Runs))
	}
	if m.Runs[0].Label != "uot=2" || m.Runs[1].Label != "uot=16" {
		t.Fatalf("labels = %q/%q", m.Runs[0].Label, m.Runs[1].Label)
	}
	if m.Runs[0].Workers != 2 || m.Runs[1].Workers != 2 {
		t.Fatalf("workers = %d/%d", m.Runs[0].Workers, m.Runs[1].Workers)
	}
	if m.Runs[0].Failed || !m.Runs[1].Failed {
		t.Fatalf("failed = %v/%v", m.Runs[0].Failed, m.Runs[1].Failed)
	}
	// Events recorded in the second section carry run id 1; each EndRunIn also
	// records a MarkRunEnd event in its own section.
	var runEnds int
	for _, e := range tr.Events() {
		if e.Kind == KindMark && e.Mark == MarkRunEnd {
			runEnds++
			if e.Run == 1 && e.Flags&FlagFailed == 0 {
				t.Fatal("failed run's end mark lacks FlagFailed")
			}
		}
	}
	if runEnds != 2 {
		t.Fatalf("run-end marks = %d, want 2", runEnds)
	}
}

func TestMarkCodes(t *testing.T) {
	tr := New(16)
	h := tr.OpenRun("m", -1)
	tr.MarkIn(h, MarkRetry, Event{Op: 3, Attempt: 2, StartNS: 10})
	tr.MarkIn(h, MarkSpill, Event{Op: 1, Rows: 4, StartNS: 20})
	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2", len(ev))
	}
	if ev[0].Kind != KindMark || ev[0].Mark != MarkRetry || ev[0].Op != 3 || ev[0].Attempt != 2 {
		t.Fatalf("retry mark = %+v", ev[0])
	}
	if ev[1].Mark != MarkSpill || ev[1].Op != 1 || ev[1].Rows != 4 {
		t.Fatalf("spill mark = %+v", ev[1])
	}
}

// TestConcurrentRecording hammers the tracer from many goroutines while a
// reader snapshots; run under -race this is the torn-read audit for the
// tracer itself.
func TestConcurrentRecording(t *testing.T) {
	tr := New(256)
	h := tr.OpenRun("conc", -1)
	tr.RegisterOpIn(h, 0, "op")
	tr.RegisterEdgeIn(h, 0, EdgeInfo{FromName: "a", ToName: "b", Pipelined: true, UoT: 2})
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.SpanIn(h, Event{Op: 0, Worker: int32(w), StartNS: int64(i), EndNS: int64(i) + 1, Rows: 1})
				tr.EdgeIn(h, Event{Edge: 0, Buffered: 1, UoT: 2}, 1)
				if i%50 == 0 {
					tr.MarkIn(h, MarkRetry, Event{Op: 0})
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = tr.Snapshot()
			_ = tr.Events()
			_ = tr.Dropped()
			_ = tr.OpName(0, 0)
		}
	}()
	wg.Wait()
	<-done
	m := tr.Snapshot()
	o := m.Runs[0].Ops[0]
	if o.Spans != workers*perWorker || o.Rows != workers*perWorker {
		t.Fatalf("spans/rows = %d/%d, want %d", o.Spans, o.Rows, workers*perWorker)
	}
	if e := m.Runs[0].Edges[0]; e.Blocks != workers*perWorker {
		t.Fatalf("edge blocks = %d, want %d", e.Blocks, workers*perWorker)
	}
}

func TestNowAndSince(t *testing.T) {
	tr := New(4)
	before := time.Now()
	n1 := tr.Now()
	n2 := tr.Now()
	if n1 < 0 || n2 < n1 {
		t.Fatalf("Now not monotone: %d then %d", n1, n2)
	}
	if s := tr.Since(before.Add(time.Hour)); s <= 0 {
		t.Fatalf("Since(future) = %d, want positive", s)
	}
}

func TestDefaultCapacity(t *testing.T) {
	tr := New(0)
	if len(tr.buf) != DefaultCapacity {
		t.Fatalf("capacity = %d, want %d", len(tr.buf), DefaultCapacity)
	}
	tr = New(-5)
	if len(tr.buf) != DefaultCapacity {
		t.Fatalf("capacity = %d, want %d", len(tr.buf), DefaultCapacity)
	}
}
