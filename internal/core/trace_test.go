package core

import (
	"testing"

	"repro/internal/trace"
)

// newTracedCtx is newCtx with a tracer attached the way engine.Execute does
// it: a labeled section opened before the scheduler builds.
func newTracedCtx(workers int, label string) (*ExecCtx, *trace.Tracer) {
	tr := trace.New(1 << 12)
	ctx := newCtx(workers)
	ctx.Trace = tr
	ctx.TraceRun = tr.OpenRun(label, -1)
	return ctx, tr
}

// TestRunOpensTraceSectionForHandBuiltCtx: a ctx that brings a tracer but no
// section handle still records its op and edge aggregates — Run opens an
// unlabeled section (query -1) for it.
func TestRunOpensTraceSectionForHandBuiltCtx(t *testing.T) {
	p := &producer{nblocks: 4, rows: 2}
	c := &consumer{}
	tr := trace.New(1 << 12)
	ctx := newCtx(1)
	ctx.Trace = tr
	if err := Run(pipePlan(p, c, 2), ctx, 1); err != nil {
		t.Fatal(err)
	}
	if ctx.TraceRun == 0 {
		t.Fatal("Run left the ctx without a section handle")
	}
	m := tr.Snapshot()
	if len(m.Runs) != 1 {
		t.Fatalf("runs = %d, want 1 opened by Run", len(m.Runs))
	}
	run := m.Runs[0]
	if run.Label != "" || run.Query != -1 || run.WallNS <= 0 {
		t.Fatalf("opened section = %+v, want unlabeled, query -1, ended", run)
	}
	if len(run.Ops) != 2 || run.Ops[0].Spans != 4 || run.Ops[1].Rows != 8 {
		t.Fatalf("op aggregates = %+v", run.Ops)
	}
	if len(run.Edges) != 1 || run.Edges[0].Batches != 2 || run.Edges[0].Blocks != 4 {
		t.Fatalf("edge aggregates = %+v", run.Edges)
	}
}

func TestTraceRegistersPlanAndRecordsSpans(t *testing.T) {
	p := &producer{nblocks: 6, rows: 2}
	c := &consumer{}
	ctx, tr := newTracedCtx(2, "pipe")
	if err := Run(pipePlan(p, c, 2), ctx, 1); err != nil {
		t.Fatal(err)
	}
	m := tr.Snapshot()
	if len(m.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(m.Runs))
	}
	run := m.Runs[0]
	if run.Label != "pipe" || run.Workers != 2 || run.Failed {
		t.Fatalf("run meta = %+v", run)
	}
	if run.WallNS <= 0 {
		t.Fatalf("wallNS = %d, want > 0 (EndRun stamped by scheduler)", run.WallNS)
	}
	if len(run.Ops) != 2 || run.Ops[0].Name != "producer" || run.Ops[1].Name != "consumer" {
		t.Fatalf("registered ops = %+v", run.Ops)
	}
	// 6 producer work orders (one per block), 6 consumer work orders.
	if run.Ops[0].Spans != 6 || run.Ops[1].Spans != 6 {
		t.Fatalf("span counts = %d/%d, want 6/6", run.Ops[0].Spans, run.Ops[1].Spans)
	}
	if run.Ops[1].Rows != 12 {
		t.Fatalf("consumer rows = %d, want 12", run.Ops[1].Rows)
	}
	if run.Ops[0].BusyNS <= 0 || run.Ops[0].QueueNS < 0 {
		t.Fatalf("producer busy/queue = %d/%d", run.Ops[0].BusyNS, run.Ops[0].QueueNS)
	}

	// The pipelined edge: 6 blocks at UoT 2 means 3 deliveries.
	if len(run.Edges) != 1 {
		t.Fatalf("registered edges = %+v", run.Edges)
	}
	e := run.Edges[0]
	if e.From != "producer" || e.To != "consumer" || !e.Pipelined || e.UoT != 2 {
		t.Fatalf("edge meta = %+v", e)
	}
	if e.Batches != 3 || e.Blocks != 6 {
		t.Fatalf("edge batches/blocks = %d/%d, want 3/6", e.Batches, e.Blocks)
	}
	if e.Samples < e.Batches {
		t.Fatalf("edge samples = %d < batches %d", e.Samples, e.Batches)
	}

	// Span events: producer spans have no batch id, consumer spans carry the
	// UoT delivery id they were born from.
	var consumerBatches []int64
	var runEnd bool
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindSpan:
			if ev.StartNS < ev.EnqueueNS {
				t.Fatalf("span starts before enqueue: %+v", ev)
			}
			if ev.EndNS < ev.StartNS {
				t.Fatalf("span ends before start: %+v", ev)
			}
			if ev.Attempt != 1 {
				t.Fatalf("fault-free attempt = %d, want 1", ev.Attempt)
			}
			name := tr.OpName(ev.Run, ev.Op)
			if name == "producer" && ev.Batch != -1 {
				t.Fatalf("producer span has batch id %d", ev.Batch)
			}
			if name == "consumer" {
				consumerBatches = append(consumerBatches, ev.Batch)
			}
		case trace.KindEdge:
			if ev.UoT != 2 {
				t.Fatalf("edge sample UoT = %d, want 2", ev.UoT)
			}
		case trace.KindMark:
			if ev.Mark == trace.MarkRunEnd {
				runEnd = true
			}
		}
	}
	if !runEnd {
		t.Fatal("no run-end mark recorded")
	}
	seen := map[int64]int{}
	for _, b := range consumerBatches {
		if b < 0 || b > 2 {
			t.Fatalf("consumer batch id %d out of range [0,2]", b)
		}
		seen[b]++
	}
	// Each of the 3 deliveries produced 2 consumer work orders.
	for b := int64(0); b < 3; b++ {
		if seen[b] != 2 {
			t.Fatalf("batch %d spawned %d consumer spans, want 2 (got %v)", b, seen[b], seen)
		}
	}
}

func TestTraceRecordsRetriesAndFailedRun(t *testing.T) {
	f := &flaky{failN: 2, rows: 3}
	c := &consumer{}
	plan := &Plan{}
	fid := plan.AddOp(f)
	cid := plan.AddOp(c)
	plan.Pipe(fid, cid, 0, 1)
	ctx, tr := newTracedCtx(2, "flaky")
	if err := Run(plan, ctx, 1); err != nil {
		t.Fatal(err)
	}
	m := tr.Snapshot()
	fo := m.Runs[0].Ops[int(fid)]
	if fo.Spans != 3 || fo.Failed != 2 || fo.Retries != 2 {
		t.Fatalf("flaky op metrics = %+v, want 3 spans / 2 failed / 2 retried", fo)
	}
	// Exactly one delivery reached the consumer despite the retries.
	if co := m.Runs[0].Ops[int(cid)]; co.Rows != 3 {
		t.Fatalf("consumer traced rows = %d, want 3", co.Rows)
	}
	var retryMarks int
	var maxAttempt int32
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindMark && ev.Mark == trace.MarkRetry {
			retryMarks++
			if ev.Op != int32(fid) {
				t.Fatalf("retry mark op = %d, want %d", ev.Op, fid)
			}
		}
		if ev.Kind == trace.KindSpan && ev.Attempt > maxAttempt {
			maxAttempt = ev.Attempt
		}
	}
	if retryMarks != 2 {
		t.Fatalf("retry marks = %d, want 2", retryMarks)
	}
	if maxAttempt != 3 {
		t.Fatalf("max recorded attempt = %d, want 3", maxAttempt)
	}
	if m.Runs[0].Failed {
		t.Fatal("run marked failed despite eventual success")
	}
}

func TestTraceMarksFailedRun(t *testing.T) {
	plan := &Plan{}
	plan.AddOp(&panicOp{})
	ctx, tr := newTracedCtx(2, "boom")
	if err := Run(plan, ctx, 1); err == nil {
		t.Fatal("want run error")
	}
	m := tr.Snapshot()
	if !m.Runs[0].Failed {
		t.Fatal("errored run not marked failed in trace")
	}
}

// TestTraceDisabledPathUntouched re-runs a traced scenario with a nil tracer
// to pin the no-tracer path: same results, no events.
func TestTraceDisabledPathUntouched(t *testing.T) {
	p := &producer{nblocks: 4, rows: 2}
	c := &consumer{}
	ctx := newCtx(2) // ctx.Trace == nil
	if err := Run(pipePlan(p, c, 2), ctx, 1); err != nil {
		t.Fatal(err)
	}
	if c.rows != 8 {
		t.Fatalf("rows = %d, want 8", c.rows)
	}
	if ctx.Trace.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
}
