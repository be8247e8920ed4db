package trace

import "testing"

// The tracing layer must never perturb what it measures: both the disabled
// (nil tracer) and the enabled recording paths are required to be
// allocation-free. These assertions back the "zero allocation when disabled"
// acceptance criterion with testing.AllocsPerRun rather than a benchmark
// that could silently regress.

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if n := testing.AllocsPerRun(200, fn); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

func TestDisabledPathAllocatesNothing(t *testing.T) {
	var tr *Tracer
	ev := Event{Op: 1, Worker: 2, StartNS: 3, EndNS: 4, Rows: 5}
	assertZeroAllocs(t, "nil.Enabled", func() { _ = tr.Enabled() })
	assertZeroAllocs(t, "nil.Now", func() { _ = tr.Now() })
	assertZeroAllocs(t, "nil.SpanIn", func() { tr.SpanIn(1, ev) })
	assertZeroAllocs(t, "nil.EdgeIn", func() { tr.EdgeIn(1, ev, 1) })
	assertZeroAllocs(t, "nil.MarkIn", func() { tr.MarkIn(1, MarkRetry, ev) })
	assertZeroAllocs(t, "nil.OpenRun", func() { _ = tr.OpenRun("x", -1) })
	assertZeroAllocs(t, "nil.EndRunIn", func() { tr.EndRunIn(1, false) })
	assertZeroAllocs(t, "nil.Snapshot", func() { _ = tr.Snapshot() })
}

func TestEnabledRecordingAllocatesNothing(t *testing.T) {
	tr := New(1 << 10)
	h := tr.OpenRun("alloc", -1)
	tr.RegisterOpIn(h, 0, "op")
	tr.RegisterEdgeIn(h, 0, EdgeInfo{FromName: "a", ToName: "b", Pipelined: true, UoT: 2})
	ev := Event{Op: 0, Worker: 1, EnqueueNS: 1, StartNS: 2, EndNS: 3, Rows: 4, RowsOut: 4, Batch: -1}
	ee := Event{Edge: 0, Buffered: 1, UoT: 2, StartNS: 5, QueueDepth: 1, PoolBytes: 4096}
	assertZeroAllocs(t, "SpanIn", func() { tr.SpanIn(h, ev) })
	assertZeroAllocs(t, "EdgeIn", func() { tr.EdgeIn(h, ee, 2) })
	assertZeroAllocs(t, "MarkIn", func() { tr.MarkIn(h, MarkRetry, ev) })
	assertZeroAllocs(t, "Now", func() { _ = tr.Now() })
}

// BenchmarkDisabledSpan measures the full disabled-path cost a scheduler
// call site pays per work order: the Enabled check plus the nil-method call.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	ev := Event{Op: 1, Worker: 2, StartNS: 3, EndNS: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Enabled() {
			ev.EnqueueNS = tr.Now()
		}
		tr.SpanIn(1, ev)
	}
}

// BenchmarkEnabledSpan measures the enabled recording path (lock + aggregate
// update + ring copy).
func BenchmarkEnabledSpan(b *testing.B) {
	tr := New(1 << 12)
	h := tr.OpenRun("bench", -1)
	tr.RegisterOpIn(h, 0, "op")
	ev := Event{Op: 0, Worker: 1, StartNS: 2, EndNS: 3, Rows: 4, Batch: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.SpanIn(h, ev)
	}
}
