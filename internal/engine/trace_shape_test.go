package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/trace"
)

// spanWindows extracts the [start,end] windows of two operators' successful
// span events from a tracer section.
func spanWindows(tr *trace.Tracer, run int32, aName, bName string) (a, b [][2]int64) {
	for _, e := range tr.Events() {
		if e.Kind != trace.KindSpan || e.Run != run || e.Flags&trace.FlagFailed != 0 {
			continue
		}
		switch tr.OpName(e.Run, e.Op) {
		case aName:
			a = append(a, [2]int64{e.StartNS, e.EndNS})
		case bName:
			b = append(b, [2]int64{e.StartNS, e.EndNS})
		}
	}
	return
}

// TestTraceShapeInterleavingVsBlocking is the Fig. 2 acceptance check at the
// trace level: with a low UoT the consumer's probe spans interleave with the
// producer's select spans; with UoT=table every probe span starts after the
// last select span ends. The interleaving is asserted at Workers 1, where
// consumer-priority dispatch makes it deterministic; at Workers 2 it is a
// timing outcome (the fact selects may all finish while the other worker is
// still building), so that run checks only its results. The UoT=table
// ordering holds at any worker count and is asserted at Workers 2.
func TestTraceShapeInterleavingVsBlocking(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 512)
	tr := trace.New(1 << 14)
	for _, tc := range []struct {
		label   string
		uot     int
		workers int
	}{
		{"uot=1", 1, 1},
		{"uot=table", core.UoTTable, 2},
		{"uot=1 workers=2", 1, 2},
	} {
		res, err := Execute(buildJoinAggPlan(fact, dim), Options{
			Workers: tc.workers, UoTBlocks: tc.uot, TempBlockBytes: 512,
			Trace: tr, TraceLabel: tc.label,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		checkJoinAgg(t, res, tc.label)
	}

	sel0, probe0 := spanWindows(tr, 0, "sel_fact", "probe_dim")
	if len(sel0) == 0 || len(probe0) == 0 {
		t.Fatalf("uot=1 section: %d select, %d probe spans", len(sel0), len(probe0))
	}
	lastSelEnd := int64(0)
	for _, w := range sel0 {
		if w[1] > lastSelEnd {
			lastSelEnd = w[1]
		}
	}
	firstProbe := probe0[0][0]
	for _, w := range probe0 {
		if w[0] < firstProbe {
			firstProbe = w[0]
		}
	}
	if firstProbe >= lastSelEnd {
		t.Fatal("uot=1: probe spans did not interleave with select spans")
	}

	sel1, probe1 := spanWindows(tr, 1, "sel_fact", "probe_dim")
	if len(sel1) == 0 || len(probe1) == 0 {
		t.Fatalf("uot=table section: %d select, %d probe spans", len(sel1), len(probe1))
	}
	lastSelEnd = 0
	for _, w := range sel1 {
		if w[1] > lastSelEnd {
			lastSelEnd = w[1]
		}
	}
	for _, w := range probe1 {
		if w[0] < lastSelEnd {
			t.Fatal("uot=table: a probe span started before the selects finished")
		}
	}
}

// TestTraceEndToEndExports runs a real plan with tracing on and exercises
// every export against it.
func TestTraceEndToEndExports(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 512)
	tr := trace.New(1 << 14)
	if _, err := Execute(buildJoinAggPlan(fact, dim), Options{
		Workers: 2, UoTBlocks: 2, TempBlockBytes: 512,
		Trace: tr, TraceLabel: "join-agg",
	}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("Chrome export is not valid JSON")
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"join-agg"`)) {
		t.Fatal("Chrome export lacks the run label")
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"probe_dim"`)) {
		t.Fatal("Chrome export lacks operator slices")
	}

	m := tr.Snapshot()
	if len(m.Runs) != 1 || m.Runs[0].Label != "join-agg" || m.Runs[0].Workers != 2 {
		t.Fatalf("snapshot run meta = %+v", m.Runs)
	}
	var spans, edges int64
	for _, o := range m.Runs[0].Ops {
		spans += o.Spans
	}
	for _, e := range m.Runs[0].Edges {
		if e.Pipelined {
			edges += e.Batches
		}
	}
	if spans == 0 || edges == 0 {
		t.Fatalf("snapshot empty: %d spans, %d edge batches", spans, edges)
	}
	// Traced row counts agree with the engine's own stats-free invariants:
	// sel_fact emits 900 rows (v >= 10 keeps 900 of 1000).
	for _, o := range m.Runs[0].Ops {
		if o.Name == "sel_fact" && o.RowsOut != 900 {
			t.Fatalf("traced sel_fact rows_out = %d, want 900", o.RowsOut)
		}
	}

	var prom bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(prom.Bytes(), []byte(`uot_workorders_total{run="join-agg",op="probe_dim"}`)) {
		t.Fatalf("Prometheus export missing probe sample:\n%s", prom.String())
	}
}

// TestTracingDoesNotChangeResults pins that attaching a tracer is purely
// observational: same plan, same results, tracer on or off.
func TestTracingDoesNotChangeResults(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 512)
	plain, err := Execute(buildJoinAggPlan(fact, dim), Options{Workers: 1, UoTBlocks: 2, TempBlockBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Execute(buildJoinAggPlan(fact, dim), Options{
		Workers: 1, UoTBlocks: 2, TempBlockBytes: 512,
		Trace: trace.New(64), TraceLabel: "observed",
	})
	if err != nil {
		t.Fatal(err)
	}
	pr, tw := Rows(plain.Table), Rows(traced.Table)
	if len(pr) != len(tw) {
		t.Fatalf("row counts differ: %d vs %d", len(pr), len(tw))
	}
	for i := range pr {
		for j := range pr[i] {
			if fmt.Sprint(pr[i][j]) != fmt.Sprint(tw[i][j]) {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, pr[i][j], tw[i][j])
			}
		}
	}
}
