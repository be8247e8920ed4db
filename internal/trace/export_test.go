package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/stats"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fixture builds a tracer holding two sections shaped like a FIG2 sweep: a
// low-UoT run with interleaved select/probe spans and a high-UoT run where
// all probe spans start after the selects end.
func fixture() *Tracer {
	tr := New(256)

	h := tr.OpenRun("uot=2", -1)
	tr.SetWorkersIn(h, 2)
	tr.RegisterOpIn(h, 0, "select(lineitem)")
	tr.RegisterOpIn(h, 1, "probe(orders)")
	tr.RegisterEdgeIn(h, 0, EdgeInfo{From: 0, To: 1, FromName: "select(lineitem)", ToName: "probe(orders)", Input: 0, Pipelined: true, UoT: 2})
	tr.SpanIn(h, Event{Op: 0, Worker: 0, Attempt: 1, Batch: -1, EnqueueNS: 0, StartNS: 100, EndNS: 200, Rows: 10, RowsOut: 8})
	tr.EdgeIn(h, Event{Edge: 0, Buffered: 0, UoT: 2, StartNS: 210, QueueDepth: 1, StallNS: 50, PoolBytes: 4096}, 2)
	tr.SpanIn(h, Event{Op: 1, Worker: 1, Attempt: 1, Batch: 0, EnqueueNS: 210, StartNS: 220, EndNS: 320, Rows: 8, RowsOut: 8})
	tr.SpanIn(h, Event{Op: 0, Worker: 0, Attempt: 1, Batch: -1, StartNS: 250, EndNS: 330, Rows: 10, RowsOut: 9})
	tr.MarkIn(h, MarkRetry, Event{Op: 1, Attempt: 1, StartNS: 340})
	tr.EndRunIn(h, false)

	h = tr.OpenRun("uot=table", -1)
	tr.SetWorkersIn(h, 2)
	tr.RegisterOpIn(h, 0, "select(lineitem)")
	tr.RegisterOpIn(h, 1, "probe(orders)")
	tr.RegisterEdgeIn(h, 0, EdgeInfo{From: 0, To: 1, FromName: "select(lineitem)", ToName: "probe(orders)", Input: 0, Pipelined: true, UoT: 1 << 60})
	tr.SpanIn(h, Event{Op: 0, Worker: 0, Attempt: 1, Batch: -1, StartNS: 100, EndNS: 400, Rows: 20, RowsOut: 17})
	tr.EdgeIn(h, Event{Edge: 0, Buffered: 0, UoT: 1 << 60, StartNS: 410, StallNS: 300}, 17)
	tr.SpanIn(h, Event{Op: 1, Worker: 1, Attempt: 1, Batch: 0, StartNS: 420, EndNS: 600, Rows: 17, RowsOut: 17})
	tr.EndRunIn(h, false)
	return tr
}

func TestWriteChromeTraceShape(t *testing.T) {
	tr := fixture()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("Chrome export is not valid JSON")
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int32          `json:"pid"`
			Tid  int32          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}

	byPh := map[string]int{}
	procNames := map[int32]string{}
	threadNames := 0
	var spanNames []string
	for _, e := range out.TraceEvents {
		byPh[e.Ph]++
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			procNames[e.Pid] = e.Args["name"].(string)
		case e.Ph == "M" && e.Name == "thread_name":
			threadNames++
		case e.Ph == "X" && (e.Name == "select(lineitem)" || e.Name == "probe(orders)"):
			spanNames = append(spanNames, e.Name)
		}
	}
	if procNames[0] != "uot=2" || procNames[1] != "uot=table" {
		t.Fatalf("process names = %v", procNames)
	}
	if threadNames != 4 { // 2 workers × 2 runs
		t.Fatalf("thread_name metadata = %d, want 4", threadNames)
	}
	// 5 work-order slices + 2 stall slices.
	if byPh["X"] != 7 {
		t.Fatalf("complete events = %d, want 7", byPh["X"])
	}
	// 2 edge samples × 3 counter tracks.
	if byPh["C"] != 6 {
		t.Fatalf("counter events = %d, want 6", byPh["C"])
	}
	// 1 retry mark + 2 run-end marks.
	if byPh["i"] != 3 {
		t.Fatalf("instant events = %d, want 3", byPh["i"])
	}
	if len(spanNames) == 0 {
		t.Fatal("no operator slices in export")
	}

	// The UoTTable threshold renders as 0 on the counter track.
	for _, e := range out.TraceEvents {
		if e.Ph == "C" && e.Pid == 1 && strings.HasPrefix(e.Name, "edge ") {
			if uot := e.Args["uot"].(float64); uot != 0 {
				t.Fatalf("UoTTable counter threshold = %v, want 0", uot)
			}
		}
	}

	// Schedule shapes: interleaved in run 0, producer-then-consumer in run 1.
	probeStart := func(pid int32) (sel, probe []float64) {
		for _, e := range out.TraceEvents {
			if e.Ph != "X" || e.Pid != pid {
				continue
			}
			switch e.Name {
			case "select(lineitem)":
				sel = append(sel, e.Ts+e.Dur)
			case "probe(orders)":
				probe = append(probe, e.Ts)
			}
		}
		return
	}
	sel0, probe0 := probeStart(0)
	if probe0[0] >= sel0[len(sel0)-1] {
		t.Fatal("low-UoT run: probe did not interleave with select")
	}
	sel1, probe1 := probeStart(1)
	if probe1[0] < sel1[len(sel1)-1] {
		t.Fatal("high-UoT run: probe started before select finished")
	}
}

func TestWriteChromeTraceNil(t *testing.T) {
	var tr *Tracer
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil tracer export did not error")
	}
}

func TestWriteChromeFileRoundTrip(t *testing.T) {
	tr := fixture()
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteChromeFile(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// File contents must match the stream export.
	got := readFile(t, path)
	if got != buf.String() {
		t.Fatal("file export differs from stream export")
	}
}

func TestDroppedInstantEmitted(t *testing.T) {
	tr := New(2)
	h := tr.OpenRun("tiny", -1)
	tr.RegisterOpIn(h, 0, "op")
	for i := 0; i < 10; i++ {
		tr.SpanIn(h, Event{Op: 0, StartNS: int64(i), EndNS: int64(i + 1)})
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "events dropped (ring full)") {
		t.Fatal("overflowed export lacks the dropped-events instant")
	}
}

func TestWriteJSONSnapshot(t *testing.T) {
	tr := fixture()
	var buf bytes.Buffer
	if err := tr.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 2 || m.Runs[0].Label != "uot=2" {
		t.Fatalf("round-tripped snapshot runs = %+v", m.Runs)
	}
	sel := m.Runs[0].Ops[0]
	if sel.Name != "select(lineitem)" || sel.Spans != 2 || sel.Rows != 20 || sel.RowsOut != 17 {
		t.Fatalf("round-tripped op metrics = %+v", sel)
	}
	e := m.Runs[0].Edges[0]
	if e.Batches != 1 || e.Blocks != 2 || e.StallNS != 50 {
		t.Fatalf("round-tripped edge metrics = %+v", e)
	}
}

func TestWritePrometheus(t *testing.T) {
	tr := fixture()
	var buf bytes.Buffer
	if err := tr.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE uot_workorders_total counter",
		`uot_workorders_total{run="uot=2",op="select(lineitem)"} 2`,
		`uot_workorders_total{run="uot=2",op="probe(orders)"} 1`,
		`uot_edge_batches_total{run="uot=2",edge="select(lineitem)->probe(orders)#0"} 1`,
		`uot_edge_blocks_total{run="uot=table",edge="select(lineitem)->probe(orders)#0"} 17`,
		`uot_edge_stall_nanoseconds_total{run="uot=2",edge="select(lineitem)->probe(orders)#0"} 50`,
		"uot_trace_dropped_events 0",
		"# TYPE uot_edge_buffered_max_blocks gauge",
		`uot_op_rows_out_total{run="uot=2",op="select(lineitem)"} 17`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("Prometheus text missing %q\n%s", want, text)
		}
	}
	// Every non-comment line must be NAME{labels} VALUE or NAME VALUE.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestPromEscape(t *testing.T) {
	got := promEscape("a\\b\"c\nd")
	if got != `a\\b\"c\nd` {
		t.Fatalf("promEscape = %q", got)
	}
}

// kernelFixture is one section whose operators each touched a different slice
// of the kernel counters.
func kernelFixture() *Tracer {
	tr := New(64)
	h := tr.OpenRun("q", -1)
	for id, name := range []string{"build(orders)", "agg(lineitem)", "sort", "probe"} {
		tr.RegisterOpIn(h, id, name)
	}
	tr.RegisterEdgeIn(h, 0, EdgeInfo{From: 1, To: 2, FromName: "agg(lineitem)", ToName: "sort", Pipelined: true, UoT: 1})
	tr.SpanIn(h, Event{Op: 0, StartNS: 1, EndNS: 2, Kernel: stats.Kernel{ShardLocks: 3, BatchedRows: 100}})
	tr.SpanIn(h, Event{Op: 1, StartNS: 1, EndNS: 2, Kernel: stats.Kernel{AggFastRows: 40, AggPartials: 2}})
	tr.SpanIn(h, Event{Op: 1, StartNS: 2, EndNS: 3, Flags: FlagFailed})
	tr.SpanIn(h, Event{Op: 2, StartNS: 1, EndNS: 2, Kernel: stats.Kernel{SortRuns: 4, TopKPruned: 9}})
	tr.SpanIn(h, Event{Op: 3, StartNS: 1, EndNS: 2, Kernel: stats.Kernel{BatchedRows: 50, ScratchHits: 1}})
	tr.EndRunIn(h, false)
	return tr
}

// Every kernel counter reaches both exports under its stats.KernelCounters
// name — not only the sort half the tracer used to copy by hand.
func TestKernelCountersReachBothExports(t *testing.T) {
	m := kernelFixture().Snapshot()
	var js, prom bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var ops struct {
		Runs []struct {
			Ops []map[string]any `json:"ops"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(js.Bytes(), &ops); err != nil {
		t.Fatal(err)
	}
	build, agg := ops.Runs[0].Ops[0], ops.Runs[0].Ops[1]
	if build["shard_locks"] != 3.0 || agg["agg_fast_rows"] != 40.0 {
		t.Fatalf("JSON ops: build=%v agg=%v", build, agg)
	}
	if _, ok := build["agg_fast_rows"]; ok {
		t.Error("zero kernel counter not omitted from JSON")
	}
	for _, want := range []string{
		`uot_shard_locks_total{run="q",op="build(orders)"} 3`,
		`uot_agg_fast_rows_total{run="q",op="agg(lineitem)"} 40`,
		// The two families that predate the name table, help text included.
		"# HELP uot_sort_runs_total Sorted runs generated per operator.\n# TYPE uot_sort_runs_total counter\n" +
			`uot_sort_runs_total{run="q",op="sort"} 4`,
		"# HELP uot_topk_pruned_total Rows pruned by the bounded top-k heap per operator.\n# TYPE uot_topk_pruned_total counter\n" +
			`uot_topk_pruned_total{run="q",op="sort"} 9`,
		`uot_batched_rows_total{run="q",op="probe"} 50`,
		`uot_scratch_hits_total{run="q",op="probe"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus text missing %q", want)
		}
	}
	if strings.Contains(prom.String(), `uot_shard_locks_total{run="q",op="sort"}`) {
		t.Error("operator with a zero kernel counter still emits a sample")
	}
}

// The metric families and label sets that existed before the kernel counters
// became table-driven, in exposition order.
func TestPrometheusFamiliesAndLabelsUnchanged(t *testing.T) {
	want := []string{
		"uot_trace_dropped_events{}",
		"uot_workorders_total{run,op}", "uot_workorder_failures_total{run,op}", "uot_workorder_retries_total{run,op}",
		"uot_op_busy_nanoseconds_total{run,op}", "uot_op_queue_nanoseconds_total{run,op}", "uot_op_rows_out_total{run,op}",
		"uot_sort_runs_total{run,op}", "uot_topk_pruned_total{run,op}",
		"uot_edge_batches_total{run,edge}", "uot_edge_blocks_total{run,edge}", "uot_edge_buffered_max_blocks{run,edge}",
		"uot_edge_stall_nanoseconds_total{run,edge}", "uot_edge_uot_blocks{run,edge}",
		"uot_spill_blocks_total{run,dir}", "uot_spill_bytes_total{run,dir}", "uot_spill_stall_nanoseconds_total{run,kind}",
		"uot_reuse_hits_total{run,kind}", "uot_reuse_spliced_ops_total{run,kind}",
		"uot_reuse_bytes_total{run,dir}", "uot_reuse_evictions_total{run,kind}",
	}
	var buf bytes.Buffer
	if err := kernelFixture().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var got []string
	seen := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(series, "{")
		var keys []string
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), `",`) {
			if k, _, ok := strings.Cut(kv, "="); ok {
				keys = append(keys, k)
			}
		}
		fam := name + "{" + strings.Join(keys, ",") + "}"
		if !seen[fam] {
			seen[fam] = true
			got = append(got, fam)
		}
	}
	i := 0
	for _, fam := range got {
		if i < len(want) && fam == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("pre-existing family %q missing or out of order in %v", want[i], got)
	}
}
