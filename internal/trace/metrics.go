package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// Metrics is a machine-readable snapshot of the tracer's aggregates. Unlike
// the event ring, the aggregates are exact: they are maintained outside the
// ring and survive event overwrites.
type Metrics struct {
	// CapturedEvents is how many events the ring currently retains;
	// DroppedEvents how many were overwritten after it filled.
	CapturedEvents int          `json:"captured_events"`
	DroppedEvents  int64        `json:"dropped_events"`
	Runs           []RunMetrics `json:"runs"`
}

// RunMetrics aggregates one traced section.
type RunMetrics struct {
	Run int `json:"run"`
	// Query is the section's query-id span label (-1 when it has none), as
	// passed to Tracer.OpenRun.
	Query   int    `json:"query,omitempty"`
	Label   string `json:"label,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// WallNS is the section's duration (0 if EndRunIn was not called).
	WallNS int64         `json:"wall_ns"`
	Failed bool          `json:"failed,omitempty"`
	Ops    []OpMetrics   `json:"ops"`
	Edges  []EdgeMetrics `json:"edges"`

	// Spill-tier aggregates (zero without a spill tier): scheduler-marked
	// evictions/fault-ins and the read-through stall deliveries paid.
	SpillBlocksOut int64 `json:"spill_blocks_out,omitempty"`
	SpillBytesOut  int64 `json:"spill_bytes_out,omitempty"`
	SpillBlocksIn  int64 `json:"spill_blocks_in,omitempty"`
	SpillBytesIn   int64 `json:"spill_bytes_in,omitempty"`
	SpillStallNS   int64 `json:"spill_stall_ns,omitempty"`

	// Reuse-cache aggregates (zero without a reuse cache): hit-splices that
	// replaced a subtree with a cached-result scan, the operators and bytes
	// they pruned, and cache evictions observed during the section.
	ReuseHits         int64 `json:"reuse_hits,omitempty"`
	ReuseSplicedOps   int64 `json:"reuse_spliced_ops,omitempty"`
	ReuseHitBytes     int64 `json:"reuse_hit_bytes,omitempty"`
	ReuseEvictions    int64 `json:"reuse_evictions,omitempty"`
	ReuseEvictedBytes int64 `json:"reuse_evicted_bytes,omitempty"`
}

// OpMetrics aggregates one operator's work-order spans.
type OpMetrics struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Spans   int64  `json:"spans"`    // completed attempts, failures included
	Failed  int64  `json:"failed"`   // rolled-back attempts
	Retries int64  `json:"retries"`  // failed attempts that were re-dispatched
	Rows    int64  `json:"rows_in"`  // input rows of successful attempts
	RowsOut int64  `json:"rows_out"` // output rows of successful attempts
	BusyNS  int64  `json:"busy_ns"`  // summed attempt wall time
	QueueNS int64  `json:"queue_ns"` // summed enqueue→start latency

	// Kernel sums the attempts' hot-path counters; its fields marshal inline
	// under their stats.KernelCounters names (zero ones omitted).
	stats.Kernel
}

// EdgeMetrics aggregates one pipelined edge's gauge samples.
type EdgeMetrics struct {
	Edge        int    `json:"edge"`
	From        string `json:"from"`
	To          string `json:"to"`
	Input       int    `json:"input"`
	Pipelined   bool   `json:"pipelined"`
	UoT         int64  `json:"uot"`          // UoT threshold in blocks
	Samples     int64  `json:"samples"`      // gauge samples taken
	Batches     int64  `json:"batches"`      // UoT deliveries to the consumer
	Blocks      int64  `json:"blocks"`       // blocks delivered
	MaxBuffered int32  `json:"max_buffered"` // high-water buffered blocks
	StallNS     int64  `json:"stall_ns"`     // summed buffered-wait before delivery
}

// Snapshot returns the current metrics. Safe to call mid-run and on nil
// (empty snapshot).
func (t *Tracer) Snapshot() Metrics {
	if t == nil {
		return Metrics{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := Metrics{CapturedEvents: t.n, DroppedEvents: t.dropped}
	for _, r := range t.runs {
		rm := RunMetrics{
			Run: int(r.pid), Query: int(r.query), Label: r.label, Workers: r.workers, Failed: r.failed,
			SpillBlocksOut: r.spillBlocksOut, SpillBytesOut: r.spillBytesOut,
			SpillBlocksIn: r.spillBlocksIn, SpillBytesIn: r.spillBytesIn,
			SpillStallNS: r.spillStallNS,
			ReuseHits:    r.reuseHits, ReuseSplicedOps: r.reuseSplicedOps,
			ReuseHitBytes: r.reuseHitBytes, ReuseEvictions: r.reuseEvictions,
			ReuseEvictedBytes: r.reuseEvictedBytes,
		}
		if r.endNS > r.beginNS {
			rm.WallNS = r.endNS - r.beginNS
		}
		rm.Ops = append(rm.Ops, r.opAggs...)
		rm.Edges = append(rm.Edges, r.edgeAgg...)
		m.Runs = append(m.Runs, rm)
	}
	return m
}

// WriteJSON writes the snapshot as indented JSON.
func (m Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// promEscape escapes a Prometheus label value.
func promEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (one sample per run/operator or run/edge label set).
func (m Metrics) WritePrometheus(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("# HELP uot_trace_dropped_events Events overwritten after the trace ring filled.\n")
	sb.WriteString("# TYPE uot_trace_dropped_events counter\n")
	fmt.Fprintf(&sb, "uot_trace_dropped_events %d\n", m.DroppedEvents)

	emit := func(name, help, typ string, rows func(run RunMetrics, add func(labels string, v int64))) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, run := range m.Runs {
			lbl := promEscape(run.Label)
			rows(run, func(labels string, v int64) {
				fmt.Fprintf(&sb, "%s{run=%q,%s} %d\n", name, lbl, labels, v)
			})
		}
	}
	opLabel := func(o OpMetrics) string { return fmt.Sprintf("op=%q", promEscape(o.Name)) }
	for _, c := range []struct {
		name, help string
		of         func(OpMetrics) int64
	}{
		{"uot_workorders_total", "Completed work-order attempts per operator.", func(o OpMetrics) int64 { return o.Spans }},
		{"uot_workorder_failures_total", "Rolled-back work-order attempts per operator.", func(o OpMetrics) int64 { return o.Failed }},
		{"uot_workorder_retries_total", "Re-dispatched transient failures per operator.", func(o OpMetrics) int64 { return o.Retries }},
		{"uot_op_busy_nanoseconds_total", "Summed work-order wall time per operator.", func(o OpMetrics) int64 { return o.BusyNS }},
		{"uot_op_queue_nanoseconds_total", "Summed enqueue-to-start latency per operator.", func(o OpMetrics) int64 { return o.QueueNS }},
		{"uot_op_rows_out_total", "Output rows of successful attempts per operator.", func(o OpMetrics) int64 { return o.RowsOut }},
	} {
		emit(c.name, c.help, "counter", func(run RunMetrics, add func(string, int64)) {
			for _, o := range run.Ops {
				add(opLabel(o), c.of(o))
			}
		})
	}
	// The kernel counters come straight from the stats name table, one
	// uot_<name>_total family each; operators that never touched a counter
	// emit no sample for it.
	for _, c := range stats.KernelCounters {
		emit("uot_"+c.Name+"_total", c.Help, "counter", func(run RunMetrics, add func(string, int64)) {
			for i := range run.Ops {
				if v := *c.Of(&run.Ops[i].Kernel); v > 0 {
					add(opLabel(run.Ops[i]), v)
				}
			}
		})
	}
	edgeLabel := func(e EdgeMetrics) string {
		return fmt.Sprintf("edge=%q", promEscape(fmt.Sprintf("%s->%s#%d", e.From, e.To, e.Input)))
	}
	for _, c := range []struct {
		name, help, typ string
		of              func(EdgeMetrics) int64
	}{
		{"uot_edge_batches_total", "UoT-sized deliveries per pipelined edge.", "counter", func(e EdgeMetrics) int64 { return e.Batches }},
		{"uot_edge_blocks_total", "Blocks delivered per pipelined edge.", "counter", func(e EdgeMetrics) int64 { return e.Blocks }},
		{"uot_edge_buffered_max_blocks", "High-water buffered blocks per pipelined edge.", "gauge", func(e EdgeMetrics) int64 { return int64(e.MaxBuffered) }},
		{"uot_edge_stall_nanoseconds_total", "Summed buffered-wait before delivery per pipelined edge.", "counter", func(e EdgeMetrics) int64 { return e.StallNS }},
		{"uot_edge_uot_blocks", "UoT threshold per pipelined edge.", "gauge", func(e EdgeMetrics) int64 { return e.UoT }},
	} {
		emit(c.name, c.help, c.typ, func(run RunMetrics, add func(string, int64)) {
			for _, e := range run.Edges {
				if e.Pipelined {
					add(edgeLabel(e), c.of(e))
				}
			}
		})
	}
	emit("uot_spill_blocks_total", "Temp blocks moved between RAM and the spill tier, by direction.", "counter",
		func(run RunMetrics, add func(string, int64)) {
			add(`dir="out"`, run.SpillBlocksOut)
			add(`dir="in"`, run.SpillBlocksIn)
		})
	emit("uot_spill_bytes_total", "Extent-file bytes written (evictions) and read (fault-ins).", "counter",
		func(run RunMetrics, add func(string, int64)) {
			add(`dir="out"`, run.SpillBytesOut)
			add(`dir="in"`, run.SpillBytesIn)
		})
	emit("uot_spill_stall_nanoseconds_total", "Delivery wall time spent blocked on spill fault-in.", "counter",
		func(run RunMetrics, add func(string, int64)) {
			add(`kind="fault_in"`, run.SpillStallNS)
		})
	emit("uot_reuse_hits_total", "Subtrees replaced by cached-result scans (hit-splices).", "counter",
		func(run RunMetrics, add func(string, int64)) {
			add(`kind="splice"`, run.ReuseHits)
		})
	emit("uot_reuse_spliced_ops_total", "Operators pruned from plans by reuse hit-splices.", "counter",
		func(run RunMetrics, add func(string, int64)) {
			add(`kind="splice"`, run.ReuseSplicedOps)
		})
	emit("uot_reuse_bytes_total", "Cached-result bytes served by hit-splices and bytes dropped by evictions.", "counter",
		func(run RunMetrics, add func(string, int64)) {
			add(`dir="hit"`, run.ReuseHitBytes)
			add(`dir="evicted"`, run.ReuseEvictedBytes)
		})
	emit("uot_reuse_evictions_total", "Reuse-cache entries evicted.", "counter",
		func(run RunMetrics, add func(string, int64)) {
			add(`kind="evict"`, run.ReuseEvictions)
		})
	_, err := io.WriteString(w, sb.String())
	return err
}
