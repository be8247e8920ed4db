package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Chrome trace-event export: the retained events render as a timeline in
// chrome://tracing or https://ui.perfetto.dev. Each traced section becomes a
// "process" (pid) named by its label, each worker a "thread" within it, and
// each work-order attempt a complete ("ph":"X") slice on its worker's track —
// so the Fig. 2 schedule shapes are directly visible: at low UoT the
// producer's and consumer's slices interleave, at high UoT the consumer's
// slices all start after the producer's end. Edge gauges are emitted as
// counter ("ph":"C") tracks and marks as instant ("ph":"i") events.

// chromeEvent is one entry of the trace-event JSON array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace writes the retained events as Chrome trace-event JSON.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("trace: cannot export a nil tracer")
	}
	events := t.Events()
	t.mu.Lock()
	runs := make([]*runMeta, len(t.runs))
	copy(runs, t.runs)
	dropped := t.dropped
	t.mu.Unlock()

	var out chromeTrace
	out.DisplayTimeUnit = "ms"
	for _, r := range runs {
		label := r.label
		if label == "" {
			label = fmt.Sprintf("run %d", r.pid)
		}
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{Name: "process_name", Ph: "M", Pid: r.pid, Args: map[string]any{"name": label}},
			chromeEvent{Name: "process_sort_index", Ph: "M", Pid: r.pid, Args: map[string]any{"sort_index": r.pid}},
		)
		for w := 0; w < r.workers; w++ {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: r.pid, Tid: int32(w),
				Args: map[string]any{"name": fmt.Sprintf("worker %d", w)},
			})
		}
	}
	edgeName := func(r *runMeta, id int32) string {
		if r != nil && int(id) < len(r.edges) {
			e := r.edges[id]
			return fmt.Sprintf("%s->%s#%d", e.FromName, e.ToName, e.Input)
		}
		return fmt.Sprintf("edge %d", id)
	}
	runOf := func(id int32) *runMeta {
		if int(id) < len(runs) {
			return runs[id]
		}
		return nil
	}
	for _, e := range events {
		r := runOf(e.Run)
		switch e.Kind {
		case KindSpan:
			name := ""
			if r != nil && int(e.Op) < len(r.ops) {
				name = r.ops[e.Op]
			}
			if name == "" {
				name = fmt.Sprintf("op %d", e.Op)
			}
			args := map[string]any{
				"op": e.Op, "attempt": e.Attempt, "rows_in": e.Rows, "rows_out": e.RowsOut,
			}
			if e.Query >= 0 {
				args["query"] = e.Query
			}
			if e.Batch >= 0 {
				args["uot_batch"] = e.Batch
			}
			if e.EnqueueNS > 0 {
				args["queue_us"] = us(e.StartNS - e.EnqueueNS)
			}
			if e.Flags&FlagFailed != 0 {
				args["failed"] = true
			}
			if e.Flags&FlagRetried != 0 {
				args["retried"] = true
			}
			e.Kernel.Each(func(name string, v int64) {
				if v > 0 {
					args[name] = v
				}
			})
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: name, Cat: "workorder", Ph: "X",
				Ts: us(e.StartNS), Dur: us(e.EndNS - e.StartNS),
				Pid: e.Run, Tid: e.Worker, Args: args,
			})
		case KindEdge:
			// One counter track per edge (buffered blocks vs. its UoT
			// threshold), plus shared queue-depth and pool-occupancy tracks.
			uot := e.UoT
			if uot > 1<<40 { // UoTTable renders as 0 threshold line
				uot = 0
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "edge " + edgeName(r, e.Edge), Cat: "edge", Ph: "C",
				Ts: us(e.StartNS), Pid: e.Run, Tid: 0,
				Args: map[string]any{"buffered": e.Buffered, "uot": uot},
			}, chromeEvent{
				Name: "scheduler queue", Cat: "edge", Ph: "C",
				Ts: us(e.StartNS), Pid: e.Run, Tid: 0,
				Args: map[string]any{"depth": e.QueueDepth},
			}, chromeEvent{
				Name: "pool bytes", Cat: "edge", Ph: "C",
				Ts: us(e.StartNS), Pid: e.Run, Tid: 0,
				Args: map[string]any{"live": e.PoolBytes},
			})
			if e.StallNS > 0 {
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: "stall " + edgeName(r, e.Edge), Cat: "stall", Ph: "X",
					Ts: us(e.StartNS - e.StallNS), Dur: us(e.StallNS),
					Pid: e.Run, Tid: -1,
					Args: map[string]any{"delivered_after_ns": e.StallNS},
				})
			}
		case KindMark:
			name := "mark"
			switch e.Mark {
			case MarkRetry:
				name = "retry scheduled"
			case MarkRunEnd:
				name = "run end"
			case MarkSpill:
				name = "spill evict"
			case MarkSpillFaultIn:
				name = "spill fault-in"
			case MarkReuseHit:
				name = "reuse hit-splice"
			case MarkReuseEvict:
				name = "reuse evict"
			}
			args := map[string]any{"op": e.Op}
			if e.Attempt > 0 {
				args["attempt"] = e.Attempt
			}
			if e.Flags&FlagFailed != 0 {
				args["failed"] = true
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: name, Cat: "sched", Ph: "i", S: "p",
				Ts: us(e.StartNS), Pid: e.Run, Tid: 0, Args: args,
			})
		}
	}
	if dropped > 0 {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "events dropped (ring full)", Cat: "sched", Ph: "i", S: "g",
			Ts: 0, Pid: 0, Tid: 0, Args: map[string]any{"dropped": dropped},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeFile writes the Chrome trace to path.
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
