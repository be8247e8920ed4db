package main

// The benchmark's own span recorder. Spans are recorded from outside the
// engine, around the calls into each layer; spans inside the engine are a
// later issue that this benchmark will judge. A nil *recorder records
// nothing, so the untraced runs pay one nil check per boundary.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Spans of one request share Req; Parent is the
// ID of the span that caused this one (0 for a request's root span).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Counts are the counters sampled at this span's boundaries.
	Counts map[string]float64 `json:"counts,omitempty"`
}

type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
	reqs  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// request allots the identifier the spans of one request share.
func (r *recorder) request() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs++
	return r.reqs
}

// add records a finished span and returns its ID.
func (r *recorder) add(req, parent int, name string, start, end time.Time, counts map[string]float64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
		Counts: counts,
	})
	return id
}

// selfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the part of it its child spans cover.
func selfTimes(spans []Span) map[string]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string           `json:"workload"`
	Requests int              `json:"requests"`
	SelfNS   map[string]int64 `json:"self_ns"`
	Spans    []Span           `json:"spans"`
}

func (r *recorder) write(path, workload string) error {
	data, err := json.Marshal(traceFile{
		Workload: workload, Requests: r.reqs, SelfNS: selfTimes(r.spans), Spans: r.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
