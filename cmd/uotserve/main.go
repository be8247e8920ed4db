// Command uotserve exposes the concurrent serving layer (internal/session)
// over HTTP: a loaded TPC-H dataset, one shared worker pool, one global
// memory budget, and admission control with load shedding.
//
// Usage:
//
//	uotserve [-addr :8080] [-sf 0.05] [-workers 8] [-concurrent 4]
//	         [-queue 8] [-budget-mb 256] [-uot 1] [-lip]
//	         [-reuse]
//
// Endpoints:
//
//	GET /query?q=3[&priority=2][&deadline_ms=500][&limit=10]
//	    Runs TPC-H query q through admission; 200 with a JSON result on
//	    success, 429 when shed (queue full / over budget), 504 on a blown
//	    deadline, 400/500 otherwise.
//	GET /stats
//	    Admission counters, occupancy, live memory, and (with -reuse) the
//	    result cache's hit/admission/eviction counters as JSON.
//	GET /metrics
//	    Prometheus-style metrics scrape of the shared tracer.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/trace"
)

type server struct {
	data  *tpch.Dataset
	sess  *session.Session
	tr    *trace.Tracer
	lip   bool
	start time.Time
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor")
	workers := flag.Int("workers", 8, "shared worker-pool size")
	concurrent := flag.Int("concurrent", 4, "max concurrently admitted queries")
	queue := flag.Int("queue", 8, "admission wait-queue depth")
	budgetMB := flag.Int64("budget-mb", 256, "global temporary-block budget (MiB)")
	uotBlocks := flag.Int("uot", 1, "default unit of transfer in blocks")
	lip := flag.Bool("lip", false, "build plans with LIP: a scan probes its downstream join tables")
	reuseOn := flag.Bool("reuse", false, "enable the cross-query result cache (budget: a quarter of -budget-mb)")
	flag.Parse()

	log.Printf("loading TPC-H SF=%g ...", *sf)
	data := tpch.Load(*sf, 128<<10, storage.ColumnStore)
	tr := trace.New(0)
	sess := session.Open(session.Config{
		Workers:       *workers,
		MaxConcurrent: *concurrent,
		QueueDepth:    *queue,
		MemoryBudget:  *budgetMB << 20,
		UoTBlocks:     *uotBlocks,
		Trace:         tr,
		Reuse:         *reuseOn,
	})
	s := &server{data: data, sess: sess, tr: tr, lip: *lip, start: time.Now()}

	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	log.Printf("serving TPC-H queries %v on %s (workers=%d concurrent=%d queue=%d budget=%dMiB)",
		tpch.Numbers(), *addr, *workers, *concurrent, *queue, *budgetMB)
	log.Fatal(http.ListenAndServe(*addr, mux))
}

type queryResponse struct {
	Query    int      `json:"query"`     // session-assigned query id
	TPCH     int      `json:"tpch"`      // TPC-H query number
	Rows     int64    `json:"rows"`      // result cardinality
	QueuedMS float64  `json:"queued_ms"` // admission wait
	TotalMS  float64  `json:"total_ms"`  // wait + execution
	Sample   []string `json:"sample,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := strconv.Atoi(r.URL.Query().Get("q"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad or missing q parameter: %v", err))
		return
	}
	priority, _ := strconv.Atoi(r.URL.Query().Get("priority"))
	deadlineMS, _ := strconv.Atoi(r.URL.Query().Get("deadline_ms"))
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))

	b, err := tpch.Build(s.data, q, tpch.QueryOpts{LIP: s.lip})
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	req := session.Request{
		Build:    func() *engine.Builder { return b },
		Label:    fmt.Sprintf("Q%d", q),
		Priority: priority,
		Context:  r.Context(),
		Deadline: time.Duration(deadlineMS) * time.Millisecond,
	}

	resp, err := s.sess.Submit(req)
	if err != nil {
		switch {
		case errors.Is(err, session.ErrAdmissionRejected) && errors.Is(err, core.ErrDeadlineExceeded):
			httpError(w, http.StatusGatewayTimeout, err)
		case errors.Is(err, session.ErrAdmissionRejected):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, core.ErrDeadlineExceeded):
			httpError(w, http.StatusGatewayTimeout, err)
		case errors.Is(err, core.ErrQueryCancelled):
			// Client went away: 499 in nginx convention; use 408.
			httpError(w, http.StatusRequestTimeout, err)
		default:
			httpError(w, http.StatusInternalServerError, err)
		}
		return
	}

	out := queryResponse{
		Query:    resp.Query,
		TPCH:     q,
		Rows:     resp.Table.NumRows(),
		QueuedMS: float64(resp.Queued) / float64(time.Millisecond),
		TotalMS:  float64(resp.Elapsed) / float64(time.Millisecond),
	}
	if limit > 0 {
		rows := engine.Rows(resp.Table)
		if len(rows) > limit {
			rows = rows[:limit]
		}
		for _, row := range rows {
			out.Sample = append(out.Sample, engine.FormatRow(row))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	inflight, waiting, reserved := s.sess.Occupancy()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s":       time.Since(s.start).Seconds(),
		"counters":       s.sess.Counters(),
		"inflight":       inflight,
		"queued":         waiting,
		"reserved_bytes": reserved,
		"live_bytes":     s.sess.Live(),
		"reuse":          s.sess.ReuseStats(),
	})
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.tr.Snapshot().WritePrometheus(w); err != nil {
		log.Printf("metrics write: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("response write: %v", err)
	}
}
