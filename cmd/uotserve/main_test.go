package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// TestHandleQueryStatus pins the two ends of /query: an unknown TPC-H number
// is the client's error (400, never a panic inside Submit), a known one runs
// through the session and returns 200.
func TestHandleQueryStatus(t *testing.T) {
	sess := session.Open(session.Config{Workers: 2, MaxConcurrent: 1, QueueDepth: 1, MemoryBudget: 256 << 20})
	defer sess.Close()
	s := &server{data: tpch.Load(0.005, 128<<10, storage.ColumnStore), sess: sess}
	for _, tc := range []struct {
		target string
		want   int
	}{
		{"/query?q=99", http.StatusBadRequest},
		{"/query?q=6", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		s.handleQuery(rec, httptest.NewRequest(http.MethodGet, tc.target, nil))
		if rec.Code != tc.want {
			t.Errorf("GET %s = %d, want %d (body %s)", tc.target, rec.Code, tc.want, rec.Body)
		}
	}
}
