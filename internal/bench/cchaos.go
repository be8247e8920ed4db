package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/types"
)

// serveQueries is the TPC-H mix served concurrently: the same
// operator-diverse set the CHAOS experiment uses (agg, outer join + agg,
// scalar subquery, large join + agg).
var serveQueries = []int{1, 13, 15, 18}

// serveChecksum fingerprints a result bit-exactly: floats in the hex 'x'
// format (all 64 bits), rows sorted, SHA-256 — the golden harness's
// canonicalization.
func serveChecksum(t *storage.Table) string {
	rows := engine.Rows(t)
	lines := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for j, d := range r {
			if j > 0 {
				sb.WriteByte('|')
			}
			switch d.Ty {
			case types.Float64:
				sb.WriteString(strconv.FormatFloat(d.F, 'x', -1, 64))
			case types.Char:
				sb.Write(d.B)
			default:
				sb.WriteString(strconv.FormatInt(d.I, 10))
			}
		}
		lines[i] = sb.String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, line := range lines {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// serveGolden runs every mix query once, single-query at one worker (the
// deterministic schedule the served runs must reproduce bit-exactly), and
// returns checksums plus sorted base rows for tolerance comparisons.
func (h *Harness) serveGolden(d *tpch.Dataset) (map[int]string, map[int][][]types.Datum, error) {
	sums := make(map[int]string, len(serveQueries))
	rows := make(map[int][][]types.Datum, len(serveQueries))
	for _, q := range serveQueries {
		res, err := h.run(d, q, engine.Options{
			Workers: 1, UoTBlocks: 1, TempBlockBytes: 128 << 10,
		}, tpch.QueryOpts{})
		if err != nil {
			return nil, nil, fmt.Errorf("golden Q%d: %w", q, err)
		}
		sums[q] = serveChecksum(res.Table)
		rs := engine.Rows(res.Table)
		engine.SortRows(rs)
		rows[q] = rs
	}
	return sums, rows, nil
}

func serveRequest(d *tpch.Dataset, q int) session.Request {
	return session.Request{
		Build: func() *engine.Builder { return tpch.MustBuild(d, q, tpch.QueryOpts{}) },
		Label: fmt.Sprintf("Q%d", q),
	}
}

// ConcurrentChaos is the CCHAOS experiment: eight queries served
// concurrently, half of them under a seeded 2%-per-site fault schedule with
// retry/rollback, plus one mid-run cancellation and one tight deadline.
// Non-faulted queries must match the single-query goldens bit-exactly;
// faulted queries must still succeed (retries) within the chaos tolerance;
// cancelled/deadline queries must fail typed if they fail at all; and the
// shared pool must drain to zero — failed queries return every block.
func (h *Harness) ConcurrentChaos() (*Report, error) {
	r := &Report{
		ID:    "CCHAOS",
		Title: "Concurrent serving under fault injection",
		Header: []string{
			"query", "faults", "retries", "outcome", "result", "wall_ms",
		},
	}
	d := h.Dataset(128<<10, storage.ColumnStore)
	golden, baseRows, err := h.serveGolden(d)
	if err != nil {
		return nil, fmt.Errorf("CCHAOS: %w", err)
	}

	sess := session.Open(session.Config{
		Workers:       h.cfg.Workers,
		MaxConcurrent: 8,
		QueueDepth:    16,
		MemoryBudget:  1 << 30,
	})
	defer sess.Close()

	type outcome struct {
		label   string
		faulted bool
		inj     *faults.Injector
		resp    *session.Response
		err     error
		wall    time.Duration
	}
	outcomes := make([]outcome, 0, 10)
	var mu sync.Mutex
	var wg sync.WaitGroup

	submit := func(label string, q int, mutate func(*session.Request), faulted bool, inj *faults.Injector) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := serveRequest(d, q)
			req.Label = label
			if inj != nil {
				req.Faults = inj
			}
			if mutate != nil {
				mutate(&req)
			}
			t0 := time.Now()
			resp, err := sess.Submit(req)
			mu.Lock()
			outcomes = append(outcomes, outcome{label, faulted, inj, resp, err, time.Since(t0)})
			mu.Unlock()
		}()
	}

	// Eight concurrent queries: one clean and one faulted copy of each mix
	// query, all under the same seeded 2%-per-site schedule the CHAOS
	// experiment uses.
	for _, q := range serveQueries {
		submit(fmt.Sprintf("Q%d", q), q, nil, false, nil)
		inj := faults.New(faults.Config{
			Seed:       chaosSeed,
			Rates:      chaosSiteRates(),
			MaxLatency: 50 * time.Microsecond,
		})
		submit(fmt.Sprintf("Q%d+faults", q), q, nil, true, inj)
	}
	// A mid-run cancellation and a tight deadline ride along; whether each
	// fires before completion is timing-dependent, but a failure must be
	// typed and must release every block.
	ctx, cancel := context.WithCancel(context.Background())
	submit("Q18+cancel", 18, func(req *session.Request) { req.Context = ctx }, false, nil)
	go func() { time.Sleep(time.Millisecond); cancel() }()
	submit("Q18+deadline", 18, func(req *session.Request) { req.Deadline = 2 * time.Millisecond }, false, nil)

	wg.Wait()

	var totalInjected int64
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].label < outcomes[j].label })
	for _, o := range outcomes {
		probe := strings.Contains(o.label, "+cancel") || strings.Contains(o.label, "+deadline")
		var injected, retries int64
		resultCell, outcomeCell := "-", "completed"
		if o.resp != nil {
			rb := o.resp.Run.Robust()
			injected, retries = rb.FaultsInjected, rb.Retries
			totalInjected += injected
			if rb.LeakedBlocks != 0 || rb.LeakedBytes != 0 {
				return nil, fmt.Errorf("CCHAOS: %s leaked %d blocks, %d bytes", o.label, rb.LeakedBlocks, rb.LeakedBytes)
			}
		}
		switch {
		case o.err == nil && o.faulted:
			// Retried runs may reorder float summation: tolerance.
			rows := engine.Rows(o.resp.Table)
			engine.SortRows(rows)
			q := mixQuery(o.label)
			resultCell = pass(chaosSameRows(baseRows[q], rows))
			if resultCell != "ok" {
				return nil, fmt.Errorf("CCHAOS: %s result differs from fault-free golden beyond tolerance", o.label)
			}
		case o.err == nil:
			q := mixQuery(o.label)
			resultCell = pass(serveChecksum(o.resp.Table) == golden[q])
			if resultCell != "ok" {
				return nil, fmt.Errorf("CCHAOS: %s (non-faulted) result not bit-identical to golden", o.label)
			}
		case probe:
			if !errors.Is(o.err, core.ErrQueryCancelled) && !errors.Is(o.err, core.ErrDeadlineExceeded) &&
				!errors.Is(o.err, session.ErrAdmissionRejected) {
				return nil, fmt.Errorf("CCHAOS: %s failed untyped: %v", o.label, o.err)
			}
			outcomeCell = "typed-abort"
		default:
			return nil, fmt.Errorf("CCHAOS: %s failed: %v", o.label, o.err)
		}
		r.AddRow(o.label, fmt.Sprintf("%d", injected), fmt.Sprintf("%d", retries),
			outcomeCell, resultCell, fmt.Sprintf("%.2f", float64(o.wall)/float64(time.Millisecond)))
	}
	if totalInjected == 0 {
		return nil, fmt.Errorf("CCHAOS: no faults fired — injectors not wired through the session")
	}
	if live := sess.Live(); live != 0 {
		return nil, fmt.Errorf("CCHAOS: %d live bytes after drain", live)
	}
	if p := sess.PendingPartials(); p != 0 {
		return nil, fmt.Errorf("CCHAOS: %d pending partials after drain", p)
	}
	r.Note("seed %d, 2%% fault rate per site on half the queries; non-faulted results bit-identical, faulted within 1e-6", chaosSeed)
	r.Note("cancel/deadline probes: typed abort or clean completion, never an untyped failure; pool drains to zero either way")
	return r, nil
}

// mixQuery recovers the TPC-H number from a serve label ("Q13+faults" → 13).
func mixQuery(label string) int {
	s := strings.TrimPrefix(label, "Q")
	if i := strings.IndexByte(s, '+'); i >= 0 {
		s = s[:i]
	}
	n, _ := strconv.Atoi(s)
	return n
}
