package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
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

// serveBudget is the per-query soft memory budget used by both the
// single-query golden runs and the served runs. Pinning it on both sides
// keeps the memory-pressure machinery's decisions (producer holds, UoT
// raises) identical, which the bit-identical result check depends on.
const serveBudget = 32 << 20

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
			Workers: 1, UoTBlocks: 1, TempBlockBytes: 128 << 10, MemoryBudget: serveBudget,
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
		Build: func() *engine.Builder {
			b, err := tpch.Build(d, q, tpch.QueryOpts{})
			if err != nil {
				panic(err) // mix queries are all implemented
			}
			return b
		},
		Label:        fmt.Sprintf("Q%d", q),
		MemoryBudget: serveBudget,
	}
}

// serveOutcome aggregates one closed-loop phase.
type serveOutcome struct {
	latencies []time.Duration
	completed int
	shed      int
	wall      time.Duration
}

func (o serveOutcome) qps() float64 {
	if o.wall <= 0 {
		return 0
	}
	return float64(o.completed) / o.wall.Seconds()
}

// pctMS returns the q-quantile of the latencies in milliseconds.
func pctMS(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)-1) + 0.5)
	return float64(s[idx]) / float64(time.Millisecond)
}

// serveLoop drives a closed loop: `clients` goroutines each submit
// `perClient` queries round-robin over the mix, checking every completed
// result bit-exactly against the golden checksums. Admission rejections
// count as sheds; any other error, or a checksum mismatch, fails the loop.
func serveLoop(sess *session.Session, d *tpch.Dataset, golden map[int]string, clients, perClient int) (serveOutcome, error) {
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		out      serveOutcome
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := serveQueries[(c+i)%len(serveQueries)]
				t0 := time.Now()
				resp, err := sess.Submit(serveRequest(d, q))
				lat := time.Since(t0)
				mu.Lock()
				switch {
				case err == nil:
					out.completed++
					out.latencies = append(out.latencies, lat)
					if got := serveChecksum(resp.Table); got != golden[q] {
						if firstErr == nil {
							firstErr = fmt.Errorf("client %d Q%d: served result %s… differs from single-query golden", c, q, got[:12])
						}
					}
				case errors.Is(err, session.ErrAdmissionRejected):
					out.shed++
				default:
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d Q%d: %w", c, q, err)
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out, firstErr
}

// Serve is the SERVE experiment: a closed-loop multi-query serving check.
// Phase one runs 16 concurrent clients against a well-provisioned session
// and requires every result bit-identical to the single-query golden runs
// with zero sheds; phase two shrinks admission to 2 slots and a 2-deep queue
// so the same client pressure must shed with typed errors while completed
// results stay golden. Both phases must drain to zero live bytes and zero
// pending partials.
func (h *Harness) Serve() (*Report, error) {
	r := &Report{
		ID:    "SERVE",
		Title: "Concurrent serving: admission, shedding, per-query isolation",
		Header: []string{
			"phase", "clients", "done", "shed", "p50_ms", "p95_ms", "p99_ms", "qps", "result", "leaks",
		},
	}
	d := h.Dataset(128<<10, storage.ColumnStore)
	golden, _, err := h.serveGolden(d)
	if err != nil {
		return nil, fmt.Errorf("SERVE: %w", err)
	}

	phases := []struct {
		name               string
		clients, perClient int
		maxConc, queue     int
		wantShed           bool
	}{
		{"steady", 16, 3, 8, 16 * 3, false},
		{"overload", 16, 2, 2, 2, true},
	}
	for _, ph := range phases {
		sess := session.Open(session.Config{
			Workers:       h.cfg.Workers,
			MaxConcurrent: ph.maxConc,
			QueueDepth:    ph.queue,
			MemoryBudget:  1 << 30,
		})
		out, loopErr := serveLoop(sess, d, golden, ph.clients, ph.perClient)
		live, partials := sess.Live(), sess.PendingPartials()
		sess.Close()
		if loopErr != nil {
			return nil, fmt.Errorf("SERVE %s: %w", ph.name, loopErr)
		}
		resultOK := out.completed+out.shed == ph.clients*ph.perClient
		r.AddRow(
			ph.name,
			fmt.Sprintf("%d", ph.clients),
			fmt.Sprintf("%d", out.completed),
			fmt.Sprintf("%d", out.shed),
			fmt.Sprintf("%.2f", pctMS(out.latencies, 0.50)),
			fmt.Sprintf("%.2f", pctMS(out.latencies, 0.95)),
			fmt.Sprintf("%.2f", pctMS(out.latencies, 0.99)),
			fmt.Sprintf("%.1f", out.qps()),
			pass(resultOK),
			fmt.Sprintf("%d", live+int64(partials)),
		)
		if !resultOK {
			return nil, fmt.Errorf("SERVE %s: %d completed + %d shed != %d submitted",
				ph.name, out.completed, out.shed, ph.clients*ph.perClient)
		}
		if ph.wantShed && out.shed == 0 {
			return nil, fmt.Errorf("SERVE %s: expected load shedding under 2-slot admission, saw none", ph.name)
		}
		if !ph.wantShed && out.shed != 0 {
			return nil, fmt.Errorf("SERVE %s: %d queries shed with a %d-deep queue", ph.name, out.shed, ph.queue)
		}
		if live != 0 || partials != 0 {
			return nil, fmt.Errorf("SERVE %s: leaked %d live bytes, %d partials after drain", ph.name, live, partials)
		}
	}
	r.Note("mix %v; per-query workers = 1, so every served result is bit-identical (sha256 over hex-float rows) to the single-query golden run", serveQueries)
	r.Note("overload phase: 2 admission slots, 2-deep queue; sheds are typed ErrAdmissionRejected")
	return r, nil
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
				req.MaxAttempts = 8
				req.RetryBackoff = 100 * time.Microsecond
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
			if rb.LeakedBlocks+rb.OutstandingRefs != 0 {
				return nil, fmt.Errorf("CCHAOS: %s leaked %d blocks/refs", o.label, rb.LeakedBlocks+rb.OutstandingRefs)
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

// ServePoint is one client-count measurement in the serving artifact.
type ServePoint struct {
	Clients       int     `json:"clients"`
	Queries       int     `json:"queries"`
	Completed     int     `json:"completed"`
	Shed          int     `json:"shed"`
	ThroughputQPS float64 `json:"throughput_qps"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
}

// ServeReport is the machine-readable serving artifact (BENCH_PR8.json).
type ServeReport struct {
	Suite         string       `json:"suite"`
	GoVersion     string       `json:"go_version"`
	GOOS          string       `json:"goos"`
	GOARCH        string       `json:"goarch"`
	CPUs          int          `json:"cpus"`
	SF            float64      `json:"sf"`
	Workers       int          `json:"workers"`
	MaxConcurrent int          `json:"max_concurrent"`
	Mix           []int        `json:"mix"`
	Points        []ServePoint `json:"points"`
}

// String renders the artifact as a table.
func (m *ServeReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "serve throughput/latency (SF %g, %d workers, %d admission slots, mix %v)\n",
		m.SF, m.Workers, m.MaxConcurrent, m.Mix)
	fmt.Fprintf(&sb, "%8s %8s %8s %6s %10s %8s %8s %8s\n",
		"clients", "queries", "done", "shed", "qps", "p50_ms", "p95_ms", "p99_ms")
	for _, p := range m.Points {
		fmt.Fprintf(&sb, "%8d %8d %8d %6d %10.1f %8.2f %8.2f %8.2f\n",
			p.Clients, p.Queries, p.Completed, p.Shed, p.ThroughputQPS, p.P50MS, p.P95MS, p.P99MS)
	}
	return sb.String()
}

// WriteJSON writes the artifact to path.
func (m *ServeReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunServe measures closed-loop serving throughput and latency percentiles
// at 1, 4, and 16 clients (golden-checked like the SERVE experiment, queue
// sized to avoid shedding so the artifact tracks capacity, not rejects).
func RunServe(cfg Config) (*ServeReport, error) {
	cfg = cfg.withDefaults()
	h := New(cfg)
	d := h.Dataset(128<<10, storage.ColumnStore)
	golden, _, err := h.serveGolden(d)
	if err != nil {
		return nil, fmt.Errorf("serve artifact: %w", err)
	}
	const maxConc = 4
	rep := &ServeReport{
		Suite:         "serve",
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		SF:            cfg.SF,
		Workers:       cfg.Workers,
		MaxConcurrent: maxConc,
		Mix:           serveQueries,
	}
	for _, clients := range []int{1, 4, 16} {
		perClient := 4
		sess := session.Open(session.Config{
			Workers:       cfg.Workers,
			MaxConcurrent: maxConc,
			QueueDepth:    clients * perClient,
			MemoryBudget:  1 << 30,
		})
		out, loopErr := serveLoop(sess, d, golden, clients, perClient)
		sess.Close()
		if loopErr != nil {
			return nil, fmt.Errorf("serve artifact at %d clients: %w", clients, loopErr)
		}
		rep.Points = append(rep.Points, ServePoint{
			Clients:       clients,
			Queries:       clients * perClient,
			Completed:     out.completed,
			Shed:          out.shed,
			ThroughputQPS: out.qps(),
			P50MS:         pctMS(out.latencies, 0.50),
			P95MS:         pctMS(out.latencies, 0.95),
			P99MS:         pctMS(out.latencies, 0.99),
		})
	}
	return rep, nil
}
