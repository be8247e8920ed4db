package main

// Set-up, the closed-loop driver and the end-to-end metrics. Every workload is
// a closed loop: a client submits its next request only when the previous one
// has completed, because callers of the engine and of uotserve wait for their
// reply. All load comes from this one process.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/trace"
)

// Sizing, the same on both sides of any comparison.
const (
	defaultSF     = 0.05
	blockBytes    = 128 << 10
	serveUoT      = 16
	serveMemory   = 1 << 30   // session budget: admission never sheds
	serveQueryMem = 256 << 20 // per-query soft budget: never binds
	reuseBudget   = 512 << 20 // result cache: never fills within a run (see README.md)
	spillFraction = 8         // RAM tier = 1/8 of the largest per-query temp high-water
	setupRepeats  = 3         // set-ups per run; setup_s is their median
	// fullRepeats is how often a run over every workload repeats each one: the
	// result file then always carries the run-to-run spread -compare needs.
	fullRepeats = 5
	// tpchWorkers is the intra-query parallelism of tpch_*. It should be P.
	// It is 1 because at this commit the engine returns a wrong result about
	// once in a thousand executions with two or more workers per query (rows
	// lost; see README.md), and a benchmark may not run operations that fail.
	tpchWorkers    = 1
	maxParallelism = 4
)

type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	OutDir   string
	// Sizing. The command line always passes the constants of this file; only
	// the smoke test shrinks the run.
	SF           float64
	SetupRepeats int
	KernelRows   int
}

// parallelism is P: worker and client count, and GOMAXPROCS.
func parallelism() int { return min(runtime.NumCPU(), maxParallelism) }

// env is one set-up: loaded data, goldens and the opened serving tier.
type env struct {
	cfg    config
	p      int
	gen    Generator
	data   *tpch.Dataset
	golden [numQueries + 1]golden // by TPC-H query number

	opts     engine.Options   // tpch_*: direct engine.Execute
	sess     *session.Session // serve_*
	spillDir string

	// Set for the traced phase only.
	rec *recorder
	acc *layerAcc
}

func (e *env) served() bool { return e.sess != nil }

// setup loads the data, computes the goldens, opens the workload's serving
// tier and runs the warm-up round. Its duration is setup_s. A non-nil tracer
// (the traced run's second phase) turns the engine's own tracer on for every
// query of this set-up.
func setup(cfg config, tracer *trace.Tracer) (*env, error) {
	e := &env{cfg: cfg, p: parallelism()}
	e.gen = Generator{Workload: cfg.Workload, Seed: cfg.Seed, Clients: e.p}
	e.data = tpch.Load(cfg.SF, blockBytes, storage.ColumnStore)
	// Goldens come from the deterministic one-worker schedule at the serving
	// tiers' UoT, so serve_* results (PerQueryWorkers=1) must match them bit
	// for bit; the same pass measures the largest per-query temporary-block
	// high-water, from which serve_spill's RAM tier is sized.
	var tempPeak int64
	for q := 1; q <= numQueries; q++ {
		res, err := engine.Execute(tpch.MustBuild(e.data, q, tpch.QueryOpts{}),
			engine.Options{Workers: 1, UoTBlocks: serveUoT, TempBlockBytes: blockBytes})
		if err != nil {
			return nil, fmt.Errorf("golden Q%d: %w", q, err)
		}
		e.golden[q] = newGolden(res.Table)
		tempPeak = max(tempPeak, res.Run.Intermediates.High())
	}

	scfg := session.Config{
		Workers: e.p, MaxConcurrent: e.p, PerQueryWorkers: 1,
		UoTBlocks: serveUoT, BlockBytes: blockBytes, MemoryBudget: serveMemory,
		Trace: tracer,
	}
	switch cfg.Workload {
	case TPCHPipelined, TPCHBlocking:
		e.gen.Clients = 1
		e.opts = tpchOptions(cfg.Workload)
		e.opts.Trace = tracer
	case ServeSpill:
		dir, err := os.MkdirTemp(cfg.OutDir, "spill-")
		if err != nil {
			return nil, err
		}
		e.spillDir = dir
		scfg.SpillDir, scfg.SpillThreshold = dir, tempPeak/spillFraction
		e.sess = session.Open(scfg)
	case ServeReuse:
		scfg.Reuse, scfg.ReuseBudget = true, reuseBudget
		e.sess = session.Open(scfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, workloadNames)
	}

	if warm := e.runRound(e.gen.Round(0)); warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up round: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	return e, nil
}

// tpchOptions is how tpch_pipelined and tpch_blocking call engine.Execute:
// the two ends of the paper's UoT spectrum, everything else equal.
func tpchOptions(workload string) engine.Options {
	opts := engine.Options{Workers: tpchWorkers, UoTBlocks: 1, TempBlockBytes: blockBytes}
	if workload == TPCHBlocking {
		opts.UoTBlocks = core.UoTTable
	}
	return opts
}

// close shuts the serving tier and returns the leak-invariant violations: an
// idle session holds no temp bytes, partial blocks, cache pins or spilled
// blocks, and leaves an empty spill directory behind.
func (e *env) close() []string {
	if e.sess == nil {
		return nil
	}
	var bad []string
	check := func(name string, n int64) {
		if n != 0 {
			bad = append(bad, fmt.Sprintf("%s=%d", name, n))
		}
	}
	check("live_bytes", e.sess.Live())
	check("pending_partials", int64(e.sess.PendingPartials()))
	check("reuse_pins", e.sess.ReuseStats().Pins)
	sc := e.sess.SpillStats()
	check("spill_outstanding", int64(sc.Outstanding))
	check("spill_bad_evicts", sc.BadEvicts)
	e.sess.Close()
	e.sess = nil
	if e.spillDir != "" {
		if left, err := os.ReadDir(e.spillDir); err != nil || len(left) != 0 {
			bad = append(bad, fmt.Sprintf("spill_dir_entries=%d (%v)", len(left), err))
		}
		os.RemoveAll(e.spillDir)
	}
	return bad
}

// roundResult is what one round of the closed loop measured.
type roundResult struct {
	wall, cpu time.Duration
	latencies []time.Duration // completed, verified requests only
	attempted int
	failed    int // errors + sheds + wrong results
	firstErr  error
	memHigh   int64 // largest per-query hash-table + intermediate high-water
}

// qps is the round's throughput: verified completions ÷ wall time.
func (rd roundResult) qps() float64 { return float64(len(rd.latencies)) / rd.wall.Seconds() }

// runRound drives every client through its list and waits for all of them.
func (e *env) runRound(rd Round) roundResult {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		out roundResult
	)
	cpu0, t0 := cpuTime(), time.Now()
	for c, list := range rd.Clients {
		wg.Add(1)
		go func(c int, list []int) {
			defer wg.Done()
			local := roundResult{latencies: make([]time.Duration, 0, len(list))}
			for i, q := range list {
				if c == 0 && rd.Bump != nil && rd.Bump[i] {
					e.data.Orders.BumpVersion()
				}
				local.attempted++
				lat, mem, err := e.request(q)
				if err != nil {
					local.failed++
					if local.firstErr == nil {
						local.firstErr = fmt.Errorf("client %d Q%d: %w", c, q, err)
					}
					continue
				}
				local.latencies = append(local.latencies, lat)
				local.memHigh = max(local.memHigh, mem)
			}
			mu.Lock()
			defer mu.Unlock()
			out.latencies = append(out.latencies, local.latencies...)
			out.attempted += local.attempted
			out.failed += local.failed
			out.memHigh = max(out.memHigh, local.memHigh)
			if out.firstErr == nil {
				out.firstErr = local.firstErr
			}
		}(c, list)
	}
	wg.Wait()
	out.wall, out.cpu = time.Since(t0), cpuTime()-cpu0
	if e.acc != nil {
		e.acc.rounds++
	}
	return out
}

// request runs one query through the workload's path and verifies it. The
// latency is what the caller waits for: plan build to result, not the
// benchmark's own verification.
func (e *env) request(q int) (latency time.Duration, memHigh int64, err error) {
	var (
		d     reqDetail
		table *storage.Table
		run   *stats.Run
	)
	d.query = q
	build := func() *engine.Builder {
		d.buildStart = time.Now()
		b := tpch.MustBuild(e.data, q, tpch.QueryOpts{})
		d.buildEnd = time.Now()
		d.planOps = len(b.Plan().Ops)
		return b
	}
	d.start = time.Now()
	if e.served() {
		var resp *session.Response
		resp, err = e.sess.Submit(session.Request{
			Build: build, Label: fmt.Sprintf("Q%d", q), MemoryBudget: serveQueryMem,
		})
		d.end = time.Now()
		if err == nil {
			table, run = resp.Table, resp.Run
			d.queued, d.elapsed = resp.Queued, resp.Elapsed
		}
	} else {
		b := build()
		var res *engine.Result
		res, err = engine.Execute(b, e.opts)
		d.end = time.Now()
		if err == nil {
			table, run = res.Table, res.Run
		}
	}
	if err != nil {
		return 0, 0, err
	}
	wrong := e.golden[q].diff(table)
	if e.acc != nil {
		d.verifyEnd = time.Now()
		d.run = run
		e.observe(&d)
	}
	if wrong != "" {
		return 0, 0, fmt.Errorf("result differs from golden: %s", wrong)
	}
	return d.end.Sub(d.start), run.HashTables.High() + run.Intermediates.High(), nil
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on a supported platform
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the driver contract's four keys.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	rounds, samples int
	notes           []string
}

// timedRounds runs whole rounds, starting at round `first`, until `seconds`
// have passed, and returns them: at least one. Stopping only at round
// boundaries keeps the query mix identical in every run.
func (e *env) timedRounds(first int, seconds float64) []roundResult {
	var out []roundResult
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for r := first; ; r++ {
		out = append(out, e.runRound(e.gen.Round(r)))
		if !time.Now().Before(deadline) {
			return out
		}
	}
}

// runWorkload is one benchmark run: set-up, measurement, verification. Every
// timing is taken per round and reported as the median over the rounds. For
// the tail that is a necessity: the p95 of all requests pooled sits, in a mix
// of 22 queries, where the heaviest query's latencies end and the next one's
// begin, and jumps between the two with the slightest interference.
func runWorkload(cfg config) (*runResult, error) {
	if cfg.Trace {
		return runTraced(cfg)
	}
	// Set-ups and measurement alternate: each set-up is followed by its share
	// of the timed rounds. The rounds of one run then span twice the wall time
	// they would back to back, so a slow spell of the host (they last tens of
	// seconds here) is less likely to cover all of them.
	var (
		setups []float64
		rounds []roundResult
		leaks  []string
	)
	for i := 0; i < cfg.SetupRepeats; i++ {
		t0 := time.Now()
		e, err := setup(cfg, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rounds = append(rounds, e.timedRounds(1+len(rounds), cfg.Seconds/float64(cfg.SetupRepeats))...)
		leaks = append(leaks, e.close()...)
		debug.FreeOSMemory() // drop this data set before loading the next
	}

	res := &runResult{Metrics: map[string]Metric{}, rounds: len(rounds), notes: leaks}
	var qps, p50, p95, cpuMS, memMiB []float64
	for _, rd := range rounds {
		res.Attempted += rd.attempted
		res.Failed += rd.failed
		if rd.firstErr != nil {
			res.notes = append(res.notes, rd.firstErr.Error())
		}
		done := float64(len(rd.latencies))
		res.samples += len(rd.latencies)
		sort.Slice(rd.latencies, func(i, j int) bool { return rd.latencies[i] < rd.latencies[j] })
		p50 = append(p50, ms(quantile(rd.latencies, 0.50)))
		p95 = append(p95, ms(quantile(rd.latencies, 0.95)))
		qps = append(qps, rd.qps())
		cpuMS = append(cpuMS, ms(rd.cpu)/max(done, 1))
		memMiB = append(memMiB, float64(rd.memHigh)/(1<<20))
	}
	// A broken leak invariant is a failure of the whole run.
	res.Failed += len(leaks)
	res.Correct = res.Failed == 0
	res.Metrics["setup_s"] = Metric{median(setups), "s"}
	res.Metrics["throughput_qps"] = Metric{median(qps), "1/s"}
	res.Metrics["latency_p50_ms"] = Metric{median(p50), "ms"}
	res.Metrics["latency_p95_ms"] = Metric{median(p95), "ms"}
	res.Metrics["cpu_ms_per_query"] = Metric{median(cpuMS), "ms"}
	res.Metrics["mem_high_mib"] = Metric{median(memMiB), "MiB"}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (nearest rank) of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
