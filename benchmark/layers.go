package main

// The traced run and the per-layer metrics. Layers are measured from outside:
// spans this file records around tpch.Build, engine.Execute and
// session.Submit, and counters those calls already return. End-to-end numbers
// never come from here.

import (
	"fmt"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/reuse"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/trace"
)

// gapRounds is how many rounds of each of tpch_pipelined and tpch_blocking
// the traced run of tpch_pipelined times, alternating, for
// paper.uot_gap_ratio.
const gapRounds = 3

// onceMetrics do not depend on the workload: the UoT gap, the front-end calls
// and the kernels. The traced run of tpch_pipelined measures them; the other
// traced runs report 0, like every metric that does not apply to a workload,
// rather than spend a third of their time measuring the same numbers again.
var onceMetrics = []struct{ name, unit string }{
	{"paper.uot_gap_ratio", "ratio"},
	{"reuse.analyze_us", "us"},
	{"costmodel.query_memory_us", "us"},
	{"hashtable.insert_block_ns", "ns"},
	{"hashtable.lookup_hashed_ns", "ns"},
	{"bloom.add_many_ns", "ns"},
	{"bloom.may_contain_ns", "ns"},
	{"aggtable.upsert_block_ns", "ns"},
	{"aggtable.merge_partition_ns", "ns"},
	{"sorter.sort_kvs_ns", "ns"},
	{"sorter.topk_offer_ns", "ns"},
	{"exchange.repartition_ns", "ns"},
	{"expr.filter_block_ns", "ns"},
	{"uotctl.observe_ns", "ns"},
	{"storage.encode_block_mib_s", "MiB/s"},
	{"storage.decode_block_mib_s", "MiB/s"},
	{"storage.pool_checkout_ns", "ns"},
}

// reqDetail is what the traced run keeps of one request.
type reqDetail struct {
	query                int
	start, end           time.Time // the caller's wait: latency = end − start
	buildStart, buildEnd time.Time
	verifyEnd            time.Time
	planOps              int
	queued, elapsed      time.Duration // session.Response, serve_* only
	run                  *stats.Run
}

// layerAcc sums the traced phase's per-request observations.
type layerAcc struct {
	mu     sync.Mutex
	rounds int

	requests           int
	buildUS            []float64
	submitOverheadUS   []float64
	executeNS          int64
	engineOverheadNS   int64
	queuedNS           int64
	workOrders         int64
	checkouts          int64
	woWallNS           int64 // Σ work-order wall time
	workerWallNS       int64 // Σ run wall time × workers
	kindBusyNS         map[string]int64
	aggFast, aggSlow   int64
	sortFast, sortSlow int64
	demotions          int64
	rootHits           int64
	hitMS, missMS      []float64
}

// opKind maps an operator name ("probe(orders)") to the exec kernel family
// its busy time is reported under.
func opKind(name string) string {
	if i := strings.IndexByte(name, '('); i > 0 {
		name = name[:i]
	}
	switch name {
	case "select", "filter", "compute", "having":
		return "select"
	case "build", "probe", "agg", "sort":
		return name
	}
	return "other" // collect, capture, reuse-scan
}

// observe records one verified request's spans and folds its counters into
// the accumulator.
func (e *env) observe(d *reqDetail) {
	run := d.run
	per := run.PerOp()
	var orders int64
	var woWall time.Duration
	for _, op := range per {
		orders += int64(op.Count)
		woWall += op.WallTotal
	}
	// The interval the engine had the query: Execute's span when called
	// directly; on a session, admission grant to reply, which is Execute plus
	// a few counter updates.
	execStart, execEnd := d.buildEnd, d.end
	workers := tpchWorkers
	if e.served() {
		execStart = execEnd.Add(-(d.elapsed - d.queued))
		workers = 1
	}
	execute := execEnd.Sub(execStart)
	ru := run.Reuse()
	// A root hit prunes every operator but the collect sink.
	rootHit := ru.Hit && int(ru.SplicedOps) == d.planOps-1

	counts := map[string]float64{
		"work_orders":    float64(orders),
		"pool_checkouts": float64(run.Checkouts()),
		"core_wall_ns":   float64(run.WallTime()),
		"mem_high_bytes": float64(run.HashTables.High() + run.Intermediates.High()),
	}
	rec := e.rec
	req := rec.request()
	root := rec.add(req, 0, "request", d.start, d.verifyEnd, map[string]float64{"query": float64(d.query)})
	parent := root
	if e.served() {
		// Submit calls Build itself; the admission wait and the engine's
		// share of the call are placed from the Response it returns.
		counts["queued_ns"] = float64(d.queued)
		counts["reuse_spliced_ops"] = float64(ru.SplicedOps)
		parent = rec.add(req, root, "submit", d.start, d.end, nil)
		rec.add(req, parent, "queue_wait", execStart.Add(-d.queued), execStart, nil)
	}
	rec.add(req, parent, "plan_build", d.buildStart, d.buildEnd, nil)
	rec.add(req, parent, "execute", execStart, execEnd, counts)
	rec.add(req, root, "verify", d.end, d.verifyEnd, nil)

	a := e.acc
	a.mu.Lock()
	defer a.mu.Unlock()
	a.requests++
	a.buildUS = append(a.buildUS, us(d.buildEnd.Sub(d.buildStart)))
	a.executeNS += int64(execute)
	a.engineOverheadNS += int64(execute - run.WallTime())
	a.workOrders += orders
	a.checkouts += run.Checkouts()
	a.woWallNS += int64(woWall)
	a.workerWallNS += int64(run.WallTime()) * int64(workers)
	for _, op := range per {
		a.kindBusyNS[opKind(op.Name)] += int64(op.WallTotal)
		a.aggFast += op.AggFastRows
		a.aggSlow += op.AggFallbackRows
		a.sortFast += op.SortFastRows
		a.sortSlow += op.SortFallbackRows
	}
	a.demotions += run.Robust().Demotions
	if e.served() {
		a.queuedNS += int64(d.queued)
		// What Submit spent outside the plan build, the admission queue and
		// the engine: estimate, fingerprint, single-flight wait, bookkeeping.
		a.submitOverheadUS = append(a.submitOverheadUS,
			us(d.end.Sub(d.start)-d.elapsed-d.buildEnd.Sub(d.buildStart)))
	}
	if e.cfg.Workload == ServeReuse {
		lat := ms(d.end.Sub(d.start))
		if rootHit {
			a.rootHits++
			a.hitMS = append(a.hitMS, lat)
		} else {
			a.missMS = append(a.missMS, lat)
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced is the traced run: the same rounds once untraced and once traced
// (their throughput ratio is the tracing overhead), each after its own
// set-up, then, on tpch_pipelined, the onceMetrics. "Traced"
// means this file's span recorder plus the engine's own tracer, whose exact
// per-edge aggregates count deliveries.
func runTraced(cfg config) (*runResult, error) {
	phase := cfg.Seconds / 3
	untraced, err := setup(cfg, nil)
	if err != nil {
		return nil, err
	}
	plain := untraced.timedRounds(1, phase)
	leaks := untraced.close()
	debug.FreeOSMemory()

	tracer := trace.New(1 << 12) // the ring may wrap; the aggregates read below are exact
	e, err := setup(cfg, tracer)
	if err != nil {
		return nil, err
	}
	e.rec, e.acc = newRecorder(), &layerAcc{kindBusyNS: map[string]int64{}}
	var ctr0 session.Counters
	var spill0 storage.SpillCounters
	var reuse0 reuse.Counters
	if e.served() {
		ctr0, spill0, reuse0 = e.sess.Counters(), e.sess.SpillStats(), e.sess.ReuseStats()
	}
	warmupRuns := len(tracer.Snapshot().Runs)
	traced := e.timedRounds(1, phase)
	a := e.acc
	e.rec.add(0, 0, "traced_phase", e.rec.t0, time.Now(), nil)

	m := map[string]Metric{}
	put := func(name string, v float64, unit string) { m[name] = Metric{v, unit} }
	res := &runResult{Metrics: m, rounds: len(traced)}
	for _, rd := range append(plain, traced...) {
		res.Attempted += rd.attempted
		res.Failed += rd.failed
		res.samples += len(rd.latencies)
		if rd.firstErr != nil {
			res.notes = append(res.notes, rd.firstErr.Error())
		}
	}

	n, rounds := float64(a.requests), float64(a.rounds)
	put("tpch.plan_build_us", median(a.buildUS), "us")
	put("engine.execute_ms", ratio(float64(a.executeNS), n)/1e6, "ms")
	put("engine.overhead_ms", ratio(float64(a.engineOverheadNS), n)/1e6, "ms")
	put("core.work_orders", ratio(float64(a.workOrders), rounds), "count")
	put("core.pool_checkouts", ratio(float64(a.checkouts), rounds), "count")
	put("core.busy_frac", ratio(float64(a.woWallNS), float64(a.workerWallNS)), "ratio")
	put("core.gap_us_per_wo", ratio(float64(a.workerWallNS-a.woWallNS), float64(a.workOrders))/1e3, "us")
	var deliveries, edgeStallNS int64
	for _, run := range tracer.Snapshot().Runs[warmupRuns:] {
		for _, edge := range run.Edges {
			deliveries += edge.Batches
			edgeStallNS += edge.StallNS
		}
	}
	put("core.deliveries", ratio(float64(deliveries), rounds), "count")
	put("core.edge_stall_ms", ratio(float64(edgeStallNS), rounds)/1e6, "ms")
	for _, kind := range []string{"select", "build", "probe", "agg", "sort"} {
		put("exec."+kind+"_busy_ms", ratio(float64(a.kindBusyNS[kind]), rounds)/1e6, "ms")
	}
	put("exec.agg_fast_row_ratio", ratio(float64(a.aggFast), float64(a.aggFast+a.aggSlow)), "ratio")
	put("exec.sort_fast_row_ratio", ratio(float64(a.sortFast), float64(a.sortFast+a.sortSlow)), "ratio")
	put("exec.demotions", float64(a.demotions), "count")

	// Serving tiers: deltas of the session's own counters over the traced
	// phase. All zero on tpch_*, which bypass the session.
	var ctr session.Counters
	var sp storage.SpillCounters
	var ru reuse.Counters
	if e.served() {
		ctr, sp, ru = e.sess.Counters(), e.sess.SpillStats(), e.sess.ReuseStats()
	}
	shed := (ctr.RejectedQueueFull - ctr0.RejectedQueueFull) + (ctr.RejectedOverBudget - ctr0.RejectedOverBudget) +
		(ctr.RejectedDeadline - ctr0.RejectedDeadline)
	put("session.queue_wait_ms", ratio(float64(a.queuedNS), n)/1e6, "ms")
	put("session.submit_overhead_us", median(a.submitOverheadUS), "us")
	put("session.shed_frac", ratio(float64(shed), float64(ctr.Submitted-ctr0.Submitted)), "ratio")

	bytesOut := float64(sp.BytesOut - spill0.BytesOut)
	put("spill.bytes_out_per_query", ratio(bytesOut, n), "B")
	put("spill.blocks_in_per_query", ratio(float64(sp.BlocksIn-spill0.BlocksIn), n), "count")
	put("spill.fault_stall_ms_per_query", ratio(float64(sp.FaultStallNS-spill0.FaultStallNS), n)/1e6, "ms")
	// Temp bytes produced ≈ blocks checked out of the pool × block size.
	put("spill.write_amp", ratio(bytesOut, float64(a.checkouts)*blockBytes), "ratio")
	put("spill.disk_peak_mib", float64(sp.DiskPeak)/(1<<20), "MiB")
	put("spill.bad_evicts", float64(sp.BadEvicts), "count")

	hits, misses := float64(ru.Hits-reuse0.Hits), float64(ru.Misses-reuse0.Misses)
	put("reuse.root_hit_ratio", ratio(float64(a.rootHits), n), "ratio")
	put("reuse.lookup_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("reuse.hit_latency_ms", median(a.hitMS), "ms")
	put("reuse.miss_latency_ms", median(a.missMS), "ms")
	put("reuse.admissions", ratio(float64(ru.Admissions-reuse0.Admissions), rounds), "count")
	put("reuse.evictions", ratio(float64(ru.Evictions-reuse0.Evictions), rounds), "count")
	put("reuse.invalidations", ratio(float64(ru.Invalidations-reuse0.Invalidations), rounds), "count")
	put("reuse.flight_waits", ratio(float64(ru.FlightWaits-reuse0.FlightWaits), rounds), "count")
	put("reuse.bytes_pinned_mib", float64(ru.BytesPinned)/(1<<20), "MiB")

	put("trace.overhead_frac", 1-ratio(roundsQPS(traced), roundsQPS(plain)), "ratio")

	rec := e.rec
	e.rec, e.acc = nil, nil
	leaks = append(leaks, e.close()...)
	res.Failed += len(leaks)
	res.notes = append(res.notes, leaks...)
	if err := rec.write(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json"), cfg.Workload); err != nil {
		return nil, err
	}

	if cfg.Workload == TPCHPipelined {
		gap, err := uotGap(e)
		if err != nil {
			return nil, err
		}
		put("paper.uot_gap_ratio", gap, "ratio")
		analyzeUS, estimateUS := frontEnd(e.data)
		put("reuse.analyze_us", analyzeUS, "us")
		put("costmodel.query_memory_us", estimateUS, "us")
		kernels(cfg.KernelRows, put)
	} else {
		for _, om := range onceMetrics {
			put(om.name, 0, om.unit)
		}
	}

	res.Correct = res.Failed == 0
	return res, nil
}

// roundsQPS is the median per-round throughput.
func roundsQPS(rounds []roundResult) float64 {
	qps := make([]float64, len(rounds))
	for i, rd := range rounds {
		qps[i] = rd.qps()
	}
	return median(qps)
}

// uotGap is tpch_blocking ÷ tpch_pipelined throughput over the same rounds,
// alternating: the paper's Fig. 7 gap. Informational; both workloads also
// report their own throughput_qps.
func uotGap(loaded *env) (float64, error) {
	var sides [2]*env
	for i, w := range []string{TPCHPipelined, TPCHBlocking} {
		e := &env{cfg: loaded.cfg, p: loaded.p, data: loaded.data, golden: loaded.golden}
		e.cfg.Workload = w
		e.gen = Generator{Workload: w, Seed: e.cfg.Seed, Clients: 1}
		e.opts = tpchOptions(w)
		sides[i] = e
	}
	var rounds [2][]roundResult
	for r := 0; r < gapRounds; r++ {
		for i, e := range sides {
			rd := e.runRound(e.gen.Round(r))
			if rd.failed > 0 {
				return 0, fmt.Errorf("uot gap %s: %w", e.cfg.Workload, rd.firstErr)
			}
			rounds[i] = append(rounds[i], rd)
		}
	}
	return ratio(roundsQPS(rounds[1]), roundsQPS(rounds[0])), nil
}

// frontEnd times the planning-side public calls directly, once per query:
// reuse.Analyze (fingerprinting) and session.EstimateBuilder (the plan-shape
// walk plus costmodel.QueryMemory, as admission calls it). Medians, in µs.
func frontEnd(d *tpch.Dataset) (analyzeUS, estimateUS float64) {
	var an, est []float64
	for rep := 0; rep < 5; rep++ {
		for q := 1; q <= numQueries; q++ {
			b := tpch.MustBuild(d, q, tpch.QueryOpts{})
			t0 := time.Now()
			reuse.Analyze(b.Plan())
			t1 := time.Now()
			session.EstimateBuilder(b, 1, serveUoT, blockBytes)
			an = append(an, us(t1.Sub(t0)))
			est = append(est, us(time.Since(t1)))
		}
	}
	return median(an), median(est)
}
