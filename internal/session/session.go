// Package session is the multi-query serving layer: N concurrent queries
// share one worker pool and one global temporary-block pool, gated by an
// admission controller that arbitrates a global memory budget (Section III-C
// taken cross-query: the scheduler policies that trade memory for pipelining
// inside one plan generalize to trading memory across plans).
package session

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/reuse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Config sizes a serving session. Zero fields take the documented defaults.
type Config struct {
	// Workers is the shared worker-pool size (default 4). Every admitted
	// query's work orders run on these goroutines.
	Workers int
	// PerQueryWorkers caps one query's in-flight work orders (default 1).
	// At 1 each query's schedule is exactly its single-query Workers=1
	// schedule, so results are bit-identical to sequential runs — the
	// serving experiments' golden check depends on it.
	PerQueryWorkers int
	// MaxConcurrent caps admitted queries (default = Workers).
	MaxConcurrent int
	// QueueDepth bounds the admission wait queue (default 2·MaxConcurrent);
	// arrivals beyond it are shed with a typed QueueFull rejection.
	QueueDepth int
	// MemoryBudget is the global temporary-block budget in bytes arbitrated
	// across queries (default 256 MB). Admission reserves each query's
	// estimate against it; the reservation also becomes the query's soft
	// per-run budget, so the scheduler's producer holds operate per query
	// within its slice.
	MemoryBudget int64
	// BlockBytes is the temporary-block size (default 128 KB). Temp blocks
	// use the row store.
	BlockBytes int
	// UoTBlocks is the default unit of transfer (default 1).
	UoTBlocks int
	// Trace, if non-nil, records every query into its own concurrent trace
	// section, span-labelled with the query id.
	Trace *trace.Tracer

	// SpillDir, if non-empty, attaches a disk-backed spill tier to the
	// shared temp-block pool: cold sealed blocks parked in edge buffers are
	// evicted to extent files whenever global live temp bytes exceed
	// SpillThreshold, and faulted back in at delivery. Admission then splits
	// each query's estimate into a RAM-resident share (charged against
	// MemoryBudget) and a spillable share (charged against a disk budget of
	// 8× MemoryBudget), so an over-RAM query that fits RAM+disk is admitted
	// instead of shed.
	SpillDir string
	// SpillThreshold is the live-byte level above which eviction runs
	// (default: MemoryBudget).
	SpillThreshold int64
	// SpillFaults, if non-nil, is consulted at the spill_write/spill_read
	// sites (deterministic chaos testing of the spill tier).
	SpillFaults *faults.Injector

	// Reuse attaches a cross-query result cache (see internal/reuse) to the
	// session: every submitted plan is fingerprint-probed before execution,
	// hits splice the cached block set in, and cold fills of the same
	// fingerprint are single-flighted so a burst of identical queries
	// computes once.
	Reuse bool
	// ReuseBudget is the cache's RAM budget, carved out of MemoryBudget so
	// admission control stays truthful about what the cache holds (default
	// MemoryBudget/4; capped so admission keeps at least MemoryBudget/8).
	ReuseBudget int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.PerQueryWorkers <= 0 {
		c.PerQueryWorkers = 1
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = c.Workers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 256 << 20
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = 128 << 10
	}
	if c.UoTBlocks <= 0 {
		c.UoTBlocks = 1
	}
	if c.SpillDir != "" && c.SpillThreshold <= 0 {
		c.SpillThreshold = c.MemoryBudget
	}
	if c.Reuse && c.ReuseBudget <= 0 {
		c.ReuseBudget = c.MemoryBudget / 4
	}
	if maxReuse := c.MemoryBudget - c.MemoryBudget/8; c.ReuseBudget > maxReuse {
		c.ReuseBudget = maxReuse
	}
	return c
}

// Request is one query submission.
type Request struct {
	// Build constructs the plan. Called once, before admission, so the
	// controller can estimate the query's memory from its shape.
	Build func() *engine.Builder
	// Label names the query in stats and traces.
	Label string
	// Priority is the admission and dispatch priority class (higher first).
	Priority int
	// Context, if non-nil, cancels the query — while queued (the waiter
	// abandons its slot) or while running (the PR3 run-cancel path).
	Context context.Context
	// Deadline, if positive, bounds queue wait + execution together.
	Deadline time.Duration
	// MemoryBudget overrides the per-query soft budget (0 = the admission
	// reservation).
	MemoryBudget int64
	// Workers overrides the per-query in-flight cap (0 = config default).
	// Values above 1 trade the bit-identical-schedule guarantee for
	// intra-query parallelism.
	Workers int
	// UoTBlocks overrides the default unit of transfer (0 = config default).
	UoTBlocks int
	// Faults, MaxAttempts and RetryBackoff pass through to the engine (see
	// engine.Options).
	Faults       *faults.Injector
	MaxAttempts  int
	RetryBackoff time.Duration
}

// Response is a completed query.
type Response struct {
	Table *storage.Table
	Run   *stats.Run
	// Query is the session-assigned query id (matches trace sections and
	// stats labels).
	Query int
	// Queued is the time spent waiting for admission; Elapsed the total
	// Submit latency including it.
	Queued  time.Duration
	Elapsed time.Duration
}

// Counters is a snapshot of the session's serving statistics.
type Counters struct {
	Submitted int64 // Submit calls
	Admitted  int64 // granted a slot (immediately or after queuing)
	Completed int64 // finished with a result
	Failed    int64 // ran but errored (faults, invariants)

	RejectedQueueFull  int64 // shed: wait queue at capacity
	RejectedOverBudget int64 // shed: estimate exceeds the global budget
	RejectedDeadline   int64 // shed: deadline blown before admission
	Cancelled          int64 // cancelled (queued or running)
	DeadlineExceeded   int64 // deadline hit while running
}

// Session serves concurrent queries over one worker pool, one shared
// temporary-block pool, and one admission-controlled memory budget.
type Session struct {
	cfg    Config
	pool   *core.WorkerPool
	gauge  stats.MemGauge // global live temp bytes across all queries
	blocks *storage.Pool  // shared root pool; queries run on Subpool views
	adm    admission
	reuse  *reuse.Cache // nil unless cfg.Reuse
	nextID int64
	closed int32

	cSubmitted, cAdmitted, cCompleted, cFailed             int64
	cRejQueue, cRejBudget, cRejDeadline, cCancel, cRunDead int64
}

// diskBudgetFactor sizes the reserved spillable bytes of a session with a
// spill tier, as a multiple of its MemoryBudget.
const diskBudgetFactor = 8

// Open starts a serving session. It panics if a configured spill directory
// cannot be set up — a server misconfiguration better surfaced at startup
// than as shed queries later.
func Open(cfg Config) *Session {
	cfg = cfg.withDefaults()
	s := &Session{cfg: cfg}
	s.pool = core.NewWorkerPool(cfg.Workers)
	s.blocks = storage.NewPool(&s.gauge, nil)
	var diskBudget int64
	if cfg.SpillDir != "" {
		scfg := storage.SpillConfig{Dir: cfg.SpillDir, Threshold: cfg.SpillThreshold}
		if inj := cfg.SpillFaults; inj != nil {
			scfg.WriteFault = func() error { return inj.At(faults.SpillWrite) }
			scfg.ReadFault = func() error { return inj.At(faults.SpillRead) }
		}
		if err := s.blocks.EnableSpill(scfg); err != nil {
			panic(fmt.Sprintf("session: %v", err))
		}
		diskBudget = diskBudgetFactor * cfg.MemoryBudget
	}
	admBudget := cfg.MemoryBudget
	if cfg.Reuse {
		// The cache's RAM comes out of the session budget: admission
		// arbitrates what's left, so cached entries and live queries can
		// never jointly promise more memory than the session has.
		admBudget -= cfg.ReuseBudget
		s.reuse = reuse.New(reuse.Config{Budget: cfg.ReuseBudget})
	}
	s.adm.init(admBudget, diskBudget, cfg.MaxConcurrent, cfg.QueueDepth)
	return s
}

// Submit runs one query to completion: estimate → admission (possibly
// queued, possibly shed with a typed error) → execution on the shared pool →
// release and grant to waiters. Safe for any number of concurrent callers.
func (s *Session) Submit(req Request) (*Response, error) {
	atomic.AddInt64(&s.cSubmitted, 1)
	if atomic.LoadInt32(&s.closed) != 0 {
		return nil, ErrSessionClosed
	}
	if req.Build == nil {
		return nil, fmt.Errorf("session: request has no Build")
	}
	b := req.Build()

	opts := engine.Options{
		Workers:        req.Workers,
		UoTBlocks:      req.UoTBlocks,
		TempBlockBytes: s.cfg.BlockBytes,
		TempFormat:     storage.RowStore,
		Faults:         req.Faults,
		MaxAttempts:    req.MaxAttempts,
		RetryBackoff:   req.RetryBackoff,
		Trace:          s.cfg.Trace,
		Reuse:          s.reuse,
		Exec:           s.pool,
		Pool:           s.blocks,
		Priority:       req.Priority,
	}
	if opts.Workers <= 0 {
		opts.Workers = s.cfg.PerQueryWorkers
	}
	if opts.UoTBlocks <= 0 {
		opts.UoTBlocks = s.cfg.UoTBlocks
	}
	// The estimate prices edge buffers at the UoT the run will start them at.
	// With a spill tier it splits: the RAM-resident share competes for the
	// memory budget, the spillable share for the disk budget.
	var est, spillable int64
	uot, bb := opts.UoTBlocks, int64(s.cfg.BlockBytes)
	if s.cfg.SpillDir != "" {
		est, spillable = EstimateBuilderSplit(b, opts.Workers, uot, bb)
	} else {
		est = EstimateBuilder(b, opts.Workers, uot, bb)
	}

	ctx := req.Context
	if req.Deadline > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Deadline)
		defer cancel()
	}

	// Single-flight on the plan fingerprint: if an identical cold query is
	// already filling the cache, wait for it instead of computing the same
	// result concurrently — on wake the engine's probe hits. Leaders (and
	// fingerprints the cache already holds) proceed immediately; a waiter
	// whose leader failed to fill simply runs cold itself.
	if s.reuse != nil {
		if fp, ok := reuse.RootFingerprint(b.Plan()); ok && !s.reuse.Has(fp) {
			leader, wait, done := s.reuse.Flight(fp)
			if leader {
				defer done()
			} else if err := wait(ctx); err != nil {
				s.countAdmitErr(err)
				return nil, err
			}
		}
	}

	start := time.Now()
	if err := s.adm.admit(ctx, req.Priority, est, spillable); err != nil {
		s.countAdmitErr(err)
		return nil, err
	}
	queued := time.Since(start)
	atomic.AddInt64(&s.cAdmitted, 1)
	defer s.adm.release(est, spillable)

	opts.Context = ctx
	opts.MemoryBudget = req.MemoryBudget
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = est
	}
	opts.QueryID = int(atomic.AddInt64(&s.nextID, 1))
	opts.TraceLabel = req.Label
	if opts.TraceLabel == "" {
		opts.TraceLabel = fmt.Sprintf("q%d", opts.QueryID)
	}
	res, err := engine.Execute(b, opts)
	if err != nil {
		s.countRunErr(err)
		return nil, err
	}
	atomic.AddInt64(&s.cCompleted, 1)
	return &Response{
		Table:   res.Table,
		Run:     res.Run,
		Query:   opts.QueryID,
		Queued:  queued,
		Elapsed: time.Since(start),
	}, nil
}

func (s *Session) countAdmitErr(err error) {
	var ae *AdmissionError
	switch {
	case errors.As(err, &ae):
		switch ae.Reason {
		case QueueFull:
			atomic.AddInt64(&s.cRejQueue, 1)
		case OverBudget:
			atomic.AddInt64(&s.cRejBudget, 1)
		case DeadlineBlown:
			atomic.AddInt64(&s.cRejDeadline, 1)
		}
	case errors.Is(err, core.ErrQueryCancelled):
		atomic.AddInt64(&s.cCancel, 1)
	}
}

func (s *Session) countRunErr(err error) {
	switch {
	case errors.Is(err, core.ErrDeadlineExceeded):
		atomic.AddInt64(&s.cRunDead, 1)
	case errors.Is(err, core.ErrQueryCancelled):
		atomic.AddInt64(&s.cCancel, 1)
	default:
		atomic.AddInt64(&s.cFailed, 1)
	}
}

// Counters snapshots the serving statistics.
func (s *Session) Counters() Counters {
	return Counters{
		Submitted:          atomic.LoadInt64(&s.cSubmitted),
		Admitted:           atomic.LoadInt64(&s.cAdmitted),
		Completed:          atomic.LoadInt64(&s.cCompleted),
		Failed:             atomic.LoadInt64(&s.cFailed),
		RejectedQueueFull:  atomic.LoadInt64(&s.cRejQueue),
		RejectedOverBudget: atomic.LoadInt64(&s.cRejBudget),
		RejectedDeadline:   atomic.LoadInt64(&s.cRejDeadline),
		Cancelled:          atomic.LoadInt64(&s.cCancel),
		DeadlineExceeded:   atomic.LoadInt64(&s.cRunDead),
	}
}

// Live returns the live temporary-block bytes across all queries (the global
// gauge the admission budget arbitrates). Zero when the session is idle —
// the cross-query zero-leak invariant.
func (s *Session) Live() int64 { return s.gauge.Live() }

// PendingPartials exposes the shared pool's checked-in partial blocks (zero
// when idle).
func (s *Session) PendingPartials() int { return s.blocks.PendingPartials() }

// Occupancy reports the admission controller's current state: admitted
// queries in flight, waiters queued, and reserved budget bytes.
func (s *Session) Occupancy() (inflight, waiting int, reserved int64) {
	return s.adm.snapshot()
}

// SpillStats snapshots the shared pool's spill-tier counters (zero without a
// spill tier). DiskLive and Outstanding are 0 whenever the session is idle —
// the spill-file side of the cross-query zero-leak invariant.
func (s *Session) SpillStats() storage.SpillCounters { return s.blocks.SpillCounters() }

// ReuseStats snapshots the result cache's counters (zero without a cache).
// Pins is 0 whenever the session is idle — the cache side of the cross-query
// zero-leak invariant.
func (s *Session) ReuseStats() reuse.Counters {
	if s.reuse == nil {
		return reuse.Counters{}
	}
	return s.reuse.Counters()
}

// Close rejects queued waiters, waits for running queries to finish, stops
// the worker pool, and tears down the spill tier (extent files and the
// per-session spill directory go with it — the drain happens first, so no
// query can still touch the tier). Submit calls after Close fail with
// ErrSessionClosed.
func (s *Session) Close() {
	if !atomic.CompareAndSwapInt32(&s.closed, 0, 1) {
		return
	}
	s.adm.closeAndDrain()
	if s.reuse != nil {
		// Running queries have drained, so no entry may still be pinned; a
		// pin leak here is a bug on the engine's unpin path.
		if err := s.reuse.Close(); err != nil {
			panic(fmt.Sprintf("session: %v", err))
		}
	}
	s.blocks.CloseSpill()
	s.pool.Close()
}
