// Package uotctl closes the feedback loop on the paper's central knob: a
// per-edge controller that adjusts each pipelined edge's unit of transfer
// bidirectionally at delivery boundaries, from the gauges the scheduler
// already maintains (buffered blocks vs. the UoT threshold, stall time of
// the drained blocks, consumer work-order service time, scheduler queue
// depth, memory pressure).
//
// The policy is AIMD-shaped with hysteresis: consecutive same-direction
// votes must reach a streak threshold before the controller acts, a cooldown
// follows every action, and the resulting UoT is clamped to [floor,
// ceiling]. Raising is the consumer-falling-behind / memory-pressure
// direction (coarser transfers, less scheduling churn — the high-UoT regime
// of Figs. 9/10); lowering is the consumer-starved direction (finer
// transfers so the consumer starts sooner — the low-UoT advantage of
// Fig. 7 at small blocks). Pressure, the scheduler's memory-degradation
// raise, bypasses hysteresis (it is an emergency), doubles, snaps to Table
// past the ceiling, and suppresses Lower votes for a while so the controller
// does not immediately undo a degradation the scheduler needed.
//
// Every run owns one controller, and it is the only code that computes a new
// UoT. An adaptive run (New) starts cold edges that do not declare a per-edge
// UoT at the Section V analytical model's prediction (see Prior), so the
// feedback loop starts near the regime the model expects, and the scheduler
// observes it at every delivery boundary. A static run (NewStatic) starts
// them at the run default and is never observed: its edges move only through
// Pressure.
//
// The controller is driven exclusively from the single scheduler goroutine
// and holds no locks; decisions are pure functions of the signal sequence,
// which is what makes controller behavior pinnable by a golden test.
package uotctl

import (
	"math"

	"repro/internal/costmodel"
)

// Table mirrors core.UoTTable ("the whole intermediate table") without
// importing core; an edge at Table is out of the feedback loop for the rest
// of the run.
const Table = int(^uint(0) >> 1)

// Dir is a controller decision direction.
type Dir int8

// Decision directions.
const (
	// Hold leaves the edge's UoT unchanged.
	Hold Dir = iota
	// Raise coarsens the edge (larger UoT).
	Raise
	// Lower refines the edge (smaller UoT).
	Lower
	// Snap sets the edge to Table — the terminal blocking regime, reached
	// only through the memory-pressure path past the ceiling.
	Snap
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case Hold:
		return "hold"
	case Raise:
		return "raise"
	case Lower:
		return "lower"
	case Snap:
		return "snap"
	}
	return "?"
}

// Config sizes a controller from the run it belongs to. Non-positive fields
// take defaults: one worker, 128 KB blocks, UoT 1, no spill tier.
type Config struct {
	// Workers (T) and BlockBytes (the temporary-block size) parameterize
	// the Section V model prior and the queue-saturation raise signal.
	Workers    int
	BlockBytes int
	// DefaultUoT is the run's static default: where a NewStatic
	// controller's undeclared edges start.
	DefaultUoT int
	// SpillBudget, when positive, is the RAM threshold of an attached spill
	// tier: the prior then prices the Section V-C persistent-store costs in
	// (see PriorWithSpill), starting cold edges finer because a deep
	// backlog is no longer just cache misses but device round trips.
	SpillBudget int64
}

// policy holds the feedback constants. Runs always use defaultPolicy; only
// this package's tests substitute smaller values so decision sequences are
// short enough to trace by hand.
type policy struct {
	// floor and ceiling clamp feedback decisions, so feedback raises never
	// silently reach the terminal Table regime — only Pressure may snap.
	floor, ceiling int
	// hysteresis is how many consecutive same-direction votes an edge needs
	// before the controller acts. Mixed signals decay streaks instead of
	// resetting them, so a noisy gauge does not lock the edge.
	hysteresis int
	// cooldown is how many observations after an action the edge holds
	// regardless of votes, letting the new operating point show up in the
	// gauges before it is judged.
	cooldown int
	// backlogFactor: a delivery that still leaves >= backlogFactor×UoT
	// blocks buffered votes Raise — the consumer is not keeping up with the
	// producer at this granularity.
	backlogFactor int
	// stallFrac: a delivery whose blocks spent more than stallFrac of the
	// inter-delivery interval waiting behind the threshold — while the
	// consumer had idle capacity — votes Lower.
	stallFrac float64
	// pressureHold is how many observations Lower votes stay suppressed
	// after a memory-pressure raise: the degradation must not be undone
	// while the run is still near its budget.
	pressureHold int
}

// DefaultCeiling is the UoT past which memory pressure snaps an edge to
// Table instead of doubling it again.
const DefaultCeiling = 1 << 20

var defaultPolicy = policy{
	floor: 1, ceiling: DefaultCeiling,
	hysteresis: 3, cooldown: 2, backlogFactor: 3, stallFrac: 0.6, pressureHold: 16,
}

// Signals is one delivery-boundary observation of an edge, assembled by the
// scheduler from gauges it already tracks.
type Signals struct {
	// Buffered is how many blocks remain buffered on the edge after the
	// delivery; Delivered is how many the delivery handed over.
	Buffered  int
	Delivered int
	// StallNS is how long the drained blocks waited buffered behind the
	// UoT threshold; IntervalNS is the time since the previous delivery
	// (0 on the first).
	StallNS    int64
	IntervalNS int64
	// ServiceNS is the summed consumer work-order service time attributed
	// to this edge since the previous observation — the "did the consumer
	// have idle capacity" side of the Lower vote.
	ServiceNS int64
	// QueueDepth is the scheduler queue depth at the delivery.
	QueueDepth int
	// MemPressure reports whether live temporary bytes exceed the budget.
	MemPressure bool
	// FaultedIn is how many of the delivered blocks had to be read back
	// from the spill tier's disk extents before this delivery could happen.
	FaultedIn int
}

// Action is a controller decision: the direction taken and the edge's UoT
// after applying it (unchanged for Hold).
type Action struct {
	Dir Dir
	UoT int
}

// Decisions counts the decisions taken on one edge.
type Decisions struct {
	Raises, Lowers, Holds, Snaps int64
}

// edge is per-edge controller state: the current UoT, where it started, every
// decision taken on it, and the hysteresis bookkeeping.
type edge struct {
	uot, start   int
	dec          Decisions
	raiseStreak  int
	lowerStreak  int
	cooldown     int
	pressureHold int
}

// Controller owns the UoT of every registered edge. Not safe for concurrent
// use: it belongs to the scheduler goroutine of one run.
type Controller struct {
	pol      policy
	workers  int
	adaptive bool
	prior    int
	edges    []edge
}

func newController(workers int) *Controller {
	if workers <= 0 {
		workers = 1
	}
	return &Controller{pol: defaultPolicy, workers: workers}
}

// New returns the controller of an adaptive run: undeclared edges start at
// the Section V model prior for cfg, and the scheduler feeds Observe at every
// delivery boundary.
func New(cfg Config) *Controller {
	c := newController(cfg.Workers)
	c.adaptive = true
	c.prior = PriorWithSpill(cfg.BlockBytes, cfg.Workers, cfg.SpillBudget)
	return c
}

// NewStatic returns the controller of a static run: undeclared edges start at
// cfg.DefaultUoT and stay there unless memory pressure degrades them
// (Pressure); the scheduler never calls Observe.
func NewStatic(cfg Config) *Controller {
	c := newController(cfg.Workers)
	c.prior = cfg.DefaultUoT
	if c.prior <= 0 {
		c.prior = 1
	}
	return c
}

// Adaptive reports whether the scheduler should feed Observe: false for a
// NewStatic controller, whose run then needs no delivery timestamps at all.
func (c *Controller) Adaptive() bool { return c.adaptive }

// Prior returns the starting UoT for edges that do not declare their own.
func (c *Controller) Prior() int { return c.prior }

// AddEdge registers an edge starting at start and returns its index.
func (c *Controller) AddEdge(start int) int {
	start = clamp(start, c.pol.floor, Table)
	c.edges = append(c.edges, edge{uot: start, start: start})
	return len(c.edges) - 1
}

// UoT returns edge i's current UoT.
func (c *Controller) UoT(i int) int { return c.edges[i].uot }

// Edge returns edge i's trajectory so far: the UoT it started at and the
// decisions taken on it (UoT is where it stands now).
func (c *Controller) Edge(i int) (start int, decisions Decisions) {
	return c.edges[i].start, c.edges[i].dec
}

// Observe feeds one delivery-boundary observation for edge i and returns the
// decision. Edges at Table are terminal and always hold.
func (c *Controller) Observe(i int, s Signals) Action {
	e := &c.edges[i]
	if e.uot == Table {
		return hold(e)
	}
	if s.MemPressure {
		e.pressureHold = c.pol.pressureHold
	} else if e.pressureHold > 0 {
		e.pressureHold--
	}
	if e.cooldown > 0 {
		e.cooldown--
		return hold(e)
	}
	switch c.vote(e, s) {
	case Raise:
		e.raiseStreak++
		e.lowerStreak = 0
	case Lower:
		e.lowerStreak++
		e.raiseStreak = 0
	default:
		if e.raiseStreak > 0 {
			e.raiseStreak--
		}
		if e.lowerStreak > 0 {
			e.lowerStreak--
		}
	}
	if e.raiseStreak >= c.pol.hysteresis {
		return c.raise(e)
	}
	if e.lowerStreak >= c.pol.hysteresis {
		return c.lower(e)
	}
	return hold(e)
}

// Pressure is the scheduler's memory-degradation entry point for edge i —
// the only way a static run's UoT moves. An emergency that bypasses
// hysteresis and cooldown: double the UoT, snap to Table once it has reached
// the ceiling, hold at Table; then suppress Lower votes for the next
// pressureHold observations.
func (c *Controller) Pressure(i int) Action {
	e := &c.edges[i]
	e.pressureHold = c.pol.pressureHold
	switch {
	case e.uot == Table:
		return hold(e)
	case e.uot >= c.pol.ceiling:
		e.uot = Table
		e.dec.Snaps++
		c.afterAct(e)
		return Action{Dir: Snap, UoT: Table}
	}
	e.uot *= 2
	e.dec.Raises++
	c.afterAct(e)
	return Action{Dir: Raise, UoT: e.uot}
}

// vote classifies one observation. Raise wins ties: degrading to coarser
// transfers is recoverable, starving the consumer of a backlogged edge is
// not.
func (c *Controller) vote(e *edge, s Signals) Dir {
	// Coarser: memory pressure (fewer, larger transfers reduce scheduling
	// churn while consumers drain), a backlog the consumer is not clearing
	// at this granularity, or a scheduler queue saturated far past the
	// worker count (the heavy-concurrency regime of Figs. 9/10, where
	// per-delivery overhead dominates).
	// Finest first: delivered blocks that had to be faulted in from disk
	// mean this edge's backlog outgrew RAM, and Section V-C's answer is to
	// pipeline — every buffered block is a potential device round trip, so
	// the spill-rate gauge outvotes even memory pressure (a raise would
	// deepen the very backlog that is spilling). Deliberately not gated by
	// pressureHold: the pressure raise is usually what caused the spill.
	if s.FaultedIn > 0 && e.uot > c.pol.floor {
		return Lower
	}
	if s.MemPressure {
		return Raise
	}
	if s.Buffered >= c.pol.backlogFactor*e.uot {
		return Raise
	}
	if s.QueueDepth >= 8*c.workers {
		return Raise
	}
	// Finer: the drained blocks spent most of the inter-delivery interval
	// waiting behind the threshold while the consumer had idle capacity
	// (service time below the interval) and no backlog remains — the
	// consumer could have started sooner at a smaller UoT. Suppressed
	// after a pressure raise.
	if e.pressureHold > 0 || s.Delivered == 0 || e.uot <= c.pol.floor {
		return Hold
	}
	if s.Buffered < e.uot && s.IntervalNS > 0 &&
		float64(s.StallNS) > c.pol.stallFrac*float64(s.IntervalNS) &&
		s.ServiceNS <= s.IntervalNS {
		return Lower
	}
	return Hold
}

// raise is the additive-ish feedback step: +50% (at least +1), clamped to
// the ceiling. Feedback never snaps to Table — only Pressure may.
func (c *Controller) raise(e *edge) Action {
	step := e.uot / 2
	if step < 1 {
		step = 1
	}
	nu := e.uot + step
	if nu > c.pol.ceiling {
		nu = c.pol.ceiling
	}
	if nu == e.uot {
		return hold(e)
	}
	e.uot = nu
	c.afterAct(e)
	e.dec.Raises++
	return Action{Dir: Raise, UoT: nu}
}

// lower is the multiplicative decrease: halve, clamped to the floor.
func (c *Controller) lower(e *edge) Action {
	nu := e.uot / 2
	if nu < c.pol.floor {
		nu = c.pol.floor
	}
	if nu == e.uot {
		return hold(e)
	}
	e.uot = nu
	c.afterAct(e)
	e.dec.Lowers++
	return Action{Dir: Lower, UoT: nu}
}

func hold(e *edge) Action {
	e.dec.Holds++
	return Action{Dir: Hold, UoT: e.uot}
}

// afterAct resets streaks and arms the post-action cooldown.
func (c *Controller) afterAct(e *edge) {
	e.raiseStreak, e.lowerStreak = 0, 0
	e.cooldown = c.pol.cooldown
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Prior consults the Section V analytical model for a cold edge's starting
// UoT: it scans power-of-two block-group sizes and picks the one minimizing
// the modeled per-byte transfer overhead, blending the low- and high-UoT
// regime costs by p1' = min(1, 2BT/|L3|) — the model's own regime-switch
// probability. Small B·T relative to the L3 keeps the low-UoT cost dominant
// (pipelining wins, Fig. 7 at 128 KB); once B·T outgrows the cache the
// blend saturates and larger groups stop paying, matching the paper's
// "indistinguishable at 2 MB" observation.
func Prior(blockBytes, workers int) int {
	return PriorWithSpill(blockBytes, workers, 0)
}

// PriorWithSpill is Prior with the Section V-C persistent store priced in
// when spillBudget is positive: each candidate group size additionally pays
// the expected spill penalty (costmodel.SpillCost — eviction probability
// under the RAM budget times the device round trip). Large groups that the
// in-memory model tolerates become expensive once they risk touching the
// store, so the spill-aware prior is never coarser than the in-memory one —
// the paper's "with a persistent store, pipelining wins by orders of
// magnitude" translated into a starting point.
func PriorWithSpill(blockBytes, workers int, spillBudget int64) int {
	if blockBytes <= 0 {
		blockBytes = 128 << 10
	}
	if workers <= 0 {
		workers = 1
	}
	best, bestCost := 1, math.Inf(1)
	for blocks := 1; blocks <= 1024; blocks <<= 1 {
		p := costmodel.Default(int64(blocks)*int64(blockBytes), workers)
		p.NProbeIn = 1
		w := p.P1Prime()
		cost := ((1-w)*p.LowRegime().LowUoTExtra() + w*p.HighRegime().HighUoTExtra()) /
			float64(p.B)
		if spillBudget > 0 {
			cost += costmodel.SpillCost(p.B, workers, spillBudget) / float64(p.B)
		}
		if cost < bestCost {
			best, bestCost = blocks, cost
		}
	}
	return best
}
