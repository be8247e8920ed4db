// Package uotctl closes the feedback loop on the paper's central knob: a
// per-edge controller that adjusts each pipelined edge's unit of transfer
// bidirectionally at delivery boundaries, from the gauges the scheduler
// already maintains (buffered blocks vs. the UoT threshold, stall time of
// the drained blocks, consumer work-order service time, scheduler queue
// depth, memory pressure).
//
// The policy is AIMD-shaped with hysteresis: consecutive same-direction
// votes must reach a streak threshold before the controller acts, a cooldown
// follows every action, and the resulting UoT is clamped to [Floor,
// Ceiling]. Raising is the consumer-falling-behind / memory-pressure
// direction (coarser transfers, less scheduling churn — the high-UoT regime
// of Figs. 9/10); lowering is the consumer-starved direction (finer
// transfers so the consumer starts sooner — the low-UoT advantage of
// Fig. 7 at small blocks). The PR3 memory-pressure raise is one input to
// this policy rather than a separate code path: Pressure bypasses
// hysteresis (it is an emergency), doubles like the legacy path did, snaps
// to Table past the ceiling, and suppresses Lower votes for a while so the
// controller does not immediately undo a degradation the scheduler needed.
//
// Cold edges that do not declare a per-edge UoT start at the Section V
// analytical model's prediction (see Prior) instead of the run default, so
// the feedback loop starts near the regime the model expects rather than
// discovering it from scratch.
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

// Config tunes the controller. The zero value gets sensible defaults from
// withDefaults; engine.Execute fills Workers/BlockBytes/DefaultUoT from the
// run's options when left zero.
type Config struct {
	// Workers (T) and BlockBytes (the temporary-block size) parameterize
	// the Section V model prior and the queue-saturation raise signal.
	Workers    int
	BlockBytes int
	// DefaultUoT is the run's static default; it becomes the starting UoT
	// when DisablePrior is set.
	DefaultUoT int

	// Floor and Ceiling clamp feedback decisions. Defaults: 1 and 1<<20
	// (the latter matching the scheduler's pre-snap degradation cap), so
	// feedback raises never silently reach the terminal Table regime —
	// only the memory-pressure path may snap.
	Floor   int
	Ceiling int
	// Hysteresis is how many consecutive same-direction votes an edge needs
	// before the controller acts (default 3). Mixed signals decay streaks
	// instead of resetting them, so a noisy gauge does not lock the edge.
	Hysteresis int
	// Cooldown is how many observations after an action the edge holds
	// regardless of votes (default 2), letting the new operating point show
	// up in the gauges before it is judged.
	Cooldown int
	// BacklogFactor: a delivery that still leaves >= BacklogFactor×UoT
	// blocks buffered votes Raise — the consumer is not keeping up with the
	// producer at this granularity (default 3).
	BacklogFactor int
	// StallFrac: a delivery whose blocks spent more than StallFrac of the
	// inter-delivery interval waiting behind the threshold — while the
	// consumer had idle capacity — votes Lower (default 0.6).
	StallFrac float64
	// PressureHold is how many observations Lower votes stay suppressed
	// after a memory-pressure raise (default 16): the degradation must not
	// be undone while the run is still near its budget.
	PressureHold int
	// DisablePrior starts cold edges at DefaultUoT instead of the
	// analytical-model prior.
	DisablePrior bool
	// SpillBudget, when positive, is the RAM threshold of an attached spill
	// tier: the prior then prices the Section V-C persistent-store costs in
	// (see PriorWithSpill), starting cold edges finer because a deep
	// backlog is no longer just cache misses but device round trips.
	SpillBudget int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = 128 << 10
	}
	if c.DefaultUoT <= 0 {
		c.DefaultUoT = 1
	}
	if c.Floor <= 0 {
		c.Floor = 1
	}
	if c.Ceiling <= 0 {
		c.Ceiling = DefaultCeiling
	}
	if c.Ceiling < c.Floor {
		c.Ceiling = c.Floor
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2
	}
	if c.BacklogFactor <= 0 {
		c.BacklogFactor = 3
	}
	if c.StallFrac <= 0 {
		c.StallFrac = 0.6
	}
	if c.PressureHold <= 0 {
		c.PressureHold = 16
	}
	return c
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

// edge is per-edge controller state.
type edge struct {
	uot          int
	raiseStreak  int
	lowerStreak  int
	cooldown     int
	pressureHold int
}

// Totals counts decisions across all edges (tests and reports).
type Totals struct {
	Raises, Lowers, Holds, Snaps int64
}

// Controller adapts the UoT of registered edges. Not safe for concurrent
// use: it belongs to the scheduler goroutine of one run.
type Controller struct {
	cfg   Config
	prior int
	edges []edge
	tot   Totals
}

// New returns a controller for cfg.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg}
	start := Prior(cfg.BlockBytes, cfg.Workers)
	if cfg.SpillBudget > 0 {
		start = PriorWithSpill(cfg.BlockBytes, cfg.Workers, cfg.SpillBudget)
	}
	if cfg.DisablePrior {
		start = cfg.DefaultUoT
	}
	c.prior = clamp(start, cfg.Floor, cfg.Ceiling)
	return c
}

// Prior returns the model-seeded starting UoT for edges that do not declare
// their own (see the package-level Prior function).
func (c *Controller) Prior() int { return c.prior }

// AddEdge registers an edge starting at start and returns its index.
func (c *Controller) AddEdge(start int) int {
	c.edges = append(c.edges, edge{uot: clamp(start, c.cfg.Floor, Table)})
	return len(c.edges) - 1
}

// UoT returns edge i's current UoT.
func (c *Controller) UoT(i int) int { return c.edges[i].uot }

// Totals returns the decision counts so far.
func (c *Controller) Totals() Totals { return c.tot }

// Observe feeds one delivery-boundary observation for edge i and returns the
// decision. Edges at Table are terminal and always hold.
func (c *Controller) Observe(i int, s Signals) Action {
	e := &c.edges[i]
	if e.uot == Table {
		return c.hold(e)
	}
	if s.MemPressure {
		e.pressureHold = c.cfg.PressureHold
	} else if e.pressureHold > 0 {
		e.pressureHold--
	}
	if e.cooldown > 0 {
		e.cooldown--
		return c.hold(e)
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
	if e.raiseStreak >= c.cfg.Hysteresis {
		return c.raise(e)
	}
	if e.lowerStreak >= c.cfg.Hysteresis {
		return c.lower(e)
	}
	return c.hold(e)
}

// DefaultCeiling is Config.Ceiling's default, and the ceiling the scheduler
// applies to static (controller-less) edges under memory pressure.
const DefaultCeiling = 1 << 20

// PressureStep is the memory-degradation rule, pure: double the UoT (the PR3
// semantics), snap to Table once it has reached the ceiling, hold at Table.
func PressureStep(uot, ceiling int) Action {
	switch {
	case uot == Table:
		return Action{Dir: Hold, UoT: Table}
	case uot >= ceiling:
		return Action{Dir: Snap, UoT: Table}
	}
	return Action{Dir: Raise, UoT: uot * 2}
}

// Pressure is the scheduler's memory-degradation entry point for edge i: an
// emergency that bypasses hysteresis and cooldown, takes one PressureStep,
// and suppresses Lower votes for the next PressureHold observations.
func (c *Controller) Pressure(i int) Action {
	e := &c.edges[i]
	e.pressureHold = c.cfg.PressureHold
	a := PressureStep(e.uot, c.cfg.Ceiling)
	switch a.Dir {
	case Hold:
		return c.hold(e)
	case Snap:
		c.tot.Snaps++
	default:
		c.tot.Raises++
	}
	e.uot = a.UoT
	c.afterAct(e)
	return a
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
	if s.FaultedIn > 0 && e.uot > c.cfg.Floor {
		return Lower
	}
	if s.MemPressure {
		return Raise
	}
	if s.Buffered >= c.cfg.BacklogFactor*e.uot {
		return Raise
	}
	if s.QueueDepth >= 8*c.cfg.Workers {
		return Raise
	}
	// Finer: the drained blocks spent most of the inter-delivery interval
	// waiting behind the threshold while the consumer had idle capacity
	// (service time below the interval) and no backlog remains — the
	// consumer could have started sooner at a smaller UoT. Suppressed
	// after a pressure raise.
	if e.pressureHold > 0 || s.Delivered == 0 || e.uot <= c.cfg.Floor {
		return Hold
	}
	if s.Buffered < e.uot && s.IntervalNS > 0 &&
		float64(s.StallNS) > c.cfg.StallFrac*float64(s.IntervalNS) &&
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
	if nu > c.cfg.Ceiling {
		nu = c.cfg.Ceiling
	}
	if nu == e.uot {
		return c.hold(e)
	}
	e.uot = nu
	c.afterAct(e)
	c.tot.Raises++
	return Action{Dir: Raise, UoT: nu}
}

// lower is the multiplicative decrease: halve, clamped to the floor.
func (c *Controller) lower(e *edge) Action {
	nu := e.uot / 2
	if nu < c.cfg.Floor {
		nu = c.cfg.Floor
	}
	if nu == e.uot {
		return c.hold(e)
	}
	e.uot = nu
	c.afterAct(e)
	c.tot.Lowers++
	return Action{Dir: Lower, UoT: nu}
}

func (c *Controller) hold(e *edge) Action {
	c.tot.Holds++
	return Action{Dir: Hold, UoT: e.uot}
}

// afterAct resets streaks and arms the post-action cooldown.
func (c *Controller) afterAct(e *edge) {
	e.raiseStreak, e.lowerStreak = 0, 0
	e.cooldown = c.cfg.Cooldown
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
	return priorScan(blockBytes, workers, 0)
}

// PriorWithSpill is Prior with the Section V-C persistent store priced in:
// each candidate group size additionally pays the expected spill penalty
// (costmodel.SpillCost — eviction probability under the RAM budget times the
// device round trip). Large groups that the in-memory model tolerates become
// expensive once they risk touching the store, so the spill-aware prior is
// never coarser than the in-memory one — the paper's "with a persistent
// store, pipelining wins by orders of magnitude" translated into a starting
// point.
func PriorWithSpill(blockBytes, workers int, spillBudget int64) int {
	return priorScan(blockBytes, workers, spillBudget)
}

func priorScan(blockBytes, workers int, spillBudget int64) int {
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
