// Package uotctl is an AIMD feedback controller over delivery-boundary
// gauges that would move a pipelined edge's UoT. The engine does not use it:
// every edge keeps core.ResolveUoT's value for the whole run. The only
// caller left is benchmark/kernels.go, which times one observe-decide step
// as uotctl.observe_ns; the package goes in the next change to the
// benchmark.
//
// A Controller holds no locks of its own.
package uotctl

// Table mirrors core.UoTTable ("the whole intermediate table") without
// importing core; an edge at Table always holds.
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
	}
	return "?"
}

// Config sizes a controller from the run it belongs to. Non-positive fields
// take defaults: one worker, UoT 1.
type Config struct {
	// Workers (T) sizes Observe's queue-saturation raise signal. BlockBytes
	// is read by nothing in this package; benchmark/kernels.go sets it.
	Workers    int
	BlockBytes int
	// DefaultUoT is the run's default: where edges that declare no UoT of
	// their own start. Table passes unclamped.
	DefaultUoT int
}

// policy holds the feedback constants. Runs always use defaultPolicy; only
// this package's tests substitute smaller values so decision sequences are
// short enough to trace by hand.
type policy struct {
	// floor and ceiling clamp feedback decisions, so feedback raises never
	// reach the terminal Table regime.
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
}

// defaultCeiling is the largest UoT a feedback raise reaches.
const defaultCeiling = 1 << 20

var defaultPolicy = policy{
	floor: 1, ceiling: defaultCeiling,
	hysteresis: 3, cooldown: 2, backlogFactor: 3, stallFrac: 0.6,
}

// Signals is one delivery-boundary observation of an edge.
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
}

// Action is a controller decision: the direction taken and the edge's UoT
// after applying it (unchanged for Hold).
type Action struct {
	Dir Dir
	UoT int
}

// edge is per-edge controller state: the current UoT and the hysteresis
// bookkeeping.
type edge struct {
	uot         int
	raiseStreak int
	lowerStreak int
	cooldown    int
}

// Controller owns the UoT of every registered edge. Not safe for concurrent
// use.
type Controller struct {
	pol        policy
	workers    int
	defaultUoT int
	edges      []edge
}

// New returns a controller: edges that declare no UoT start at
// cfg.DefaultUoT.
func New(cfg Config) *Controller {
	c := &Controller{pol: defaultPolicy, workers: max(cfg.Workers, 1), defaultUoT: cfg.DefaultUoT}
	if c.defaultUoT <= 0 {
		c.defaultUoT = 1
	}
	return c
}

// AddEdge registers an edge that declares the given UoT (0 = the run
// default) and returns its index.
func (c *Controller) AddEdge(declared int) int {
	start := c.defaultUoT
	if declared != 0 {
		start = clamp(declared, c.pol.floor, Table)
	}
	c.edges = append(c.edges, edge{uot: start})
	return len(c.edges) - 1
}

// UoT returns edge i's current UoT.
func (c *Controller) UoT(i int) int { return c.edges[i].uot }

// Observe feeds one delivery-boundary observation for edge i and returns the
// decision. Edges at Table are terminal and always hold.
func (c *Controller) Observe(i int, s Signals) Action {
	e := &c.edges[i]
	if e.uot == Table {
		return hold(e)
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

// vote classifies one observation. Raise wins ties: degrading to coarser
// transfers is recoverable, starving the consumer of a backlogged edge is
// not.
func (c *Controller) vote(e *edge, s Signals) Dir {
	// Coarser: a backlog the consumer is not clearing at this granularity,
	// or a scheduler queue saturated far past the worker count (the
	// heavy-concurrency regime of Figs. 9/10, where per-delivery overhead
	// dominates).
	if s.Buffered >= c.pol.backlogFactor*e.uot {
		return Raise
	}
	if s.QueueDepth >= 8*c.workers {
		return Raise
	}
	// Finer: the drained blocks spent most of the inter-delivery interval
	// waiting behind the threshold while the consumer had idle capacity
	// (service time below the interval) and no backlog remains — the
	// consumer could have started sooner at a smaller UoT.
	if s.Delivered == 0 || e.uot <= c.pol.floor {
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
// the ceiling.
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
	return Action{Dir: Lower, UoT: nu}
}

func hold(e *edge) Action { return Action{Dir: Hold, UoT: e.uot} }

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
