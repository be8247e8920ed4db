package uotctl

import "testing"

// newTest returns a 4-worker controller under a small, fully-explicit policy
// so decisions are easy to trace by hand: hysteresis 2, cooldown 1, backlog
// factor 2. Every test registers its edges with an explicit starting UoT.
func newTest() *Controller {
	c := New(Config{Workers: 4})
	c.pol = policy{
		floor: 1, ceiling: 64, hysteresis: 2, cooldown: 1,
		backlogFactor: 2, stallFrac: 0.5, pressureHold: 3,
	}
	return c
}

func TestDefaults(t *testing.T) {
	c := New(Config{})
	pol := c.pol
	if pol.floor != 1 || pol.ceiling != 1<<20 || pol.hysteresis != 3 ||
		pol.cooldown != 2 || pol.backlogFactor != 3 || pol.pressureHold != 16 {
		t.Fatalf("unexpected defaults: %+v", pol)
	}
	if !c.Adaptive() || c.workers != 1 {
		t.Fatalf("New(Config{}) = %+v, want an adaptive one-worker controller", c)
	}
	if p := c.Prior(); p < 1 || p > 1024 {
		t.Fatalf("prior out of range: %d", p)
	}
}

func TestPriorModelSeeded(t *testing.T) {
	// The model prior must prefer small groups while B·T fits the L3 (the
	// Fig. 7 low-UoT advantage at 128 KB / T=20) and never exceed the scan
	// range.
	small := Prior(128<<10, 20)
	if small > 4 {
		t.Fatalf("128KB/T=20 prior = %d, want a small group (<=4)", small)
	}
	for _, bb := range []int{64 << 10, 128 << 10, 512 << 10, 2 << 20} {
		for _, w := range []int{1, 4, 20} {
			if p := Prior(bb, w); p < 1 || p > 1024 {
				t.Fatalf("Prior(%d, %d) = %d out of range", bb, w, p)
			}
		}
	}
	// Degenerate inputs fall back to defaults instead of dividing by zero.
	if p := Prior(0, 0); p < 1 {
		t.Fatalf("Prior(0,0) = %d", p)
	}
}

func TestStaticStartsAtDefaultUoT(t *testing.T) {
	c := NewStatic(Config{DefaultUoT: 7})
	if c.Prior() != 7 || c.Adaptive() {
		t.Fatalf("NewStatic: prior %d adaptive %v, want 7 and unobserved", c.Prior(), c.Adaptive())
	}
	// A blocking run's default is Table itself: no ceiling clamps it.
	if p := NewStatic(Config{DefaultUoT: Table}).Prior(); p != Table {
		t.Fatalf("NewStatic(Table) prior = %d, want Table", p)
	}
	if p := NewStatic(Config{}).Prior(); p != 1 {
		t.Fatalf("NewStatic(Config{}) prior = %d, want 1", p)
	}
	// The memory-pressure ladder is the same policy either way.
	e := c.AddEdge(c.Prior())
	if a := c.Pressure(e); a.Dir != Raise || a.UoT != 14 {
		t.Fatalf("static pressure step: %+v, want Raise to 14", a)
	}
	if start, d := c.Edge(e); start != 7 || d != (Decisions{Raises: 1}) {
		t.Fatalf("edge trajectory: start %d decisions %+v", start, d)
	}
}

func TestBacklogRaisesWithHysteresis(t *testing.T) {
	c := newTest()
	e := c.AddEdge(4)
	backlog := Signals{Buffered: 20, Delivered: 4, IntervalNS: 1000}
	if a := c.Observe(e, backlog); a.Dir != Hold {
		t.Fatalf("first backlog vote acted immediately: %+v", a)
	}
	a := c.Observe(e, backlog)
	if a.Dir != Raise || a.UoT != 6 {
		t.Fatalf("second backlog vote: got %+v, want Raise to 6", a)
	}
	// Cooldown: the next observation holds even with a backlog.
	if a := c.Observe(e, backlog); a.Dir != Hold {
		t.Fatalf("cooldown observation acted: %+v", a)
	}
	if got := c.UoT(e); got != 6 {
		t.Fatalf("UoT = %d, want 6", got)
	}
}

func TestStallLowers(t *testing.T) {
	c := newTest()
	e := c.AddEdge(8)
	// Blocks waited 90% of the interval; consumer service time well under
	// the interval; nothing left buffered.
	starved := Signals{Delivered: 8, StallNS: 900, IntervalNS: 1000, ServiceNS: 100}
	c.Observe(e, starved)
	a := c.Observe(e, starved)
	if a.Dir != Lower || a.UoT != 4 {
		t.Fatalf("got %+v, want Lower to 4", a)
	}
	// At the floor, Lower votes become holds.
	cf := newTest()
	ef := cf.AddEdge(1)
	for i := 0; i < 5; i++ {
		if a := cf.Observe(ef, starved); a.Dir != Hold {
			t.Fatalf("floor edge moved: %+v", a)
		}
	}
}

func TestBusyConsumerDoesNotLower(t *testing.T) {
	c := newTest()
	e := c.AddEdge(8)
	// Same stall shape, but the consumer was busy the whole interval: the
	// transfers are not what limits it, so refining would only add churn.
	busy := Signals{Delivered: 8, StallNS: 900, IntervalNS: 1000, ServiceNS: 1500}
	for i := 0; i < 6; i++ {
		if a := c.Observe(e, busy); a.Dir != Hold {
			t.Fatalf("observation %d acted: %+v", i, a)
		}
	}
}

func TestQueueSaturationRaises(t *testing.T) {
	c := newTest()
	e := c.AddEdge(2)
	deep := Signals{Delivered: 2, IntervalNS: 1000, QueueDepth: 64} // 8×Workers=32
	c.Observe(e, deep)
	if a := c.Observe(e, deep); a.Dir != Raise {
		t.Fatalf("saturated queue did not raise: %+v", a)
	}
}

func TestPressureBypassesHysteresis(t *testing.T) {
	c := newTest()
	e := c.AddEdge(4)
	a := c.Pressure(e)
	if a.Dir != Raise || a.UoT != 8 {
		t.Fatalf("pressure raise: got %+v, want Raise to 8", a)
	}
	// Lower votes stay suppressed while the pressure hold decays (one
	// cooldown observation, then two with the hold still armed).
	starved := Signals{Delivered: 8, StallNS: 900, IntervalNS: 1000, ServiceNS: 100}
	for i := 0; i < 3; i++ {
		if a := c.Observe(e, starved); a.Dir != Hold {
			t.Fatalf("observation %d during pressure hold acted: %+v", i, a)
		}
	}
	// Hold decayed (the last suppressed observation already cast a stall
	// vote): sustained starvation refines again once hysteresis is met.
	if a := c.Observe(e, starved); a.Dir != Lower || a.UoT != 4 {
		t.Fatalf("post-hold starvation did not lower: %+v", a)
	}
}

func TestPressureSnapsPastCeiling(t *testing.T) {
	c := newTest()
	e := c.AddEdge(64) // at the ceiling already
	a := c.Pressure(e)
	if a.Dir != Snap || a.UoT != Table {
		t.Fatalf("got %+v, want Snap to Table", a)
	}
	// Terminal: every further decision is a hold.
	if a := c.Pressure(e); a.Dir != Hold {
		t.Fatalf("pressure on a Table edge: %+v", a)
	}
	if a := c.Observe(e, Signals{Buffered: 100, Delivered: 1}); a.Dir != Hold {
		t.Fatalf("observe on a Table edge: %+v", a)
	}
	if _, d := c.Edge(e); d.Snaps != 1 {
		t.Fatalf("snaps = %d, want 1", d.Snaps)
	}
}

func TestFeedbackRaiseClampsAtCeilingWithoutSnap(t *testing.T) {
	c := newTest()
	e := c.AddEdge(60)
	backlog := Signals{Buffered: 400, Delivered: 60, IntervalNS: 1000}
	for i := 0; i < 12; i++ {
		c.Observe(e, backlog)
	}
	if got := c.UoT(e); got != 64 {
		t.Fatalf("UoT = %d, want clamped to ceiling 64", got)
	}
	if _, d := c.Edge(e); d.Snaps != 0 {
		t.Fatalf("feedback path snapped to Table: %+v", d)
	}
}

func TestMixedSignalsDecayStreaks(t *testing.T) {
	c := newTest()
	e := c.AddEdge(4)
	backlog := Signals{Buffered: 20, Delivered: 4, IntervalNS: 1000}
	quiet := Signals{Delivered: 4, IntervalNS: 1000}
	// raise-vote, decay, raise-vote, raise-vote -> streak reaches 2 only at
	// the fourth observation.
	c.Observe(e, backlog)
	c.Observe(e, quiet)
	c.Observe(e, backlog)
	a := c.Observe(e, backlog)
	if a.Dir != Raise {
		t.Fatalf("got %+v, want Raise on the second consecutive vote", a)
	}
}

// TestDecisionGolden pins the controller's full decision sequence for a
// fixed gauge sequence — the determinism anchor the scheduler's Workers=1
// golden harness builds on. Decisions are pure functions of (config, signal
// sequence); any change to the policy must consciously update this table.
func TestDecisionGolden(t *testing.T) {
	c := newTest()
	e := c.AddEdge(4)
	seq := []Signals{
		{Delivered: 4, IntervalNS: 1000},                                 // quiet
		{Buffered: 9, Delivered: 4, IntervalNS: 1000},                    // backlog vote 1
		{Buffered: 12, Delivered: 4, IntervalNS: 1000},                   // backlog vote 2 -> raise
		{Buffered: 14, Delivered: 6, IntervalNS: 1000},                   // cooldown
		{Buffered: 13, Delivered: 6, IntervalNS: 1000},                   // backlog vote 1
		{Buffered: 14, Delivered: 6, IntervalNS: 1000},                   // backlog vote 2 -> raise
		{Delivered: 9, IntervalNS: 1000},                                 // cooldown
		{Delivered: 9, StallNS: 800, IntervalNS: 1000, ServiceNS: 100},   // stall vote 1
		{Delivered: 9, StallNS: 900, IntervalNS: 1000, ServiceNS: 50},    // stall vote 2 -> lower
		{Delivered: 4, StallNS: 900, IntervalNS: 1000, ServiceNS: 50},    // cooldown
		{Delivered: 4, StallNS: 100, IntervalNS: 1000, ServiceNS: 900},   // quiet
		{Buffered: 1, Delivered: 4, IntervalNS: 1000, MemPressure: true}, // pressure vote 1
		{Buffered: 1, Delivered: 4, IntervalNS: 1000, MemPressure: true}, // pressure vote 2 -> raise
		{Delivered: 6, StallNS: 950, IntervalNS: 1000, ServiceNS: 10},    // cooldown; hold 3->2
		{Delivered: 6, StallNS: 950, IntervalNS: 1000, ServiceNS: 10},    // pressure hold 2->1
		{Delivered: 6, StallNS: 950, IntervalNS: 1000, ServiceNS: 10},    // hold 1->0; stall vote 1
		{Delivered: 6, StallNS: 950, IntervalNS: 1000, ServiceNS: 10},    // stall vote 2 -> lower
		{Delivered: 3, StallNS: 950, IntervalNS: 1000, ServiceNS: 10},    // cooldown
	}
	want := []Action{
		{Hold, 4}, {Hold, 4}, {Raise, 6}, {Hold, 6}, {Hold, 6}, {Raise, 9},
		{Hold, 9}, {Hold, 9}, {Lower, 4}, {Hold, 4}, {Hold, 4}, {Hold, 4},
		{Raise, 6}, {Hold, 6}, {Hold, 6}, {Hold, 6}, {Lower, 3}, {Hold, 3},
	}
	for i, s := range seq {
		got := c.Observe(e, s)
		if got != want[i] {
			t.Fatalf("step %d: got %s->%d, want %s->%d (signals %+v)",
				i, got.Dir, got.UoT, want[i].Dir, want[i].UoT, s)
		}
	}
	if start, d := c.Edge(e); start != 4 || d != (Decisions{Raises: 3, Lowers: 2, Holds: 13}) {
		t.Fatalf("edge trajectory: start %d, decisions %+v, want 4 with 3 raises, 2 lowers, 13 holds", start, d)
	}
	// Replaying the identical sequence on a fresh controller reproduces the
	// identical decisions: the controller holds no hidden clock state.
	c2 := newTest()
	e2 := c2.AddEdge(4)
	for i, s := range seq {
		if got := c2.Observe(e2, s); got != want[i] {
			t.Fatalf("replay step %d diverged: %+v", i, got)
		}
	}
}

func TestDirString(t *testing.T) {
	for d, s := range map[Dir]string{Hold: "hold", Raise: "raise", Lower: "lower", Snap: "snap", Dir(9): "?"} {
		if d.String() != s {
			t.Fatalf("Dir(%d).String() = %q, want %q", d, d.String(), s)
		}
	}
}

func TestFaultedInVotesLower(t *testing.T) {
	c := newTest()
	e := c.AddEdge(16)
	// Spill fault-ins vote Lower through the usual hysteresis (2 here).
	spilled := Signals{Delivered: 4, FaultedIn: 2, IntervalNS: 1000}
	if a := c.Observe(e, spilled); a.Dir != Hold {
		t.Fatalf("first spilled delivery acted immediately: %v", a.Dir)
	}
	if a := c.Observe(e, spilled); a.Dir != Lower || a.UoT != 8 {
		t.Fatalf("streak of spilled deliveries: got %v/%d, want lower/8", a.Dir, a.UoT)
	}
}

func TestFaultedInOutvotesPressureHold(t *testing.T) {
	c := newTest()
	e := c.AddEdge(16)
	// A pressure raise arms the Lower suppression...
	if a := c.Pressure(e); a.Dir != Raise || a.UoT != 32 {
		t.Fatalf("pressure: %v/%d", a.Dir, a.UoT)
	}
	// ...but spill fault-ins lower anyway: the raise is what caused the
	// spilling, so the stall-based suppression must not apply. One cooldown
	// observation follows the pressure action, then hysteresis-2 votes.
	spilled := Signals{Delivered: 4, FaultedIn: 1, IntervalNS: 1000, MemPressure: true}
	c.Observe(e, spilled) // cooldown
	c.Observe(e, spilled) // streak 1
	if a := c.Observe(e, spilled); a.Dir != Lower || a.UoT != 16 {
		t.Fatalf("spill under pressure hold: got %v/%d, want lower/16", a.Dir, a.UoT)
	}
}

func TestFaultedInHoldsAtFloor(t *testing.T) {
	c := newTest()
	e := c.AddEdge(1) // already at the floor: nothing finer to try
	spilled := Signals{Delivered: 1, FaultedIn: 1, IntervalNS: 1000}
	for i := 0; i < 5; i++ {
		if a := c.Observe(e, spilled); a.Dir != Hold {
			t.Fatalf("obs %d: %v at the floor", i, a.Dir)
		}
	}
}

func TestPriorWithSpillNeverCoarser(t *testing.T) {
	for _, bb := range []int{64 << 10, 128 << 10, 512 << 10} {
		for _, w := range []int{1, 4, 20} {
			base := Prior(bb, w)
			for _, budget := range []int64{1 << 20, 32 << 20, 1 << 30} {
				sp := PriorWithSpill(bb, w, budget)
				if sp > base {
					t.Fatalf("PriorWithSpill(%d,%d,%d) = %d coarser than Prior = %d",
						bb, w, budget, sp, base)
				}
				if sp < 1 || sp > 1024 {
					t.Fatalf("PriorWithSpill out of range: %d", sp)
				}
			}
		}
	}
	// A tight budget must pin the prior to single blocks: every extra
	// buffered block is a likely device round trip.
	if p := PriorWithSpill(128<<10, 4, 1<<20); p != 1 {
		t.Fatalf("tight-budget spill prior = %d, want 1", p)
	}
	// New() with SpillBudget seeds from the spill-aware scan.
	if c := New(Config{Workers: 4, BlockBytes: 128 << 10, SpillBudget: 1 << 20}); c.Prior() != 1 {
		t.Fatalf("controller spill prior = %d, want 1", c.Prior())
	}
}
