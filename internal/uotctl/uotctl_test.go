package uotctl

import "testing"

// newTest returns a 4-worker controller under a small, fully-explicit policy
// so decisions are easy to trace by hand: hysteresis 2, cooldown 1, backlog
// factor 2. Every test registers its edges with an explicit starting UoT.
func newTest() *Controller {
	c := New(Config{Workers: 4})
	c.pol = policy{
		floor: 1, ceiling: 64, hysteresis: 2, cooldown: 1,
		backlogFactor: 2, stallFrac: 0.5,
	}
	return c
}

func TestDefaults(t *testing.T) {
	c := New(Config{})
	pol := c.pol
	if pol.floor != 1 || pol.ceiling != 1<<20 || pol.hysteresis != 3 ||
		pol.cooldown != 2 || pol.backlogFactor != 3 {
		t.Fatalf("unexpected defaults: %+v", pol)
	}
	if c.workers != 1 || c.defaultUoT != 1 {
		t.Fatalf("New(Config{}) = %+v, want one worker at UoT 1", c)
	}
}

func TestStaticStartsAtDefaultUoT(t *testing.T) {
	c := New(Config{DefaultUoT: 7})
	undeclared, declared := c.AddEdge(0), c.AddEdge(3)
	if c.UoT(undeclared) != 7 || c.UoT(declared) != 3 {
		t.Fatalf("start UoTs %d/%d, want the default 7 and the declared 3", c.UoT(undeclared), c.UoT(declared))
	}
	// A blocking run's default is Table itself: no ceiling clamps it, and
	// an edge at Table always holds.
	tc := New(Config{DefaultUoT: Table})
	te := tc.AddEdge(0)
	if tc.UoT(te) != Table {
		t.Fatal("New(Table) did not start an undeclared edge at Table")
	}
	if a := tc.Observe(te, Signals{Buffered: 100, Delivered: 1}); a != (Action{Hold, Table}) {
		t.Fatalf("observe on a Table edge: %+v", a)
	}
	// A negative declaration clamps to the floor.
	if got := c.UoT(c.AddEdge(-3)); got != 1 {
		t.Fatalf("AddEdge(-3) starts at %d, want 1", got)
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

func TestFeedbackRaiseClampsAtCeilingWithoutSnap(t *testing.T) {
	c := newTest()
	e := c.AddEdge(60)
	backlog := Signals{Buffered: 400, Delivered: 60, IntervalNS: 1000}
	for i := 0; i < 12; i++ {
		c.Observe(e, backlog)
	}
	if got := c.UoT(e); got != 64 {
		t.Fatalf("UoT = %d, want clamped to ceiling 64, never Table", got)
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
// fixed gauge sequence. Decisions are pure functions of (config, signal
// sequence); any change to the policy must consciously update this table.
func TestDecisionGolden(t *testing.T) {
	c := newTest()
	e := c.AddEdge(4)
	seq := []Signals{
		{Delivered: 4, IntervalNS: 1000},                               // quiet
		{Buffered: 9, Delivered: 4, IntervalNS: 1000},                  // backlog vote 1
		{Buffered: 12, Delivered: 4, IntervalNS: 1000},                 // backlog vote 2 -> raise
		{Buffered: 14, Delivered: 6, IntervalNS: 1000},                 // cooldown
		{Buffered: 13, Delivered: 6, IntervalNS: 1000},                 // backlog vote 1
		{Buffered: 14, Delivered: 6, IntervalNS: 1000},                 // backlog vote 2 -> raise
		{Delivered: 9, IntervalNS: 1000},                               // cooldown
		{Delivered: 9, StallNS: 800, IntervalNS: 1000, ServiceNS: 100}, // stall vote 1
		{Delivered: 9, StallNS: 900, IntervalNS: 1000, ServiceNS: 50},  // stall vote 2 -> lower
		{Delivered: 4, StallNS: 900, IntervalNS: 1000, ServiceNS: 50},  // cooldown
		{Delivered: 4, StallNS: 100, IntervalNS: 1000, ServiceNS: 900}, // quiet
		{Buffered: 9, Delivered: 4, IntervalNS: 1000},                  // backlog vote 1
		{Buffered: 9, Delivered: 4, IntervalNS: 1000},                  // backlog vote 2 -> raise
		{Delivered: 6, StallNS: 950, IntervalNS: 1000, ServiceNS: 10},  // cooldown
		{Delivered: 6, StallNS: 950, IntervalNS: 1000, ServiceNS: 10},  // stall vote 1
		{Delivered: 6, StallNS: 950, IntervalNS: 1000, ServiceNS: 10},  // stall vote 2 -> lower
		{Delivered: 3, StallNS: 950, IntervalNS: 1000, ServiceNS: 10},  // cooldown
		{Delivered: 3, StallNS: 950, IntervalNS: 1000, ServiceNS: 10},  // stall vote 1
	}
	want := []Action{
		{Hold, 4}, {Hold, 4}, {Raise, 6}, {Hold, 6}, {Hold, 6}, {Raise, 9},
		{Hold, 9}, {Hold, 9}, {Lower, 4}, {Hold, 4}, {Hold, 4}, {Hold, 4},
		{Raise, 6}, {Hold, 6}, {Hold, 6}, {Lower, 3}, {Hold, 3}, {Hold, 3},
	}
	for i, s := range seq {
		got := c.Observe(e, s)
		if got != want[i] {
			t.Fatalf("step %d: got %s->%d, want %s->%d (signals %+v)",
				i, got.Dir, got.UoT, want[i].Dir, want[i].UoT, s)
		}
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
	for d, s := range map[Dir]string{Hold: "hold", Raise: "raise", Lower: "lower", Dir(9): "?"} {
		if d.String() != s {
			t.Fatalf("Dir(%d).String() = %q, want %q", d, d.String(), s)
		}
	}
}
