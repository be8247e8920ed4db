package costmodel

import (
	"math"
	"testing"
)

func TestP1PrimeSaturates(t *testing.T) {
	p := Default(128<<10, 20)
	// 2 * 128K * 20 = 5 MB over 25 MB L3 -> 0.2.
	if got := p.P1Prime(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("p1' = %v, want 0.2", got)
	}
	p.B = 2 << 20
	// 2 * 2M * 20 = 80 MB > 25 MB -> 1.
	if got := p.P1Prime(); got != 1 {
		t.Fatalf("p1' = %v, want 1", got)
	}
	p.T = 1
	p.B = 64
	if got := p.P1Prime(); got >= 0.001 {
		t.Fatalf("tiny UoT single thread p1' = %v", got)
	}
}

func TestUoTCostsScaleWithB(t *testing.T) {
	small := Default(128<<10, 20)
	big := Default(2<<20, 20)
	if small.RL3() >= big.RL3() || small.ARL3() >= big.ARL3() || small.WMem() >= big.WMem() {
		t.Fatal("per-UoT costs must grow with B")
	}
	// AR_L3 < R_L3 (the amortized read skips the initial miss).
	if small.ARL3() >= small.RL3() {
		t.Fatalf("AR (%v) should be smaller than R (%v)", small.ARL3(), small.RL3())
	}
}

// TestRatioNearOneAtHighUoT reproduces the Section V-A(a) argument: for
// multi-megabyte UoTs the strategies are nearly equivalent.
func TestRatioNearOneAtHighUoT(t *testing.T) {
	p := Default(2<<20, 20).HighRegime()
	r := p.Ratio()
	if r < 0.5 || r > 2.0 {
		t.Fatalf("high-UoT ratio = %v, want ~1", r)
	}
}

// TestRatioSlightAdvantageAtLowUoT reproduces Section V-A(b): at small UoTs
// the pipelining strategy holds a slight advantage (ratio >= ~1).
func TestRatioSlightAdvantageAtLowUoT(t *testing.T) {
	p := Default(128<<10, 20).LowRegime()
	r := p.Ratio()
	if r < 0.9 {
		t.Fatalf("low-UoT ratio = %v; pipelining should not lose badly", r)
	}
	if r > 5 {
		t.Fatalf("low-UoT ratio = %v; advantage should be slight", r)
	}
}

func TestExtraCostsPositiveAndProportionalToN(t *testing.T) {
	p := Default(512<<10, 10)
	if p.HighUoTExtra() <= 0 || p.LowUoTExtra() <= 0 {
		t.Fatal("extra costs must be positive")
	}
	p2 := p
	p2.NProbeIn *= 3
	if math.Abs(p2.HighUoTExtra()-3*p.HighUoTExtra()) > 1e-6*p2.HighUoTExtra() {
		t.Fatal("high extra must scale linearly in N")
	}
	if math.Abs(p2.LowUoTExtra()-3*p.LowUoTExtra()) > 1e-6*p2.LowUoTExtra() {
		t.Fatal("low extra must scale linearly in N")
	}
}

// TestPersistentStore reproduces Section V-C: in the disk setting the
// non-pipelining strategy pays seconds while pipelining pays microseconds.
func TestPersistentStore(t *testing.T) {
	s := DefaultStore(1000)
	high := s.HighUoTExtra()
	low := s.LowUoTExtra()
	if high < 100e6 { // >= 0.1 s in ns ticks for 1000 UoTs
		t.Fatalf("store high extra = %v ns, expected order of seconds", high)
	}
	if low > 10e6 { // <= 10 ms
		t.Fatalf("store low extra = %v ns, expected order of microseconds/ms", low)
	}
	if s.Advantage() < 50 {
		t.Fatalf("pipelining advantage on disk = %v, want large", s.Advantage())
	}
}

func TestRegimePresets(t *testing.T) {
	p := Default(1<<20, 8)
	if h := p.HighRegime(); h.P2 >= h.P1 {
		t.Fatal("high regime: p2 should be low")
	}
	if l := p.LowRegime(); l.P2 <= l.P1 {
		t.Fatal("low regime: p2 should be high")
	}
}

func TestQueryMemory(t *testing.T) {
	blk := int64(128 << 10)
	// Two unit-UoT edges, one worker, no stateful ops: 3 blocks live at peak.
	if got := QueryMemory([]int{1, 1}, 1, blk, 0); got != 3*blk {
		t.Fatalf("QueryMemory = %d, want %d", got, 3*blk)
	}
	// UoTTable edges clamp instead of overflowing.
	huge := QueryMemory([]int{1 << 30}, 4, blk, 0)
	if huge <= 0 || huge > 1<<30 {
		t.Fatalf("clamped estimate out of range: %d", huge)
	}
	// Stateful operators add DefaultStatefulBytes each.
	base := QueryMemory([]int{1}, 1, blk, 0)
	withState := QueryMemory([]int{1}, 1, blk, 2)
	if withState-base != 2*DefaultStatefulBytes {
		t.Fatalf("stateful delta = %d, want %d", withState-base, int64(2*DefaultStatefulBytes))
	}
	// Monotone in workers.
	if QueryMemory([]int{1}, 8, blk, 0) <= QueryMemory([]int{1}, 1, blk, 0) {
		t.Fatal("estimate must grow with the in-flight cap")
	}
}

func TestQueryMemorySplit(t *testing.T) {
	blk := int64(128 << 10)
	// The PR8 double-count: a UoTTable edge charges the full 64-block clamp
	// against RAM even though a spilling query keeps only the pin window
	// resident. The split pins both figures: 4 resident blocks for the edge
	// plus 2 worker output blocks, and the other 60 clamp blocks spillable.
	ram, spill := QueryMemorySplit([]int{1 << 30}, 2, blk, 0)
	if want := (4 + 2) * blk; ram != want {
		t.Fatalf("ram = %d, want %d", ram, want)
	}
	if want := 60 * blk; spill != want {
		t.Fatalf("spillable = %d, want %d", spill, want)
	}
	// Edges at or under the clamp spill nothing.
	ram, spill = QueryMemorySplit([]int{1, 4}, 1, blk, 1)
	if spill != 0 {
		t.Fatalf("small edges: spillable = %d, want 0", spill)
	}
	if want := (1+4+1)*blk + DefaultStatefulBytes; ram != want {
		t.Fatalf("small edges: ram = %d, want %d", ram, want)
	}
	// Invariant: the split never changes the total, whatever the shape.
	cases := []struct {
		uots     []int
		workers  int
		stateful int
	}{
		{[]int{1, 1}, 1, 0},
		{[]int{1 << 30, 5, 64, 3}, 8, 2},
		{[]int{0, -1, 100}, 0, 1},
		{nil, 4, 0},
	}
	for _, c := range cases {
		ram, spill := QueryMemorySplit(c.uots, c.workers, blk, c.stateful)
		if total := QueryMemory(c.uots, c.workers, blk, c.stateful); ram+spill != total {
			t.Fatalf("%v: ram %d + spillable %d != total %d", c.uots, ram, spill, total)
		}
		if ram <= 0 || spill < 0 {
			t.Fatalf("%v: degenerate split ram=%d spill=%d", c.uots, ram, spill)
		}
	}
}
