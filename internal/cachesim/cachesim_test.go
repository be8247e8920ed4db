package cachesim

import (
	"sync"
	"testing"
)

func small() Params {
	p := Default()
	p.L3Bytes = 1 << 20 // 1 MB so eviction is easy to trigger
	return p
}

// isHot reports (without refreshing) whether key is resident.
func isHot(s *Sim, key any) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.res[key]
	return ok
}

// residentBytes returns the bytes currently tracked as L3-resident.
func residentBytes(s *Sim) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

func TestHotBeatsCold(t *testing.T) {
	s := New(small())
	const sz = 128 << 10
	s.Produced("b1", sz)
	hot := s.ConsumedSeq("b1", sz)

	s2 := New(small())
	cold := s2.ConsumedSeq("b1", sz)
	if hot >= cold {
		t.Fatalf("hot read (%d) should be cheaper than cold read (%d)", hot, cold)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(small())
	// Fill beyond 1 MB: 10 blocks of 128 KB.
	for i := 0; i < 10; i++ {
		s.Produced(i, 128<<10)
	}
	if residentBytes(s) > small().L3Bytes {
		t.Fatalf("resident %d exceeds capacity", residentBytes(s))
	}
	if isHot(s, 0) || isHot(s, 1) {
		t.Fatal("oldest blocks should be evicted")
	}
	if !isHot(s, 9) {
		t.Fatal("newest block should be hot")
	}
}

func TestOversizeBlockNotRetained(t *testing.T) {
	s := New(small())
	s.Produced("huge", 4<<20) // 2*4MB > 1MB L3: cannot stay resident
	if isHot(s, "huge") {
		t.Fatal("a block that cannot fit under 2B <= L3 must not be retained")
	}
}

func TestConcurrencyCrowdingMatchesP1Prime(t *testing.T) {
	// p1' = min(1, 2BT/L3): with T=20 and B=128KB over an 8MB cache,
	// 2BT = 5MB <= 8MB, so a freshly produced block stays hot; with
	// B=2MB, 2BT = 80MB > 8MB and the block must be cold for its consumer.
	p := Default()
	p.L3Bytes = 8 << 20
	s := New(p)
	s.SetThreads(20)
	s.Produced("small", 128<<10)
	if !isHot(s, "small") {
		t.Fatal("128KB block with T=20 should survive (2BT < L3)")
	}
	s.Produced("big", 2<<20)
	if isHot(s, "big") {
		t.Fatal("2MB block with T=20 must be evicted (2BT > L3)")
	}
	// And the same producer/consumer pair at T=1 keeps the 2MB block hot.
	s1 := New(p)
	s1.Produced("big", 2<<20)
	if !isHot(s1, "big") {
		t.Fatal("2MB block with T=1 should survive")
	}
}

func TestPeerPressureEvictsOlderBlocks(t *testing.T) {
	p := Default()
	p.L3Bytes = 8 << 20
	s := New(p)
	s.SetThreads(20)
	// Peers writing 19 * 128KB per production step crowd out ~5.6MB of
	// older blocks: after a long stream, only the newest few remain.
	for i := 0; i < 100; i++ {
		s.Produced(i, 128<<10)
	}
	if isHot(s, 0) || isHot(s, 50) {
		t.Fatal("old blocks should be crowded out under concurrency pressure")
	}
	if !isHot(s, 99) {
		t.Fatal("the newest block should remain hot")
	}
}

func TestPrefetchHelpsSequential(t *testing.T) {
	const sz = 2 << 20
	on := New(Default())
	off := New(Default())
	off.SetPrefetch(false)
	if a, b := on.ScannedBase(sz), off.ScannedBase(sz); a >= b {
		t.Fatalf("prefetch-on scan (%d) should beat prefetch-off (%d)", a, b)
	}
	// Same for cold intermediate reads.
	if a, b := on.ConsumedSeq("x", sz), off.ConsumedSeq("y", sz); a >= b {
		t.Fatalf("prefetch-on cold read (%d) should beat prefetch-off (%d)", a, b)
	}
}

func TestPrefetchHurtsRandomProbes(t *testing.T) {
	on := New(Default())
	off := New(Default())
	off.SetPrefetch(false)
	const n, htBytes = 100000, 100 << 20 // hash table much bigger than L3
	if a, b := on.RandomProbes(n, htBytes), off.RandomProbes(n, htBytes); a <= b {
		t.Fatalf("prefetch-on probes (%d) should cost more than off (%d)", a, b)
	}
}

func TestRandomProbeHitProbability(t *testing.T) {
	s := New(Default())
	const n = 10000
	smallHT := s.RandomProbes(n, 1<<20) // fits in L3 -> all hits
	bigHT := s.RandomProbes(n, 1<<30)   // 1 GB -> nearly all misses
	if smallHT >= bigHT {
		t.Fatalf("small table probes (%d) should be cheaper than big (%d)", smallHT, bigHT)
	}
	// Fully-resident structure: pure L3 hits.
	if want := int64(n) * s.Params().HitL3; smallHT != want {
		t.Fatalf("resident probes = %d, want %d", smallHT, want)
	}
}

func TestColdReadIncludesWriteback(t *testing.T) {
	p := Default()
	s := New(p)
	const sz = 1 << 20
	cold := s.ConsumedSeq("b", sz)
	scan := New(p).ScannedBase(sz)
	if cold-scan != s.lines(sz)*p.WBLine {
		t.Fatalf("cold read should add exactly the write-back: %d - %d != %d",
			cold, scan, s.lines(sz)*p.WBLine)
	}
}

func TestEvictRemovesResidency(t *testing.T) {
	s := New(Default())
	s.Produced("b", 1<<20)
	s.Evict("b")
	if isHot(s, "b") || residentBytes(s) != 0 {
		t.Fatal("evict should clear residency")
	}
}

func TestContextSwitchCost(t *testing.T) {
	s := New(Default())
	if s.ContextSwitch() != Default().ICMiss {
		t.Fatal("context switch cost wrong")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		s := New(small())
		var total int64
		for i := 0; i < 50; i++ {
			total += s.Produced(i, 64<<10)
			total += s.ConsumedSeq(i, 64<<10)
			total += s.RandomProbes(1000, 8<<20)
		}
		return total
	}
	if run() != run() {
		t.Fatal("simulator must be deterministic")
	}
}

func TestConcurrentUseDoesNotRace(t *testing.T) {
	s := New(small())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Produced([2]int{w, i}, 32<<10)
				s.ConsumedSeq([2]int{w, i}, 32<<10)
				s.RandomProbes(10, 1<<20)
			}
		}(w)
	}
	wg.Wait()
	if residentBytes(s) > small().L3Bytes {
		t.Fatal("capacity violated under concurrency")
	}
}

func TestZeroWork(t *testing.T) {
	s := New(Default())
	if s.RandomProbes(0, 1<<20) != 0 {
		t.Fatal("zero probes should be free")
	}
	if s.ConsumedSeq("e", 0) != 0 {
		t.Fatal("zero-byte read should be free")
	}
}
