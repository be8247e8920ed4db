// Package cachesim models the memory hierarchy costs that the paper's
// analytical model (Section V) is built on: L3-residency of inter-operator
// blocks, amortized sequential reads under hardware prefetching, random
// probe misses against large hash tables, write-backs of materialized
// output, and instruction-cache misses on work-order context switches.
//
// Go cannot toggle the hardware prefetcher (an MSR write) and its GC
// obscures nanosecond-scale latencies, so experiments that depend on those
// effects (Fig. 5, Table VI) run against this simulator instead: work orders
// report access summaries and accumulate deterministic simulated ticks
// (1 tick = 1 ns of modeled time). The shape of the results — hot beats
// cold, prefetching helps sequential scans and hurts mixed random/sequential
// operators — is a property of the cost structure, not of tuned constants.
package cachesim

import (
	"container/list"
	"sync"
)

// Params holds the hardware model. Costs are ticks per 64-byte line unless
// noted. Defaults approximate the paper's Haswell EP platform (Table V).
type Params struct {
	L3Bytes   int64 // last-level cache capacity
	LineBytes int64 // cache line size

	HitL3  int64 // sequential or random read served from L3 (R_L3 per line)
	MissL3 int64 // read served from memory without prefetch help (M_L3)
	ARLine int64 // amortized per-line cost of a prefetched sequential read (AR_L3)
	WBLine int64 // write-back cost per line for materialized output (W_mem)

	// ICMiss is the instruction-cache penalty of one work-order context
	// switch (the IC term of Section V).
	ICMiss int64

	// PrefetchRampLines is how many lines of a cold sequential stream pay
	// full MissL3 before the stream prefetcher locks on.
	PrefetchRampLines int64

	// WastedPrefetchNum/Den express the extra cost per *random* access when
	// the prefetcher is enabled: speculative next-line fetches on a random
	// stream waste bandwidth (the Table VI probe/build penalty). The extra
	// cost is MissL3 * Num / Den per random access.
	WastedPrefetchNum int64
	WastedPrefetchDen int64

	// ContentionNum/Den model memory contention on random accesses: each
	// random miss is inflated by (Den + (T-1)·Num)/Den for T concurrent
	// threads. Sequential prefetched streams use bandwidth efficiently and
	// L3 hits never leave the chip, so neither contends. This is the
	// DeWitt/Gray "interference" the paper invokes to explain the poor
	// scalability of probes against large hash tables (Section IV-C4,
	// Fig. 9).
	ContentionNum int64
	ContentionDen int64
}

// Default returns the Haswell-like model used throughout the experiments:
// 25 MB L3, 64 B lines, ~15 ns L3 hit, ~90 ns memory latency, ~8 ns
// amortized prefetched line, ~25 ns write-back per line, 2 µs per
// instruction-cache context switch.
func Default() Params {
	return Params{
		L3Bytes:           25 << 20,
		LineBytes:         64,
		HitL3:             15,
		MissL3:            90,
		ARLine:            8,
		WBLine:            25,
		ICMiss:            2000,
		PrefetchRampLines: 16,
		WastedPrefetchNum: 2,
		WastedPrefetchDen: 5,
		ContentionNum:     1,
		ContentionDen:     4,
	}
}

// Sim is a shared memory-hierarchy simulator: a byte-capacity LRU over block
// identities answers "is this unit of transfer still hot in L3?", and charge
// methods convert access summaries to ticks. All methods are safe for
// concurrent use; charges are returned to the caller (work orders accumulate
// them locally) rather than summed globally, so per-task simulated times are
// exact.
type Sim struct {
	p        Params
	prefetch bool
	threads  int64

	mu    sync.Mutex
	res   map[any]*list.Element // resident blocks
	order *list.List            // front = most recent
	used  int64
}

type resEntry struct {
	key   any
	bytes int64
}

// New returns a simulator with the prefetcher enabled and one thread.
func New(p Params) *Sim {
	return &Sim{p: p, prefetch: true, threads: 1, res: make(map[any]*list.Element), order: list.New()}
}

// SetThreads declares how many threads contend for memory bandwidth; costs
// that reach memory inflate accordingly (see Params.ContentionNum).
func (s *Sim) SetThreads(t int) {
	if t < 1 {
		t = 1
	}
	s.mu.Lock()
	s.threads = int64(t)
	s.mu.Unlock()
}

// memCost inflates a memory-level cost by the contention factor for the
// current thread count. Caller need not hold s.mu (threads is read under it).
func (s *Sim) memCost(base int64) int64 {
	s.mu.Lock()
	t := s.threads
	s.mu.Unlock()
	if t <= 1 || s.p.ContentionDen == 0 {
		return base
	}
	return base * (s.p.ContentionDen + (t-1)*s.p.ContentionNum) / s.p.ContentionDen
}

// SetPrefetch enables or disables the modeled hardware prefetcher (the MSR
// toggle of Section IV-D).
func (s *Sim) SetPrefetch(on bool) {
	s.mu.Lock()
	s.prefetch = on
	s.mu.Unlock()
}

// Params returns the hardware model.
func (s *Sim) Params() Params { return s.p }

func (s *Sim) lines(bytes int64) int64 {
	return (bytes + s.p.LineBytes - 1) / s.p.LineBytes
}

// touch marks key resident with the given footprint, evicting LRU entries
// beyond L3 capacity. Caller holds s.mu.
func (s *Sim) touch(key any, bytes int64) {
	if e, ok := s.res[key]; ok {
		ent := e.Value.(*resEntry)
		s.used += bytes - ent.bytes
		ent.bytes = bytes
		s.order.MoveToFront(e)
	} else {
		s.res[key] = s.order.PushFront(&resEntry{key: key, bytes: bytes})
		s.used += bytes
	}
	for s.used > s.p.L3Bytes {
		back := s.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*resEntry)
		if ent.key == key && s.order.Len() == 1 {
			break // a single block larger than L3 stays "resident"
		}
		s.order.Remove(back)
		delete(s.res, ent.key)
		s.used -= ent.bytes
	}
}

// hot reports and refreshes residency. Caller holds s.mu.
func (s *Sim) hot(key any) bool {
	e, ok := s.res[key]
	if ok {
		s.order.MoveToFront(e)
	}
	return ok
}

// retainable reports whether a block of the given size survives in L3 under
// T concurrent streams: each worker keeps roughly an input and an output
// unit live, so residency requires 2·B·T ≤ |L3| — the paper's p1' =
// min(1, 2BT/|L3|) turned into a deterministic rule. Caller holds s.mu.
func (s *Sim) retainable(bytes int64) bool {
	return 2*bytes*s.threads <= s.p.L3Bytes
}

// retain records key as resident and applies the eviction pressure of the
// T-1 peer workers writing blocks of the same size concurrently (the
// simulator runs work orders one at a time on this host, so concurrency has
// to be modeled, not observed). Caller holds s.mu.
func (s *Sim) retain(key any, bytes int64) {
	if !s.retainable(bytes) {
		s.evictLocked(key)
		return
	}
	s.touch(key, bytes)
	target := s.p.L3Bytes - (s.threads-1)*bytes
	if target < 0 {
		target = 0
	}
	for s.used > target && s.order.Len() > 1 {
		back := s.order.Back()
		ent := back.Value.(*resEntry)
		if ent.key == key {
			break
		}
		s.order.Remove(back)
		delete(s.res, ent.key)
		s.used -= ent.bytes
	}
}

func (s *Sim) evictLocked(key any) {
	if e, ok := s.res[key]; ok {
		ent := e.Value.(*resEntry)
		s.order.Remove(e)
		delete(s.res, key)
		s.used -= ent.bytes
	}
}

// Produced records that a work order materialized `bytes` of output into
// block key and returns the write cost. Freshly written blocks are hot: the
// write-back to memory is *not* charged here — it is charged to whichever
// consumer later finds the block cold (fold of W_mem into the cold-read
// path, mirroring how Section V attributes W_mem only to the high-UoT case).
func (s *Sim) Produced(key any, bytes int64) int64 {
	s.mu.Lock()
	s.retain(key, bytes)
	s.mu.Unlock()
	return s.lines(bytes) * s.p.HitL3
}

// ConsumedSeq records that a work order sequentially read `bytes` of block
// key and returns the read cost. A hot block costs HitL3 per line. A cold
// block pays the deferred write-back (WBLine) plus the memory read: with the
// prefetcher on, a short ramp at MissL3 then ARLine per line; with it off,
// MissL3 for every line.
func (s *Sim) ConsumedSeq(key any, bytes int64) int64 {
	s.mu.Lock()
	wasHot := s.hot(key)
	pf := s.prefetch
	s.retain(key, bytes)
	s.mu.Unlock()

	n := s.lines(bytes)
	if wasHot {
		return n * s.p.HitL3
	}
	cost := n * s.p.WBLine // deferred write-back of the producer's output
	if pf {
		ramp := s.p.PrefetchRampLines
		if ramp > n {
			ramp = n
		}
		cost += ramp*s.p.MissL3 + (n-ramp)*s.p.ARLine
	} else {
		cost += n * s.p.MissL3
	}
	return cost
}

// ScannedBase records a sequential scan of `bytes` of base-table data (never
// hot across a whole run at realistic scale) and returns the cost. The
// prefetcher matters here exactly as for cold intermediate blocks, minus the
// write-back term.
func (s *Sim) ScannedBase(bytes int64) int64 {
	s.mu.Lock()
	pf := s.prefetch
	s.mu.Unlock()
	n := s.lines(bytes)
	if pf {
		ramp := s.p.PrefetchRampLines
		if ramp > n {
			ramp = n
		}
		return ramp*s.p.MissL3 + (n-ramp)*s.p.ARLine
	}
	return n * s.p.MissL3
}

// RandomProbes charges n random accesses against a structure of structBytes
// (a hash table). The L3 hit probability is min(1, L3/structBytes); random
// accesses disrupt the prefetcher, and when the prefetcher is on, each
// likely-missing access additionally wastes bandwidth on useless next-line
// prefetches (the Table VI effect).
func (s *Sim) RandomProbes(n int64, structBytes int64) int64 {
	if n == 0 {
		return 0
	}
	s.mu.Lock()
	pf := s.prefetch
	s.mu.Unlock()

	hitNum, hitDen := s.p.L3Bytes, structBytes
	if hitNum > hitDen {
		hitNum = hitDen
	}
	if hitDen == 0 {
		hitNum, hitDen = 1, 1
	}
	hits := n * hitNum / hitDen
	misses := n - hits
	missCost := misses * s.p.MissL3
	if pf {
		missCost += misses * s.p.MissL3 * s.p.WastedPrefetchNum / s.p.WastedPrefetchDen
	}
	return hits*s.p.HitL3 + s.memCost(missCost)
}

// ContextSwitch charges one work-order context switch (IC term).
func (s *Sim) ContextSwitch() int64 { return s.p.ICMiss }

// Evict removes a block from the residency set (its memory was released).
func (s *Sim) Evict(key any) {
	s.mu.Lock()
	if e, ok := s.res[key]; ok {
		ent := e.Value.(*resEntry)
		s.order.Remove(e)
		delete(s.res, key)
		s.used -= ent.bytes
	}
	s.mu.Unlock()
}
