// Package faults is a deterministic, seeded fault injector for the
// scheduler's robustness layer. Hot-path operator code consults the injector
// at named sites (hash-table insert, aggregation upsert, block materialize,
// sort run, repartition, spill I/O); the injector decides — as a pure
// function of (seed, site, per-site invocation index) — whether to inject a
// fault there and of which kind: a returned error, a panic, artificial
// latency, or an allocation failure.
//
// Determinism: no wall clock and no global RNG are involved. The decision for
// the i-th consultation of a site depends only on the configured seed, so two
// runs that consult the sites in the same order observe the same fault
// schedule. With a single worker the scheduler is deterministic, so the same
// seed replays the same schedule exactly; with several workers the set of
// decisions is unchanged but their assignment to work orders follows the
// thread interleaving. Every fired fault is logged and the log is itself a
// replayable schedule (see Replay).
package faults

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Site is a named fault-injection point in operator or scheduler code.
type Site uint8

// The named injection sites.
const (
	// HashInsert fires at the start of a hash-join build work order and of
	// each index fill work order, strictly before any join-table mutation.
	HashInsert Site = iota
	// Site 1 is unused. A site's number seeds its fault decisions, so the
	// sites keep their numbers, and a seed its schedule at each of them.
	_
	// AggUpsert fires at the start of a vectorized aggregation work order,
	// before the thread-local partial table is touched.
	AggUpsert
	// BlockMaterialize fires when an emitter checks a temporary output
	// block out of the pool (mid-stream: earlier blocks of the same work
	// order may already be sealed and must be rolled back).
	BlockMaterialize
	// SortRun fires at the start of a normalized-key run-generation work
	// order, before the run is stored (pre-mutation; the attempt is rolled
	// back and retried).
	SortRun
	// Repartition fires at the start of an exchange scatter work order,
	// before any partition stream is touched (pre-mutation; the attempt is
	// rolled back and retried).
	Repartition
	// SpillWrite fires before the spill tier writes an evicted block to an
	// extent file. Any fired kind — panics included — demotes the eviction
	// to stall-and-retry: the block stays resident and the tier tries again
	// at the next pressure event, so no spill file is ever half-written.
	SpillWrite
	// SpillRead fires before the spill tier faults a block back in from
	// disk. The read is retried a bounded number of times; persistent
	// faults fail the pinning delivery, and the run's retry re-derives the
	// block from upstream.
	SpillRead

	numSites = 8
)

// Sites lists every defined site.
func Sites() []Site {
	return []Site{HashInsert, AggUpsert, BlockMaterialize, SortRun, Repartition, SpillWrite, SpillRead}
}

// String returns the site's name.
func (s Site) String() string {
	switch s {
	case HashInsert:
		return "hash_insert"
	case AggUpsert:
		return "agg_upsert"
	case BlockMaterialize:
		return "block_materialize"
	case SortRun:
		return "sort_run"
	case Repartition:
		return "repartition"
	case SpillWrite:
		return "spill_write"
	case SpillRead:
		return "spill_read"
	default:
		return fmt.Sprintf("site(%d)", uint8(s))
	}
}

// Kind is the failure mode of an injected fault.
type Kind uint8

// The failure modes.
const (
	// KindError makes At return a *Fault error.
	KindError Kind = iota
	// KindPanic makes At panic with a *Fault value.
	KindPanic
	// KindLatency makes At sleep (bounded by Config.MaxLatency) and return
	// nil: the work order slows down but does not fail, exercising the
	// scheduler under slow work orders.
	KindLatency
	// KindAlloc models an allocation failure: At returns a *Fault error
	// distinguished from KindError only for reporting.
	KindAlloc
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	case KindAlloc:
		return "alloc"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fault is one injected fault. It implements error and is classified
// transient, so the scheduler rolls the attempt back and retries it.
type Fault struct {
	Site Site
	Kind Kind
	Seq  uint64 // the site consultation index that fired
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("faults: injected %s fault at %s (seq %d)", f.Kind, f.Site, f.Seq)
}

// Transient reports that injected faults are safe to retry.
func (f *Fault) Transient() bool { return true }

// Event is one fired fault in the schedule log.
type Event struct {
	Site Site
	Seq  uint64
	Kind Kind
}

// Config configures an Injector.
type Config struct {
	// Seed drives every injection decision. The same seed yields the same
	// per-site decision sequence.
	Seed uint64
	// Rate is the default per-consultation fault probability for every
	// site in [0, 1].
	Rate float64
	// Rates overrides Rate per site.
	Rates map[Site]float64
	// Kinds are the enabled failure modes; empty enables all of them. The
	// kind of a fired fault is chosen deterministically from the decision
	// hash.
	Kinds []Kind
	// MaxLatency bounds KindLatency sleeps (default 200µs).
	MaxLatency time.Duration
}

// Injector decides fault injection at named sites. All methods are safe for
// concurrent use.
type Injector struct {
	seed       uint64
	thresh     [numSites]uint64
	kinds      []Kind
	maxLatency time.Duration

	seq      [numSites]atomic.Uint64
	injected atomic.Int64

	// replay, if non-nil, overrides probabilistic decisions: exactly the
	// scheduled (site, seq) pairs fire.
	replay [numSites]map[uint64]Kind

	mu  sync.Mutex
	log []Event
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	in := &Injector{
		seed:       cfg.Seed,
		kinds:      cfg.Kinds,
		maxLatency: cfg.MaxLatency,
	}
	if len(in.kinds) == 0 {
		in.kinds = []Kind{KindError, KindPanic, KindLatency, KindAlloc}
	}
	if in.maxLatency <= 0 {
		in.maxLatency = 200 * time.Microsecond
	}
	for _, s := range Sites() {
		rate := cfg.Rate
		if r, ok := cfg.Rates[s]; ok {
			rate = r
		}
		in.thresh[s] = rateThreshold(rate)
	}
	return in
}

// Replay returns an injector that fires exactly the events of a previously
// recorded schedule (kinds included) and nothing else.
func Replay(schedule []Event) *Injector {
	in := &Injector{maxLatency: 200 * time.Microsecond}
	for i := range in.replay {
		in.replay[i] = make(map[uint64]Kind)
	}
	for _, ev := range schedule {
		in.replay[ev.Site][ev.Seq] = ev.Kind
	}
	return in
}

// rateThreshold maps a probability to a uint64 comparison threshold.
func rateThreshold(rate float64) uint64 {
	switch {
	case rate <= 0:
		return 0
	case rate >= 1:
		return math.MaxUint64
	default:
		return uint64(rate * float64(math.MaxUint64))
	}
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// decide returns whether consultation n of site fires and, if so, the kind.
func (in *Injector) decide(site Site, n uint64) (Kind, bool) {
	if in.replay[site] != nil {
		k, ok := in.replay[site][n]
		return k, ok
	}
	h := mix64(in.seed ^ mix64(uint64(site)+1) ^ mix64(n+0x9e3779b97f4a7c15))
	if h >= in.thresh[site] {
		return 0, false
	}
	return in.kinds[mix64(h)%uint64(len(in.kinds))], true
}

// At consults the injector at site. Most calls return nil. When a fault
// fires it is logged, then: KindError and KindAlloc return a *Fault error,
// KindPanic panics with a *Fault, and KindLatency sleeps a deterministic
// duration (bounded by MaxLatency) and returns nil.
func (in *Injector) At(site Site) error {
	n := in.seq[site].Add(1) - 1
	kind, fire := in.decide(site, n)
	if !fire {
		return nil
	}
	in.injected.Add(1)
	in.mu.Lock()
	in.log = append(in.log, Event{Site: site, Seq: n, Kind: kind})
	in.mu.Unlock()
	f := &Fault{Site: site, Kind: kind, Seq: n}
	switch kind {
	case KindPanic:
		panic(f)
	case KindLatency:
		d := time.Duration(mix64(n+uint64(site)+7) % uint64(in.maxLatency))
		time.Sleep(d)
		return nil
	default: // KindError, KindAlloc
		return f
	}
}

// Injected returns the number of faults fired so far (all kinds, latency
// included).
func (in *Injector) Injected() int64 { return in.injected.Load() }

// Schedule returns a copy of the fired-fault log in firing order. Two
// single-worker runs with the same seed over the same plan produce equal
// schedules; the log can be fed to Replay to reproduce the run's faults
// exactly.
func (in *Injector) Schedule() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.log))
	copy(out, in.log)
	return out
}
