package reuse

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/storage"
)

// Config sizes a Cache.
type Config struct {
	// Budget is the RAM budget in bytes for pinned entries. The session
	// layer carves it out of its MemoryBudget so admission control stays
	// truthful about what the cache holds. Required > 0. One entry may take
	// at most a quarter of it (see Admit).
	Budget int64
}

// Counters is a snapshot of the cache's statistics.
type Counters struct {
	Hits, Misses       int64 // Lookup outcomes
	Admissions         int64 // entries accepted
	RejectedAdmissions int64 // entries refused (size, benefit, or races)
	Evictions          int64 // entries dropped to make room
	Invalidations      int64 // entries dropped on a base-table version bump
	FlightLeaders      int64 // single-flight computations started
	FlightWaits        int64 // submissions that waited on a leader

	Entries     int64 // current entry count
	BytesPinned int64 // current RAM bytes held by the entries
	Pins        int64 // currently outstanding entry pins
}

// entry is one cached subplan result, resident in RAM.
type entry struct {
	fp      Fingerprint
	table   *storage.Table
	deps    []Dep
	bytes   int64 // RAM alloc bytes
	rows    int64
	benefit float64 // recompute ticks per byte (admission/eviction rank)
	ops     int
	pins    int
	clock   int64 // last-use tick for benefit ties
}

// flight is one in-progress cold computation other submissions of the same
// fingerprint wait on.
type flight struct {
	done chan struct{}
}

// Cache is the cross-query result cache. All methods are safe for
// concurrent use.
type Cache struct {
	mu      sync.Mutex
	cfg     Config
	entries map[Fingerprint]*entry
	flights map[Fingerprint]*flight
	ram     int64
	pins    int64
	clock   int64
	closed  bool
	ctr     Counters
}

// New returns an empty cache. It panics on a non-positive budget — a
// misconfiguration better surfaced at startup.
func New(cfg Config) *Cache {
	if cfg.Budget <= 0 {
		panic("reuse: cache needs a positive Budget")
	}
	return &Cache{
		cfg:     cfg,
		entries: make(map[Fingerprint]*entry),
		flights: make(map[Fingerprint]*flight),
	}
}

// maxEntryShare is the largest fraction of the budget one entry may take: a
// single huge entry that evicts everything else is rarely the benefit-optimal
// use of the budget.
const maxEntryShare = 4

// Entry is a pinned handle on a cache hit: the entry cannot be evicted or
// invalidated away while pinned. Release it when the consuming run is over.
type Entry struct {
	c  *Cache
	e  *entry
	t  *storage.Table
	fp Fingerprint
}

// Table returns the pinned, immutable result block set as a scannable
// table.
func (h *Entry) Table() *storage.Table { return h.t }

// Bytes returns the entry's RAM footprint.
func (h *Entry) Bytes() int64 { return h.e.bytes }

// Rows returns the entry's row count.
func (h *Entry) Rows() int64 { return h.e.rows }

// Release unpins the entry. Safe to call once per Lookup.
func (h *Entry) Release() {
	c := h.c
	c.mu.Lock()
	h.e.pins--
	c.pins--
	c.mu.Unlock()
}

// Lookup probes the cache. On a hit the entry is validated against its base
// table versions (stale entries are dropped and the probe misses), pinned,
// and returned; nil is a miss.
func (c *Cache) Lookup(fp Fingerprint) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fp]
	if ok && c.closed {
		ok = false
	}
	if ok && stale(e.deps) {
		c.dropLocked(e, &c.ctr.Invalidations)
		ok = false
	}
	if !ok {
		c.ctr.Misses++
		return nil
	}
	c.clock++
	e.clock = c.clock
	e.pins++
	c.pins++
	c.ctr.Hits++
	return &Entry{c: c, e: e, t: e.table, fp: fp}
}

// Admit offers a materialized result to the cache. A result over a quarter of
// the budget is rejected outright. The entry's rank is its
// recompute cost per byte — the conservative costmodel floor for a
// subtree of ops operators, or the measured recompute time in ticks if
// larger. Admission may evict strictly lower-benefit unpinned entries to make
// room; if room cannot be made (everything resident is pinned or more
// valuable), the candidate is rejected. Returns whether the entry was
// admitted — rejected tables stay owned by the caller — and the byte size of
// every entry evicted on the way, which a rejected candidate may also have
// caused: the caller knows which run's trace section to attribute them to.
func (c *Cache) Admit(fp Fingerprint, t *storage.Table, deps []Dep, measuredTicks float64, ops int) (admitted bool, evicted []int64) {
	bytes := t.AllocBytes()
	benefit := costmodel.RecomputeCost(bytes, ops)
	if measuredTicks > benefit {
		benefit = measuredTicks
	}
	if bytes > 0 {
		benefit /= float64(bytes)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || bytes > c.cfg.Budget/maxEntryShare {
		c.ctr.RejectedAdmissions++
		return false, nil
	}
	if _, ok := c.entries[fp]; ok {
		c.ctr.RejectedAdmissions++ // a concurrent fill won the race
		return false, nil
	}
	if stale(deps) {
		c.ctr.RejectedAdmissions++ // base table moved during the fill
		return false, nil
	}
	// Fingerprints cover base-table versions, so an entry with a stale dep
	// can never be looked up again (Lookup's lazy check cannot reach it):
	// free those first instead of letting them hold budget at their old
	// benefit until eviction happens to pick them.
	for _, e := range c.entries {
		if e.pins == 0 && stale(e.deps) {
			c.dropLocked(e, &c.ctr.Invalidations)
		}
	}
	ok, evicted := c.makeRoomLocked(bytes, benefit)
	if !ok {
		c.ctr.RejectedAdmissions++
		return false, evicted
	}
	c.clock++
	c.entries[fp] = &entry{
		fp: fp, table: t, deps: deps, bytes: bytes, rows: t.NumRows(),
		benefit: benefit, ops: ops, clock: c.clock,
	}
	c.ram += bytes
	c.ctr.Admissions++
	return true, evicted
}

// stale reports whether any dep's base table has moved past the version the
// result was computed against.
func stale(deps []Dep) bool {
	for _, d := range deps {
		if d.Table.Version() != d.Version {
			return true
		}
	}
	return false
}

// makeRoomLocked frees RAM for an incoming entry of the given size and
// benefit rank by evicting coldest-first (lowest benefit, oldest use), and
// returns the sizes of the entries it evicted. A victim at least as valuable
// as the candidate stops the scan — benefit-ranked admission means the
// newcomer loses instead.
func (c *Cache) makeRoomLocked(bytes int64, benefit float64) (ok bool, evicted []int64) {
	for c.ram+bytes > c.cfg.Budget {
		v := c.victimLocked()
		if v == nil || v.benefit >= benefit {
			return false, evicted
		}
		c.dropLocked(v, &c.ctr.Evictions)
		evicted = append(evicted, v.bytes)
	}
	return true, evicted
}

// victimLocked returns the lowest-ranked unpinned entry (nil if none).
func (c *Cache) victimLocked() *entry {
	var v *entry
	for _, e := range c.entries {
		if e.pins > 0 {
			continue
		}
		if v == nil || e.benefit < v.benefit ||
			(e.benefit == v.benefit && e.clock < v.clock) {
			v = e
		}
	}
	return v
}

// dropLocked removes an entry entirely, counting it against the given
// counter.
func (c *Cache) dropLocked(e *entry, counter *int64) {
	c.ram -= e.bytes
	delete(c.entries, e.fp)
	*counter++
}

// Flight begins or joins the single-flight computation for fp. The first
// caller since the last completion becomes the leader (wait == nil) and
// must call done() when its fill attempt is over, successful or not; other
// callers get a wait function that blocks until the leader finishes (or
// ctx is cancelled), after which a Lookup will hit if the fill succeeded.
func (c *Cache) Flight(fp Fingerprint) (leader bool, wait func(context.Context) error, done func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[fp]; ok {
		c.ctr.FlightWaits++
		return false, func(ctx context.Context) error {
			if ctx == nil {
				<-f.done
				return nil
			}
			select {
			case <-f.done:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[fp] = f
	c.ctr.FlightLeaders++
	return true, nil, func() {
		c.mu.Lock()
		delete(c.flights, fp)
		c.mu.Unlock()
		close(f.done)
	}
}

// Has reports whether fp is cached (without pinning or counting a probe).
func (c *Cache) Has(fp Fingerprint) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[fp]
	return ok
}

// Counters snapshots the cache statistics.
func (c *Cache) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr := c.ctr
	ctr.Entries = int64(len(c.entries))
	ctr.BytesPinned = c.ram
	ctr.Pins = c.pins
	return ctr
}

// Close drops every entry. It returns an error if any entry is still pinned
// — a leaked pin means a run kept a handle past its lifetime, the reuse
// analogue of a leaked block.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.pins != 0 {
		return fmt.Errorf("reuse: %d entry pins outstanding at Close", c.pins)
	}
	for fp := range c.entries {
		delete(c.entries, fp)
	}
	c.ram = 0
	return nil
}
