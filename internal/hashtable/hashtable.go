// Package hashtable implements the non-partitioned join hash table used by
// the engine: sharded for concurrent build, linear probing with fixed-size
// bucket entries and a configurable load factor (the c/f memory model of
// Section VI-B of the paper), duplicate keys, and payload tuples stored in
// row-store blocks so probe residual predicates can evaluate directly over
// build-side rows.
package hashtable

import (
	"sync"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

// entry is one bucket slot. The fixed entry size plays the role of the
// paper's bucket size c.
type entry struct {
	hash uint64 // 0 means empty (hashes are forced non-zero)
	k0   int64
	k1   int64
	blk  uint32 // payload block index within the shard
	row  uint32 // payload row within that block
}

// entryBytes is the in-memory size of one bucket slot (c in Section VI-B).
const entryBytes = 40

// Payload tuples live in per-shard row-store blocks: the first block of a
// shard is small so tiny dimension tables stay cheap, later blocks are large
// so big builds amortize allocation.
const (
	payloadBlockBytesFirst = 4 << 10
	payloadBlockBytes      = 64 << 10
)

const numShards = 64

type shard struct {
	mu      sync.Mutex
	slots   []entry
	mask    uint64
	count   int
	payload []*storage.Block
}

// Table is a concurrent join hash table keyed by one or two 64-bit integers.
type Table struct {
	shards      [numShards]shard
	payloadSch  *storage.Schema
	loadFactor  float64
	gauge       *stats.MemGauge // may be nil
	releaseOnce sync.Once
}

// Config parameterizes a table.
type Config struct {
	// PayloadSchema describes the build-side columns stored per entry.
	PayloadSchema *storage.Schema
	// LoadFactor is the occupancy threshold that triggers shard resize
	// (f in Section VI-B). Defaults to 0.75.
	LoadFactor float64
	// InitialCapacity is a hint of total entries. Defaults to 1024.
	InitialCapacity int
	// Gauge, if non-nil, tracks the table's live bytes.
	Gauge *stats.MemGauge
}

// New returns an empty table.
func New(cfg Config) *Table {
	if cfg.LoadFactor <= 0 || cfg.LoadFactor > 1 {
		cfg.LoadFactor = 0.75
	}
	if cfg.InitialCapacity <= 0 {
		cfg.InitialCapacity = 1024
	}
	t := &Table{payloadSch: cfg.PayloadSchema, loadFactor: cfg.LoadFactor, gauge: cfg.Gauge}
	var total int64
	per := nextPow2(cfg.InitialCapacity/numShards + 1)
	if per < 8 {
		per = 8
	}
	for i := range t.shards {
		t.shards[i].slots = make([]entry, per)
		t.shards[i].mask = uint64(per - 1)
		total += int64(per) * entryBytes
	}
	if t.gauge != nil {
		t.gauge.Add(total)
	}
	return t
}

// hashKey produces a non-zero hash for (k0, k1).
func hashKey(k0, k1 int64) uint64 {
	h := types.HashPair(k0, k1)
	if h == 0 {
		h = 1
	}
	return h
}

// shardOf selects the destination shard: hash bits 48–53 (independent of the
// low slot-index bits and the aggregation radix's top bits).
func shardOf(h uint64) uint64 { return (h >> 48) & (numShards - 1) }

// Insert adds one entry whose payload is the projection projIdx of row
// srcRow of src. It is safe for concurrent use.
func (t *Table) Insert(k0, k1 int64, src *storage.Block, srcRow int, projIdx []int) {
	h := hashKey(k0, k1)
	s := &t.shards[shardOf(h)]
	s.mu.Lock()
	// Copy payload.
	pb := t.payloadBlock(s)
	prow := pb.NumRows()
	pb.AppendFrom(src, srcRow, projIdx)

	if float64(s.count+1) > t.loadFactor*float64(len(s.slots)) {
		t.grow(s)
	}
	i := h & s.mask
	for s.slots[i].hash != 0 {
		i = (i + 1) & s.mask
	}
	s.slots[i] = entry{hash: h, k0: k0, k1: k1, blk: uint32(len(s.payload) - 1), row: uint32(prow)}
	s.count++
	s.mu.Unlock()
}

// InsertScratch holds the reusable buffers of the block-granular insert
// kernels: gathered key columns, the hash vector, and the shard-partitioned
// row-index permutation. One scratch serves any number of sequential
// InsertBlock calls; operators pool scratches across work orders so the
// steady state allocates nothing per block. A scratch must not be used by
// two goroutines at once.
type InsertScratch struct {
	k0     []int64
	k1     []int64
	hashes []uint64
	rows   []int32 // row indexes grouped by shard (counting sort)
	counts [numShards]int32
}

// Keys returns the key columns gathered by the last InsertBlock /
// InsertBlockKeyOnly call (k1 is nil for single-key tables). Callers reuse
// them to feed sibling per-key structures — the LIP bloom filter build reads
// k0 instead of re-gathering the column. Valid until the next kernel call.
func (sc *InsertScratch) Keys() (k0, k1 []int64) { return sc.k0, sc.k1 }

// Hashes returns the hash vector of the last kernel call (same lifetime as
// Keys).
func (sc *InsertScratch) Hashes() []uint64 { return sc.hashes }

// gather pulls the key columns of b into the scratch (one strided
// GatherInt64 pass per column, not n cell lookups) and hashes them.
func (sc *InsertScratch) gather(b *storage.Block, keyCols []int) {
	sc.k0 = b.GatherInt64(keyCols[0], sc.k0)
	if len(keyCols) == 2 {
		sc.k1 = b.GatherInt64(keyCols[1], sc.k1)
	} else {
		sc.k1 = nil
	}
	sc.hashes = types.HashPairVec(sc.k0, sc.k1, sc.hashes)
}

// partition counting-sorts row indexes 0..n-1 by destination shard. Within a
// shard, rows keep block order, so a batched build lays payloads out exactly
// like the row-at-a-time reference path.
func (sc *InsertScratch) partition() {
	n := len(sc.hashes)
	if cap(sc.rows) < n {
		sc.rows = make([]int32, n)
	}
	sc.rows = sc.rows[:n]
	for i := range sc.counts {
		sc.counts[i] = 0
	}
	for _, h := range sc.hashes {
		sc.counts[shardOf(h)]++
	}
	var offs [numShards]int32
	var sum int32
	for i, c := range sc.counts {
		offs[i] = sum
		sum += c
	}
	for r, h := range sc.hashes {
		s := shardOf(h)
		sc.rows[offs[s]] = int32(r)
		offs[s]++
	}
}

// InsertBlock adds every row of b in one block-granular pass: the key
// columns are gathered and hashed vectorized (types.HashPairVec), row
// indexes are partitioned by shard, and each touched shard's lock is taken
// once for the whole block — 64 acquisitions per 64K rows instead of 64K —
// with payload rows and slots bulk-appended under it. The result is
// identical to calling Insert per row in block order (same payload layout,
// same slot placement, same TotalBytes). It is safe for concurrent use with
// other inserts; sc must be private to the caller (pass a pooled scratch).
// It returns the number of shard-lock acquisitions performed.
func (t *Table) InsertBlock(b *storage.Block, keyCols []int, projIdx []int, sc *InsertScratch) int {
	return t.insertBlock(b, keyCols, projIdx, sc, false)
}

// InsertBlockKeyOnly is InsertBlock for key-only entries (semi/anti builds):
// no payload rows are stored, only key existence.
func (t *Table) InsertBlockKeyOnly(b *storage.Block, keyCols []int, sc *InsertScratch) int {
	return t.insertBlock(b, keyCols, nil, sc, true)
}

func (t *Table) insertBlock(b *storage.Block, keyCols []int, projIdx []int, sc *InsertScratch, keyOnly bool) int {
	n := b.NumRows()
	if n == 0 {
		return 0
	}
	sc.gather(b, keyCols)
	sc.partition()
	locks := 0
	start := int32(0)
	for sIdx := 0; sIdx < numShards; sIdx++ {
		cnt := sc.counts[sIdx]
		if cnt == 0 {
			continue
		}
		rows := sc.rows[start : start+cnt]
		start += cnt
		s := &t.shards[sIdx]
		s.mu.Lock()
		locks++
		// Pre-size the slot array for the whole batch: same final size as
		// growing row-at-a-time, but at most log2 resizes under one lock.
		for float64(s.count+int(cnt)) > t.loadFactor*float64(len(s.slots)) {
			t.grow(s)
		}
		if keyOnly {
			for _, r := range rows {
				t.insertSlot(s, sc, r, ^uint32(0), 0)
			}
		} else {
			// Bulk-copy payload rows block-at-a-time (AppendFromMany
			// resolves column layouts once per payload block, not once per
			// cell), then write the slots for the rows that landed there.
			pos := 0
			for pos < len(rows) {
				pb := t.payloadBlock(s)
				base := pb.NumRows()
				took := pb.AppendFromMany(b, rows[pos:], projIdx)
				blk := uint32(len(s.payload) - 1)
				for j := 0; j < took; j++ {
					t.insertSlot(s, sc, rows[pos+j], blk, uint32(base+j))
				}
				pos += took
			}
		}
		s.mu.Unlock()
	}
	return locks
}

// insertSlot writes the bucket entry for scratch row r; caller holds the
// shard lock and has pre-grown the slot array for the batch.
func (t *Table) insertSlot(s *shard, sc *InsertScratch, r int32, blk, prow uint32) {
	h := sc.hashes[r]
	i := h & s.mask
	for s.slots[i].hash != 0 {
		i = (i + 1) & s.mask
	}
	k0 := sc.k0[r]
	var k1 int64
	if sc.k1 != nil {
		k1 = sc.k1[r]
	}
	s.slots[i] = entry{hash: h, k0: k0, k1: k1, blk: blk, row: prow}
	s.count++
}

// payloadBlock returns the shard's current non-full payload block,
// allocating a new one if needed; caller holds the shard lock.
func (t *Table) payloadBlock(s *shard) *storage.Block {
	if n := len(s.payload); n > 0 && !s.payload[n-1].Full() {
		return s.payload[n-1]
	}
	size := payloadBlockBytes
	if len(s.payload) == 0 {
		size = payloadBlockBytesFirst
	}
	pb := storage.NewBlock(t.payloadSch, storage.RowStore, size)
	s.payload = append(s.payload, pb)
	if t.gauge != nil {
		t.gauge.Add(int64(pb.AllocBytes()))
	}
	return pb
}

// InsertKeyOnly adds an entry with no payload columns (semi/anti join builds
// that need only key existence). PayloadSchema must still be non-nil; a
// zero-column schema is fine.
func (t *Table) InsertKeyOnly(k0, k1 int64) {
	h := hashKey(k0, k1)
	s := &t.shards[shardOf(h)]
	s.mu.Lock()
	if float64(s.count+1) > t.loadFactor*float64(len(s.slots)) {
		t.grow(s)
	}
	i := h & s.mask
	for s.slots[i].hash != 0 {
		i = (i + 1) & s.mask
	}
	s.slots[i] = entry{hash: h, k0: k0, k1: k1, blk: ^uint32(0)}
	s.count++
	s.mu.Unlock()
}

// grow doubles a shard's slot array; caller holds the shard lock.
func (t *Table) grow(s *shard) {
	old := s.slots
	ns := make([]entry, len(old)*2)
	mask := uint64(len(ns) - 1)
	for _, e := range old {
		if e.hash == 0 {
			continue
		}
		i := e.hash & mask
		for ns[i].hash != 0 {
			i = (i + 1) & mask
		}
		ns[i] = e
	}
	s.slots = ns
	s.mask = mask
	if t.gauge != nil {
		t.gauge.Add(int64(len(old)) * entryBytes) // net growth = old size
	}
}

// Lookup calls fn for every entry matching (k0, k1), passing the payload
// block and row (nil block for key-only entries). fn returns false to stop
// early (semi-join existence checks). Lookup is safe for concurrent use with
// other lookups; the table must not be built concurrently with probing — the
// scheduler's blocking build→probe edge guarantees that.
func (t *Table) Lookup(k0, k1 int64, fn func(pb *storage.Block, row int) bool) {
	t.LookupHashed(hashKey(k0, k1), k0, k1, fn)
}

// LookupHashed is Lookup with the key hash precomputed (h must come from the
// same hash family, i.e. types.HashPairVec or HashPair forced non-zero).
// The probe kernel hashes a whole block of keys in one vectorized pass and
// probes with this to avoid re-hashing per row.
func (t *Table) LookupHashed(h uint64, k0, k1 int64, fn func(pb *storage.Block, row int) bool) {
	s := &t.shards[shardOf(h)]
	i := h & s.mask
	for {
		e := &s.slots[i]
		if e.hash == 0 {
			return
		}
		if e.hash == h && e.k0 == k0 && e.k1 == k1 {
			var pb *storage.Block
			if e.blk != ^uint32(0) {
				pb = s.payload[e.blk]
			}
			if !fn(pb, int(e.row)) {
				return
			}
		}
		i = (i + 1) & s.mask
	}
}

// Contains reports whether any entry matches (k0, k1).
func (t *Table) Contains(k0, k1 int64) bool {
	found := false
	t.Lookup(k0, k1, func(*storage.Block, int) bool {
		found = true
		return false
	})
	return found
}

// Len returns the total number of entries.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += t.shards[i].count
		t.shards[i].mu.Unlock()
	}
	return n
}

// TotalBytes returns the table's current memory footprint: bucket slots plus
// payload blocks. This is the |H| of Section VI.
func (t *Table) TotalBytes() int64 {
	var n int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += int64(len(s.slots)) * entryBytes
		for _, pb := range s.payload {
			n += int64(pb.AllocBytes())
		}
		s.mu.Unlock()
	}
	return n
}

// UsedBytes returns the table's randomly-accessed working set: bucket slots
// plus payload bytes actually occupied by tuples. The cache model sizes
// probe-miss probabilities with this (allocation slack in payload blocks is
// never touched by probes).
func (t *Table) UsedBytes() int64 {
	var n int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += int64(len(s.slots)) * entryBytes
		for _, pb := range s.payload {
			n += int64(pb.UsedBytes())
		}
		s.mu.Unlock()
	}
	return n
}

// Release returns the table's bytes to the gauge; call when the table's
// consumer operator finishes. Release is idempotent, so plans in which
// several probes share one hash table release it safely.
func (t *Table) Release() {
	t.releaseOnce.Do(func() {
		if t.gauge != nil {
			t.gauge.Sub(t.TotalBytes())
		}
	})
}

// PayloadSchema returns the build-side payload schema.
func (t *Table) PayloadSchema() *storage.Schema { return t.payloadSch }

// EntryBytes returns the fixed bucket size c used by this implementation.
func EntryBytes() int { return entryBytes }

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
