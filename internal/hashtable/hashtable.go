// Package hashtable implements the non-partitioned join hash table used by
// the engine: sharded for concurrent build, with buckets in groups of eight
// slots behind one 64-bit control word of 7-bit hash tags (the c/f memory
// model of Section VI-B of the paper is c = EntryBytes(keys), f = MaxLoad),
// duplicate keys returned in insertion order, and payload tuples stored in
// row-store blocks so probe residual predicates can evaluate directly over
// build-side rows.
package hashtable

import (
	"fmt"
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

// entry is one bucket slot's first key and payload reference. A two-key
// table keeps the second key in its shard's k1 array, indexed like the
// slots, so a one-key table pays nothing for it.
type entry struct {
	k0  int64
	blk uint32 // payload block index within the shard (keyOnly for none)
	row uint32 // payload row within that block
}

// group is eight slots: a control word of one byte per slot (ctrlEmpty, or
// the slot's 7-bit hash tag) stored beside the slots' entries, so a lookup
// tests all eight tags with one word compare and then reads entries from
// the same few cache lines.
type group struct {
	ctrl uint64
	ents [groupSlots]entry
}

const (
	groupSlots = 8
	groupBytes = int64(unsafe.Sizeof(group{}))
	// k1GroupBytes is one group's share of a two-key table's k1 array.
	k1GroupBytes = groupSlots * 8
	// maxLoadSlots is how many of a group's slots a shard may fill on
	// average before it grows.
	maxLoadSlots = 7

	ctrlEmpty = 0x80
	lsbs      = 0x0101010101010101
	msbs      = 0x8080808080808080
	allEmpty  = ctrlEmpty * lsbs

	// keyOnly marks an entry with no payload row.
	keyOnly = ^uint32(0)
)

// MaxLoad is the load factor f of Section VI-B: a shard grows before more
// than 7 of every 8 slots are full.
const MaxLoad = float64(maxLoadSlots) / groupSlots

// Payload tuples live in per-shard row-store blocks. Only a shard's last
// block has free rows, so a shard leaves less than one block unused: the
// first block is small so tiny dimension tables stay cheap, later blocks are
// a little larger so big builds allocate less often.
const (
	payloadBlockBytesFirst = 4 << 10
	payloadBlockBytes      = 16 << 10
)

const numShards = 64

type shard struct {
	mu      sync.Mutex
	groups  []group
	k1      []int64 // two-key tables: the second key of slot g*groupSlots+i; nil for one key
	mask    uint64  // len(groups) - 1
	count   int
	payload []*storage.Block
}

// Table is a concurrent join hash table keyed by one or two 64-bit integers.
type Table struct {
	shards      [numShards]shard
	keys        int // 1 or 2
	payloadSch  *storage.Schema
	gauge       *stats.MemGauge // may be nil
	releaseOnce sync.Once
}

// Config parameterizes a table.
type Config struct {
	// PayloadSchema describes the build-side columns stored per entry.
	PayloadSchema *storage.Schema
	// Keys is the number of key columns, 1 or 2; zero means 1. A one-key
	// table stores no second key, so inserting one panics.
	Keys int
	// InitialCapacity is a hint of total entries. Defaults to 1024.
	InitialCapacity int
	// Gauge, if non-nil, tracks the table's live bytes.
	Gauge *stats.MemGauge
}

// New returns an empty table in which each shard has the fewest groups that
// give one slot per entry of its share of InitialCapacity, plus one. Sizing
// by slots, not by MaxLoad, keeps an overestimated build from starting with
// groups it never fills; an exact estimate grows its shards once.
func New(cfg Config) *Table {
	if cfg.InitialCapacity <= 0 {
		cfg.InitialCapacity = 1024
	}
	switch cfg.Keys {
	case 0:
		cfg.Keys = 1
	case 1, 2:
	default:
		panic("hashtable: a table has 1 or 2 keys")
	}
	t := &Table{keys: cfg.Keys, payloadSch: cfg.PayloadSchema, gauge: cfg.Gauge}
	groups := nextPow2((cfg.InitialCapacity/numShards + groupSlots) / groupSlots)
	for i := range t.shards {
		t.shards[i].setGroups(groups, t.keys == 2)
	}
	if t.gauge != nil {
		t.gauge.Add(numShards * int64(groups) * t.perGroup())
	}
	return t
}

// perGroup is the bytes one group costs: its control word and entries, plus
// its second keys in a two-key table.
func (t *Table) perGroup() int64 { return int64(EntryBytes(t.keys)) * groupSlots }

// setGroups replaces the shard's groups (and, with twoKeys, its k1 array)
// with n empty ones.
func (s *shard) setGroups(n int, twoKeys bool) {
	s.groups = make([]group, n)
	for i := range s.groups {
		s.groups[i].ctrl = allEmpty
	}
	s.k1 = nil
	if twoKeys {
		s.k1 = make([]int64, n*groupSlots)
	}
	s.mask = uint64(n - 1)
}

// key1 returns the second key of slot i of group g: 0 in a one-key table.
func (s *shard) key1(g uint64, i int) int64 {
	if s.k1 == nil {
		return 0
	}
	return s.k1[g*groupSlots+uint64(i)]
}

// checkKey1 panics on a second key a one-key table cannot store.
func (t *Table) checkKey1(k1 int64) {
	if t.keys == 1 && k1 != 0 {
		panic("hashtable: two-key insert into a one-key table")
	}
}

// hashKey produces the hash of (k0, k1), identical to types.HashPairVec's.
func hashKey(k0, k1 int64) uint64 {
	h := types.HashPair(k0, k1)
	if h == 0 {
		h = 1
	}
	return h
}

// shardOf selects the destination shard: hash bits 48–53, independent of the
// tag (bits 0–6), the group index (bits 7 and up, masked far below 48 in
// practice) and the aggregation radix's top bits.
func shardOf(h uint64) uint64 { return (h >> 48) & (numShards - 1) }

// tagOf returns h's 7-bit control tag broadcast to all eight bytes.
func tagOf(h uint64) uint64 { return (h & 0x7f) * lsbs }

// matchTag returns a word with the high bit set in each byte of ctrl equal to
// the broadcast tag. A borrow can also flag a full byte just above a true
// match; callers compare keys anyway. Empty bytes are never flagged.
func matchTag(ctrl, tag uint64) uint64 {
	x := ctrl ^ tag
	return (x - lsbs) &^ x & msbs
}

// slotOf turns the lowest flagged byte of a match word into a slot index.
func slotOf(m uint64) int { return bits.TrailingZeros64(m) >> 3 }

// reserve grows s until it holds n more entries within MaxLoad; caller holds
// the shard lock.
func (t *Table) reserve(s *shard, n int) {
	for s.count+n > len(s.groups)*maxLoadSlots {
		t.grow(s)
	}
}

// put stores e, and k1 in a two-key table, in the first free slot of h's
// group sequence. Groups fill slot 0 first and nothing is deleted, so the
// order of (group, slot) along a sequence is insertion order. Caller holds
// the lock and has reserved room.
func (s *shard) put(h uint64, e entry, k1 int64) {
	g := (h >> 7) & s.mask
	for {
		grp := &s.groups[g]
		if free := grp.ctrl & msbs; free != 0 {
			i := slotOf(free)
			grp.ctrl ^= (ctrlEmpty ^ h&0x7f) << (8 * i)
			grp.ents[i] = e
			if s.k1 != nil {
				s.k1[g*groupSlots+uint64(i)] = k1
			}
			s.count++
			return
		}
		g = (g + 1) & s.mask
	}
}

// Insert adds one entry whose payload is the projection projIdx of row
// srcRow of src. It is safe for concurrent use.
func (t *Table) Insert(k0, k1 int64, src *storage.Block, srcRow int, projIdx []int) {
	t.checkKey1(k1)
	h := hashKey(k0, k1)
	s := &t.shards[shardOf(h)]
	s.mu.Lock()
	pb := t.payloadBlock(s)
	prow := pb.NumRows()
	pb.AppendFrom(src, srcRow, projIdx)
	t.reserve(s, 1)
	s.put(h, entry{k0: k0, blk: uint32(len(s.payload) - 1), row: uint32(prow)}, k1)
	s.mu.Unlock()
}

// InsertKeyOnly adds an entry with no payload columns (semi/anti join builds
// that need only key existence). PayloadSchema must still be non-nil; a
// zero-column schema is fine.
func (t *Table) InsertKeyOnly(k0, k1 int64) {
	t.checkKey1(k1)
	h := hashKey(k0, k1)
	s := &t.shards[shardOf(h)]
	s.mu.Lock()
	t.reserve(s, 1)
	s.put(h, entry{k0: k0, blk: keyOnly}, k1)
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

func (t *Table) insertBlock(b *storage.Block, keyCols []int, projIdx []int, sc *InsertScratch, noPayload bool) int {
	if len(keyCols) != t.keys {
		panic(fmt.Sprintf("hashtable: %d-key insert into a %d-key table", len(keyCols), t.keys))
	}
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
		// Size the shard for the whole batch: the same final size as
		// growing row-at-a-time, but at most log2 resizes under one lock.
		t.reserve(s, int(cnt))
		if noPayload {
			for _, r := range rows {
				sc.put(s, r, keyOnly, 0)
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
					sc.put(s, rows[pos+j], blk, uint32(base+j))
				}
				pos += took
			}
		}
		s.mu.Unlock()
	}
	return locks
}

// put stores the entry of scratch row r in s; caller holds the shard lock
// and has reserved room for the batch.
func (sc *InsertScratch) put(s *shard, r int32, blk, prow uint32) {
	var k1 int64
	if sc.k1 != nil {
		k1 = sc.k1[r]
	}
	s.put(sc.hashes[r], entry{k0: sc.k0[r], blk: blk, row: prow}, k1)
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

// grow doubles a shard's groups; caller holds the shard lock. Old groups are
// rehashed in sequence order starting just past a group with a free slot. No
// group sequence runs through a free slot, so every sequence is re-inserted
// front to back and duplicates keep their insertion order.
func (t *Table) grow(s *shard) {
	old, oldK1 := s.groups, s.k1
	start := 0
	for i := range old {
		if old[i].ctrl&msbs != 0 {
			start = i + 1
			break
		}
	}
	s.setGroups(2*len(old), oldK1 != nil)
	s.count = 0
	for j := range old {
		g := (start + j) % len(old)
		grp := &old[g]
		for full := ^grp.ctrl & msbs; full != 0; full &= full - 1 {
			i := slotOf(full)
			var k1 int64
			if oldK1 != nil {
				k1 = oldK1[g*groupSlots+i]
			}
			s.put(hashKey(grp.ents[i].k0, k1), grp.ents[i], k1)
		}
	}
	if t.gauge != nil {
		t.gauge.Add(int64(len(old)) * t.perGroup()) // net growth = old size
	}
}

// Lookup calls fn for every entry matching (k0, k1), in insertion order,
// passing the payload block and row (nil block for key-only entries). fn
// returns false to stop early (semi-join existence checks). Lookup is safe
// for concurrent use with other lookups; the table must not be built
// concurrently with probing — the scheduler's blocking build→probe edge
// guarantees that.
func (t *Table) Lookup(k0, k1 int64, fn func(pb *storage.Block, row int) bool) {
	t.LookupHashed(hashKey(k0, k1), k0, k1, fn)
}

// LookupHashed is Lookup with the key hash precomputed (h must come from the
// same hash family, i.e. types.HashPairVec or HashPair forced non-zero).
// It is the row-at-a-time reference for Match.
func (t *Table) LookupHashed(h uint64, k0, k1 int64, fn func(pb *storage.Block, row int) bool) {
	s := &t.shards[shardOf(h)]
	if s.k1 == nil && k1 != 0 {
		return // a one-key table holds no second key
	}
	tag := tagOf(h)
	for g := (h >> 7) & s.mask; ; g = (g + 1) & s.mask {
		grp := &s.groups[g]
		for m := matchTag(grp.ctrl, tag); m != 0; m &= m - 1 {
			i := slotOf(m)
			e := &grp.ents[i]
			if e.k0 == k0 && s.key1(g, i) == k1 && !fn(s.block(e.blk), int(e.row)) {
				return
			}
		}
		if grp.ctrl&msbs != 0 {
			return
		}
	}
}

// block resolves a payload block index (nil for key-only entries).
func (s *shard) block(blk uint32) *storage.Block {
	if blk == keyOnly {
		return nil
	}
	return s.payload[blk]
}

// Ref locates one matched entry's payload row by index: shard, payload
// block within the shard, row within the block.
type Ref struct {
	Shard uint32
	Blk   uint32
	Row   uint32
}

// Matches is the output of Match: the i-th match pairs probe row Probe[i]
// with the entry at Ref[i]. It holds indexes, not blocks, so a pooled
// Matches never keeps a released table's payload alive.
type Matches struct {
	Probe []int32
	Ref   []Ref
}

// Match probes the table with a block of pre-hashed keys (k1 nil for
// single-key tables) and fills m with every matching entry, ordered by probe
// row and, within a row, by insertion — the pairs LookupHashed would report
// row by row. With firstOnly it stops at each row's first match (existence
// probes). m's vectors are reused across calls.
func (t *Table) Match(hashes []uint64, k0, k1 []int64, firstOnly bool, m *Matches) {
	m.Probe, m.Ref = m.Probe[:0], m.Ref[:0]
rows:
	for r, h := range hashes {
		a := k0[r]
		var b int64
		if k1 != nil {
			b = k1[r]
		}
		sIdx := shardOf(h)
		s := &t.shards[sIdx]
		if s.k1 == nil && b != 0 {
			continue // a one-key table holds no second key
		}
		tag := tagOf(h)
		for g := (h >> 7) & s.mask; ; g = (g + 1) & s.mask {
			grp := &s.groups[g]
			for hit := matchTag(grp.ctrl, tag); hit != 0; hit &= hit - 1 {
				i := slotOf(hit)
				e := &grp.ents[i]
				if e.k0 != a || s.key1(g, i) != b {
					continue
				}
				m.Probe = append(m.Probe, int32(r))
				m.Ref = append(m.Ref, Ref{Shard: uint32(sIdx), Blk: e.blk, Row: e.row})
				if firstOnly {
					continue rows
				}
			}
			if grp.ctrl&msbs != 0 {
				continue rows
			}
		}
	}
}

// Payload resolves a Ref from Match to its payload block and row (nil block
// for key-only entries).
func (t *Table) Payload(r Ref) (*storage.Block, int) {
	return t.shards[r.Shard].block(r.Blk), int(r.Row)
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

// TotalBytes returns the table's current memory footprint: bucket groups
// (with a two-key table's k1 arrays) plus payload blocks. This is the |H| of
// Section VI; the gauge holds the same sum.
func (t *Table) TotalBytes() int64 {
	return t.bytes((*storage.Block).AllocBytes)
}

// UsedBytes returns the table's randomly-accessed working set: bucket groups
// (and k1 arrays) plus payload bytes actually occupied by tuples. The cache
// model sizes probe-miss probabilities with this (allocation slack in
// payload blocks is never touched by probes).
func (t *Table) UsedBytes() int64 {
	return t.bytes((*storage.Block).UsedBytes)
}

func (t *Table) bytes(payloadBytes func(*storage.Block) int) int64 {
	var n int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += int64(len(s.groups)) * t.perGroup()
		for _, pb := range s.payload {
			n += int64(payloadBytes(pb))
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

// EntryBytes returns the bucket size c of Section VI-B for a table with the
// given number of keys: one control byte plus one 16-byte entry (17 B), plus
// the 8-byte second key of a two-key table (25 B).
func EntryBytes(keys int) int {
	c := groupBytes / groupSlots
	if keys == 2 {
		c += k1GroupBytes / groupSlots
	}
	return int(c)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
