// Package hashtable implements the engine's join table: an append-only entry
// store, split into writer shards for concurrent build, and an index chosen
// once the build is done.
//
// A build appends a whole block to one writer shard, the one its call holds:
// each row's key (or key pair) goes to the shard's key chunks and its payload
// columns to the shard's row-store payload blocks, so entry i of a shard is
// key i and payload row i; nothing is written at random. One writer fills
// shard 0 alone, in insertion order; W concurrent writers use at most W
// shards. Seal then picks the index from the entry count and key range it
// saw:
//
//   - dense (one-key tables only): an offset per key of [min, max] into one
//     4-byte entry ref per row, in per-key insertion order. The key chunks
//     are freed after the fill; a key-only table keeps only the offsets.
//   - hash: 64 index partitions chosen by hash bits, each groups of eight
//     5-byte slots (a 7-bit hash tag in one 64-bit control word, and a
//     4-byte Ref: writer shard and entry index), sized exactly from the
//     partition's entry count at load MaxLoad. The store keeps the keys.
//
// Dense is chosen only when its bytes are no more than the hash groups', so
// no table is larger than its hash alternative (the c/f memory model of
// Section VI-B of the paper: c = SlotBytes plus KeyBytes(keys) per entry,
// f = MaxLoad; dense costs OffsetBytes per key of the range and RefBytes per
// entry). Duplicate keys come back in insertion order under either index,
// and payload tuples stay in row-store blocks so probe residual predicates
// evaluate directly over build-side rows.
package hashtable

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

// group is eight hash slots: a control word of one byte per slot (ctrlEmpty,
// or the slot's 7-bit hash tag) beside the slots' entries, so a lookup tests
// all eight tags with one word compare.
type group struct {
	ctrl uint64
	refs [groupSlots]Ref
}

const (
	groupSlots = 8
	groupBytes = 8 + 4*groupSlots
	// maxLoadSlots is how many of a group's slots an index partition may
	// fill on average.
	maxLoadSlots = 7

	ctrlEmpty = 0x80
	lsbs      = 0x0101010101010101
	msbs      = 0x8080808080808080
	allEmpty  = ctrlEmpty * lsbs
)

// The Section VI-B costs of the two index kinds.
const (
	// SlotBytes is a hash slot: one control byte and a 4-byte Ref.
	SlotBytes = groupBytes / groupSlots
	// OffsetBytes is a dense index's cost per key of its range.
	OffsetBytes = 4
	// RefBytes is a dense index's cost per entry of a table with payload.
	RefBytes = 4
)

// MaxLoad is the load factor f of Section VI-B: a hash index fills at most
// 7 of every 8 slots.
const MaxLoad = float64(maxLoadSlots) / groupSlots

// KeyBytes is what a hash-indexed table's entry store keeps per entry besides
// its payload: the keys.
func KeyBytes(keys int) int { return 8 * keys }

// Payload tuples live in per-shard row-store blocks. Only a shard's last
// block has free rows, so a shard leaves less than one block unused, and a
// table one writer built less than one in all: the
// first block is small so tiny dimension tables stay cheap, later blocks are
// a little larger so big builds allocate less often.
const (
	payloadBlockBytesFirst = 4 << 10
	payloadBlockBytes      = 16 << 10
)

// Keys live in per-shard chunks of chunkKeys. A shard's first chunk starts
// at firstChunkKeys and doubles until it is full size, so a shard with a
// handful of entries pays for a handful of keys; every later chunk is
// allocated at full size and never copied. The gauge counts every chunk.
const (
	chunkShift     = 9
	chunkKeys      = 1 << chunkShift
	chunkMask      = chunkKeys - 1
	firstChunkKeys = 16
)

const (
	// numShards is both the writer shards and the hash index partitions.
	numShards = 64
	// A Ref packs the writer shard into its top refShardBits and the entry
	// index into the rest, which bounds a shard's entries.
	refShardBits    = 6
	refIdxBits      = 32 - refShardBits
	maxShardEntries = 1 << refIdxBits
)

// shard is a writer shard: the entries appended by the inserts that held its
// lock, in the order they held it.
type shard struct {
	mu       sync.Mutex
	n        int
	min, max int64     // over first keys; valid when n > 0
	k0, k1   [][]int64 // key chunks; k1 nil in a one-key table
	payload  []*storage.Block
	// partCount counts the shard's entries per hash index partition.
	partCount [numShards]int32
}

// part is one partition of the hash index, written by its fill: nil groups
// for an empty partition or a dense table.
type part struct {
	groups []group
	mask   uint64 // len(groups) - 1
}

// indexKind is the index a table is sealed with.
type indexKind uint8

const (
	hashIndex indexKind = iota
	denseIndex
)

// Table is a concurrent join table keyed by one or two 64-bit integers. It
// is built with InsertBlock or InsertBlockKeyOnly, sealed once with Seal (or
// on its first lookup), then probed.
type Table struct {
	shards     [numShards]shard
	parts      [numShards]part
	keys       int // 1 or 2
	keyOnly    bool
	payloadSch *storage.Schema
	// Rows per payload block: the first block, then every later one.
	firstRows, rows uint32
	gauge           *stats.MemGauge // may be nil

	sealOnce sync.Once // Seal's choice of kind
	lazyOnce sync.Once // the seal and fills of a table probed unsealed
	ready    atomic.Bool
	kind     indexKind
	// The dense index: the entries of key min+j are refs[offsets[j]:
	// offsets[j+1]] (a key-only table keeps no refs).
	min     int64
	offsets []uint32
	refs    []Ref

	releaseOnce sync.Once
}

// Config parameterizes a table.
type Config struct {
	// PayloadSchema describes the build-side columns stored per entry; a
	// table whose schema has no columns is key-only.
	PayloadSchema *storage.Schema
	// Keys is the number of key columns, 1 or 2; zero means 1. A one-key
	// table stores no second key, so inserting one panics.
	Keys int
	// InitialCapacity is unused: the index is sized from the entries the
	// build stored. Declared only because benchmark/kernels.go sets it;
	// drop both in the next [benchmark] PR.
	InitialCapacity int
	// Gauge, if non-nil, tracks the table's live bytes.
	Gauge *stats.MemGauge
}

// New returns an empty table. It allocates nothing: key chunks and payload
// blocks come with the rows, the index with Seal.
func New(cfg Config) *Table {
	switch cfg.Keys {
	case 0:
		cfg.Keys = 1
	case 1, 2:
	default:
		panic("hashtable: a table has 1 or 2 keys")
	}
	t := &Table{keys: cfg.Keys, payloadSch: cfg.PayloadSchema, gauge: cfg.Gauge}
	t.keyOnly = cfg.PayloadSchema == nil || cfg.PayloadSchema.NumCols() == 0
	if !t.keyOnly {
		// The capacity storage.NewBlock gives a row-store block.
		w := cfg.PayloadSchema.RowWidth()
		t.firstRows = uint32(max(1, payloadBlockBytesFirst/w))
		t.rows = uint32(max(1, payloadBlockBytes/w))
	}
	return t
}

// hashKey produces the hash of (k0, k1), identical to types.HashPairVec's.
func hashKey(k0, k1 int64) uint64 {
	h := types.HashPair(k0, k1)
	if h == 0 {
		h = 1
	}
	return h
}

// partOf selects the hash index partition: hash bits 48–53, independent of
// the tag (bits 0–6), the group index (bits 7 and up, masked far below 48 in
// practice) and the aggregation radix's top bits.
func partOf(h uint64) uint64 { return (h >> 48) & (numShards - 1) }

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

// InsertScratch holds the reusable buffers of the block-granular insert
// kernels: gathered key columns, the hash vector, and the row indexes of a
// whole block. One scratch serves any number of sequential InsertBlock
// calls; operators pool scratches across work orders so the steady state
// allocates nothing per block. A scratch must not be used by two goroutines
// at once.
type InsertScratch struct {
	k0     []int64
	k1     []int64
	hashes []uint64
	seq    []int32 // 0, 1, 2, …
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

// rows returns the row indexes 0..n-1.
func (sc *InsertScratch) rows(n int) []int32 {
	for i := len(sc.seq); i < n; i++ {
		sc.seq = append(sc.seq, int32(i))
	}
	return sc.seq[:n]
}

// InsertBlock appends every row of b to one writer shard under one lock
// acquisition: the key columns are gathered and hashed vectorized
// (types.HashPairVec; the hashes only count each index partition's
// entries), the keys are copied to the shard's key chunks and the payload
// rows to its blocks, one AppendFromMany per payload block. It is safe for
// concurrent use with other inserts; sc must be private to the caller (pass
// a pooled scratch).
func (t *Table) InsertBlock(b *storage.Block, keyCols []int, projIdx []int, sc *InsertScratch) {
	t.insertBlock(b, keyCols, projIdx, sc)
}

// InsertBlockKeyOnly is InsertBlock for a key-only table (semi/anti builds):
// no payload rows are stored, only the keys.
func (t *Table) InsertBlockKeyOnly(b *storage.Block, keyCols []int, sc *InsertScratch) {
	if !t.keyOnly {
		panic("hashtable: key-only insert into a table with payload columns")
	}
	t.insertBlock(b, keyCols, nil, sc)
}

func (t *Table) insertBlock(b *storage.Block, keyCols []int, projIdx []int, sc *InsertScratch) {
	if len(keyCols) != t.keys {
		panic(fmt.Sprintf("hashtable: %d-key insert into a %d-key table", len(keyCols), t.keys))
	}
	n := b.NumRows()
	if n == 0 {
		return
	}
	sc.gather(b, keyCols)
	s := t.writer(n)
	t.appendKeys(s, &s.k0, sc.k0)
	if sc.k1 != nil {
		t.appendKeys(s, &s.k1, sc.k1)
	}
	if s.n == 0 {
		s.min, s.max = sc.k0[0], sc.k0[0]
	}
	for _, k := range sc.k0 {
		s.min, s.max = min(s.min, k), max(s.max, k)
	}
	for _, h := range sc.hashes {
		s.partCount[partOf(h)]++
	}
	if !t.keyOnly {
		// Bulk-copy payload rows block-at-a-time: AppendFromMany resolves
		// column layouts, and a view's segments, once per payload block.
		rows := sc.rows(n)
		for pos := 0; pos < n; {
			pos += t.payloadBlock(s).AppendFromMany(b, rows[pos:], projIdx)
		}
	}
	s.n += n
	s.mu.Unlock()
}

// writer locks and returns the shard a block of n entries is appended to:
// the lowest-numbered one whose lock is free and that has room for all n;
// when every shard with room is busy, the lowest with room, once its lock is
// free. A lone writer always gets shard 0 while it has room.
func (t *Table) writer(n int) *shard {
	for _, wait := range [2]bool{false, true} {
		for i := range t.shards {
			s := &t.shards[i]
			if wait {
				s.mu.Lock()
			} else if !s.mu.TryLock() {
				continue
			}
			if s.n+n <= maxShardEntries {
				return s
			}
			s.mu.Unlock()
		}
	}
	panic("hashtable: a table holds at most 64 shards of 2^26 entries")
}

// appendKeys appends src to the key chunks *dst, whose first s.n keys are in
// use; caller holds the shard lock.
func (t *Table) appendKeys(s *shard, dst *[][]int64, src []int64) {
	i := s.n
	for len(src) > 0 {
		c, off := i>>chunkShift, i&chunkMask
		if c == len(*dst) || off == len((*dst)[c]) {
			t.growChunk(dst, c, off+len(src))
		}
		m := copy((*dst)[c][off:], src)
		src = src[m:]
		i += m
	}
}

// growChunk makes room in chunk c for keys up to need: a new chunk after
// the first is full size, and the first chunk is the power of two from
// firstChunkKeys up that holds need (copied when it grows). A chunk's size
// depends only on the entries it holds, not on how they were batched.
func (t *Table) growChunk(dst *[][]int64, c, need int) {
	size := chunkKeys
	if c == 0 {
		size = firstChunkKeys
		for size < min(need, chunkKeys) {
			size <<= 1
		}
	}
	grown, old := make([]int64, size), 0
	if c == len(*dst) {
		*dst = append(*dst, grown)
	} else {
		old = len((*dst)[c])
		copy(grown, (*dst)[c])
		(*dst)[c] = grown
	}
	t.gaugeAdd(8 * int64(size-old))
}

// key0 and key1 return the keys of entry i of s.
func (s *shard) key0(i uint32) int64 { return s.k0[i>>chunkShift][i&chunkMask] }
func (s *shard) key1(i uint32) int64 { return s.k1[i>>chunkShift][i&chunkMask] }

// entry returns the writer shard and entry index r packs.
func (t *Table) entry(r Ref) (*shard, uint32) {
	return &t.shards[r>>refIdxBits], uint32(r) & (maxShardEntries - 1)
}

// holds reports whether the entry at r has the keys (k0, k1); a one-key
// table compares k0 only.
func (t *Table) holds(r Ref, k0, k1 int64) bool {
	s, e := t.entry(r)
	return s.key0(e) == k0 && (t.keys == 1 || s.key1(e) == k1)
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
	t.gaugeAdd(int64(pb.AllocBytes()))
	return pb
}

func (t *Table) gaugeAdd(n int64) {
	if t.gauge != nil {
		t.gauge.Add(n)
	}
}

// Fill is one work order's share of filling a sealed table's index.
type Fill struct {
	t      *Table
	lo, hi int // hash: the index partitions [lo, hi) to fill
}

// Seal chooses the table's index from the entries stored and returns the
// fills that build it. Each fill may run on its own goroutine and must run
// exactly once: a caller that can fail an attempt (the engine's fault
// sites) fails it before calling Run, so a retry has nothing to undo. The
// table may be probed once every fill has run. Seal must not run
// concurrently with inserts, and only its first call returns fills.
func (t *Table) Seal(parts int) []Fill {
	return t.seal(t.choose(), parts)
}

// seal seals the table with the given index kind.
func (t *Table) seal(kind indexKind, parts int) []Fill {
	var fills []Fill
	t.sealOnce.Do(func() {
		t.kind = kind
		if t.kind == denseIndex {
			fills = []Fill{{t: t}}
			return
		}
		counts := t.partCounts()
		parts = max(1, min(parts, numShards))
		for p := 0; p < parts; p++ {
			lo, hi := p*numShards/parts, (p+1)*numShards/parts
			for i := lo; i < hi; i++ {
				if counts[i] > 0 {
					fills = append(fills, Fill{t: t, lo: lo, hi: hi})
					break
				}
			}
		}
	})
	return fills
}

// sealed seals a table nobody sealed and runs its fills in place, once,
// while concurrent lookups wait; lookups call it, so a table probed straight
// after its build answers correctly. A table Seal already sealed is taken
// as filled: its caller runs every fill before probing.
func (t *Table) sealed() {
	if t.ready.Load() {
		return
	}
	t.lazyOnce.Do(func() {
		for _, f := range t.Seal(1) {
			f.Run()
		}
		t.ready.Store(true)
	})
}

// keySpan returns the least first key, the distance to the greatest
// (computed in uint64, so no key range overflows) and the entry count.
func (t *Table) keySpan() (lo int64, span uint64, n int) {
	var hi int64
	for i := range t.shards {
		s := &t.shards[i]
		if s.n == 0 {
			continue
		}
		if n == 0 {
			lo, hi = s.min, s.max
		}
		lo, hi = min(lo, s.min), max(hi, s.max)
		n += s.n
	}
	return lo, uint64(hi) - uint64(lo), n
}

// choose picks the dense index for a one-key table whose key range is below
// 2³² when its offsets and refs take no more bytes than the hash groups for
// the same entries, and the hash index otherwise (two keys, an empty build,
// or a sparse range).
func (t *Table) choose() indexKind {
	_, span, n := t.keySpan()
	if !t.denseFits(span, n) {
		return hashIndex
	}
	var hash uint64
	for _, c := range t.partCounts() {
		hash += groupBytes * uint64(groupsFor(c))
	}
	if t.denseBytes(span, n) <= hash {
		return denseIndex
	}
	return hashIndex
}

// denseFits reports whether a dense index can hold n entries over a key
// span: one key, some entries, and a range and count its 32-bit offsets
// address.
func (t *Table) denseFits(span uint64, n int) bool {
	return t.keys == 1 && n > 0 && span < 1<<32-1 && uint64(n) < 1<<32-1
}

// denseBytes is the dense index's size over a key span and n entries.
func (t *Table) denseBytes(span uint64, n int) uint64 {
	b := OffsetBytes * (span + 2)
	if !t.keyOnly {
		b += RefBytes * uint64(n)
	}
	return b
}

// partCounts sums the writer shards' entry counts per index partition.
func (t *Table) partCounts() (counts [numShards]int) {
	for i := range t.shards {
		for p, c := range t.shards[i].partCount {
			counts[p] += int(c)
		}
	}
	return counts
}

// groupsFor is the hash groups a partition of n entries needs: the fewest,
// and a power of two, that keep the load within MaxLoad (none for no
// entries).
func groupsFor(n int) int {
	if n == 0 {
		return 0
	}
	g := 1
	for g*maxLoadSlots < n {
		g <<= 1
	}
	return g
}

// Run fills the fill's part of the index.
func (f Fill) Run() {
	if f.t.kind == denseIndex {
		f.t.fillDense()
		return
	}
	f.t.fillHash(f.lo, f.hi)
}

// fillHash sizes the index partitions [lo, hi) from their entry counts and
// indexes their entries: it scans the writer shards in shard and then entry
// order, hashing each entry a chunk at a time and placing those of its
// partitions. Groups fill slot 0 first, so along each group sequence a
// key's entries lie in that order — insertion order when one writer built
// the table.
func (t *Table) fillHash(lo, hi int) {
	counts := t.partCounts()
	for p := lo; p < hi; p++ {
		g := groupsFor(counts[p])
		if g == 0 {
			continue
		}
		pt := &t.parts[p]
		pt.groups = make([]group, g)
		for i := range pt.groups {
			pt.groups[i].ctrl = allEmpty
		}
		pt.mask = uint64(g - 1)
		t.gaugeAdd(groupBytes * int64(g))
	}
	var hashes [chunkKeys]uint64
	for si := range t.shards {
		s := &t.shards[si]
		for c, k0 := range s.k0 {
			k0 = k0[:min(len(k0), s.n-c<<chunkShift)]
			var k1 []int64
			if s.k1 != nil {
				k1 = s.k1[c][:len(k0)]
			}
			for j, h := range types.HashPairVec(k0, k1, hashes[:0]) {
				p := int(partOf(h))
				if p < lo || p >= hi {
					continue
				}
				pt := &t.parts[p]
				for gi := (h >> 7) & pt.mask; ; gi = (gi + 1) & pt.mask {
					grp := &pt.groups[gi]
					if free := grp.ctrl & msbs; free != 0 {
						slot := slotOf(free)
						grp.ctrl ^= (ctrlEmpty ^ h&0x7f) << (8 * slot)
						grp.refs[slot] = makeRef(uint64(si), uint32(c<<chunkShift+j))
						break
					}
				}
			}
		}
	}
}

// fillDense builds the offsets by counting each key's entries, then (with
// payload) places every entry's ref at its key's cursor, shard by shard in
// entry order — insertion order when one writer built the table. The key
// chunks are freed after.
func (t *Table) fillDense() {
	lo, span, n := t.keySpan()
	t.min = lo
	off := make([]uint32, span+2)
	t.gaugeAdd(int64(t.denseBytes(span, n)))
	for i := range t.shards {
		s := &t.shards[i]
		for c, ch := range s.k0 {
			for _, k := range ch[:min(len(ch), s.n-c<<chunkShift)] {
				off[uint64(k-lo)+1]++
			}
		}
	}
	for j := 1; j < len(off); j++ {
		off[j] += off[j-1]
	}
	if !t.keyOnly {
		// off[j] is the cursor of key lo+j; after placement it is the end of
		// key j, which is the start of key j+1, so shift back by one.
		t.refs = make([]Ref, n)
		for i := range t.shards {
			s := &t.shards[i]
			for e := 0; e < s.n; e++ {
				j := uint64(s.key0(uint32(e)) - lo)
				t.refs[off[j]] = makeRef(uint64(i), uint32(e))
				off[j]++
			}
		}
		copy(off[1:], off[:len(off)-1])
		off[0] = 0
	}
	t.offsets = off
	var keyBytes int64
	for i := range t.shards {
		s := &t.shards[i]
		keyBytes += s.keyBytes()
		s.k0, s.k1 = nil, nil
	}
	if t.gauge != nil {
		t.gauge.Sub(keyBytes)
	}
}

// keyBytes is the shard's key chunks' allocation.
func (s *shard) keyBytes() int64 {
	var n int64
	for _, ch := range s.k0 {
		n += 8 * int64(len(ch))
	}
	for _, ch := range s.k1 {
		n += 8 * int64(len(ch))
	}
	return n
}

// LookupHashed calls fn for every entry matching (k0, k1), in insertion
// order, passing the payload block and row (nil block for a key-only
// table); fn returns false to stop early. h must be hashKey's hash of the
// keys (types.HashPairVec or HashPair forced non-zero); a dense table does
// not read it. It seals an unsealed table first, and is safe for concurrent
// use with other lookups; the table must not be built concurrently with
// probing — the scheduler's blocking build→probe edge guarantees that. It is
// the row-at-a-time reference for Match.
func (t *Table) LookupHashed(h uint64, k0, k1 int64, fn func(pb *storage.Block, row int) bool) {
	t.sealed()
	if t.keys == 1 && k1 != 0 {
		return // a one-key table holds no second key
	}
	if t.kind == denseIndex {
		j := uint64(k0 - t.min)
		if j >= uint64(len(t.offsets)-1) {
			return
		}
		for e := t.offsets[j]; e < t.offsets[j+1]; e++ {
			var ref Ref
			if t.refs != nil {
				ref = t.refs[e]
			}
			if !fn(t.Payload(ref)) {
				return
			}
		}
		return
	}
	pt := &t.parts[partOf(h)]
	if pt.groups == nil {
		return
	}
	tag := tagOf(h)
	for g := (h >> 7) & pt.mask; ; g = (g + 1) & pt.mask {
		grp := &pt.groups[g]
		for m := matchTag(grp.ctrl, tag); m != 0; m &= m - 1 {
			if ref := grp.refs[slotOf(m)]; t.holds(ref, k0, k1) && !fn(t.Payload(ref)) {
				return
			}
		}
		if grp.ctrl&msbs != 0 {
			return
		}
	}
}

// Ref locates one entry: its writer shard and its index in the shard, packed
// in 32 bits. Hash slots and dense refs hold it; Match reports it.
type Ref uint32

func makeRef(shard uint64, e uint32) Ref { return Ref(uint32(shard)<<refIdxBits | e) }

// Matches is the output of Match: the i-th match pairs probe row Probe[i]
// with the entry at Ref[i]. It holds indexes, not blocks, so a pooled
// Matches never keeps a released table's payload alive.
type Matches struct {
	Probe []int32
	Ref   []Ref
}

// Match probes the table with a block of keys (k1 nil for single-key
// tables) and fills m with every matching entry, ordered by probe row and,
// within a row, by insertion — the pairs LookupHashed would report row by
// row. A hash index hashes the keys itself; a dense one does not hash. With
// firstOnly it stops at each row's first match (existence probes). m's
// vectors are reused across calls. It seals an unsealed table first.
func (t *Table) Match(k0, k1 []int64, firstOnly bool, m *Matches) {
	t.sealed()
	m.Probe, m.Ref = m.Probe[:0], m.Ref[:0]
	if t.kind == denseIndex {
		off, lo, span := t.offsets, t.min, uint64(len(t.offsets)-1)
		for r, k := range k0 {
			j := uint64(k - lo)
			if j >= span || k1 != nil && k1[r] != 0 {
				continue // out of range, or a second key a one-key table cannot hold
			}
			b, e := off[j], off[j+1]
			if b < e && firstOnly {
				e = b + 1
			}
			for i := b; i < e; i++ {
				m.Probe = append(m.Probe, int32(r))
			}
			if t.refs != nil {
				m.Ref = append(m.Ref, t.refs[b:e]...)
			} else {
				for range e - b {
					m.Ref = append(m.Ref, 0)
				}
			}
		}
		return
	}
rows:
	for r, a := range k0 {
		var b int64
		if k1 != nil {
			b = k1[r]
		}
		if b != 0 && t.keys == 1 {
			continue // a one-key table holds no second key
		}
		h := hashKey(a, b)
		pt := &t.parts[partOf(h)]
		if pt.groups == nil {
			continue
		}
		tag := tagOf(h)
		for g := (h >> 7) & pt.mask; ; g = (g + 1) & pt.mask {
			grp := &pt.groups[g]
			for hit := matchTag(grp.ctrl, tag); hit != 0; hit &= hit - 1 {
				ref := grp.refs[slotOf(hit)]
				if !t.holds(ref, a, b) {
					continue
				}
				m.Probe = append(m.Probe, int32(r))
				m.Ref = append(m.Ref, ref)
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
// for a key-only table). Entry i of a shard is payload row i, so the block
// and row follow from the blocks' row capacities.
func (t *Table) Payload(r Ref) (*storage.Block, int) {
	if t.keyOnly {
		return nil, 0
	}
	s, e := t.entry(r)
	if e < t.firstRows {
		return s.payload[0], int(e)
	}
	e -= t.firstRows
	return s.payload[1+e/t.rows], int(e % t.rows)
}

// TotalBytes returns the table's current memory footprint: key chunks, the
// index and payload blocks. This is the |H| of Section VI; the gauge holds
// the same sum.
func (t *Table) TotalBytes() int64 {
	return t.bytes((*storage.Block).AllocBytes)
}

// UsedBytes returns the table's randomly-accessed working set: key chunks,
// the index, and payload bytes actually occupied by tuples. The cache model
// sizes probe-miss probabilities with this (allocation slack in payload
// blocks is never touched by probes).
func (t *Table) UsedBytes() int64 {
	return t.bytes((*storage.Block).UsedBytes)
}

func (t *Table) bytes(payloadBytes func(*storage.Block) int) int64 {
	n := int64(OffsetBytes*len(t.offsets) + RefBytes*len(t.refs))
	for i := range t.parts {
		n += groupBytes * int64(len(t.parts[i].groups))
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.keyBytes()
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
