// Package hashtable implements the engine's join table: an index over the
// blocks its build was fed, chosen once the build is done.
//
// A build copies nothing. It records each block it is fed as sources: a
// block is one source, rows 0..n-1; a view is one source per segment, its
// base block and base rows, so a lookup never searches a view's segments.
// An entry is (source, row), in the order the blocks went in, and its keys
// and payload stay where they are: payload column c of an entry is column
// SourceCols(c) of its source block. The build widens the key range and
// counts each index partition's entries; Seal then picks the index from the
// entry count and key range it saw:
//
//   - dense (one-key tables only): an offset per key of [min, max] into one
//     4-byte entry ref per row, in per-key insertion order. A dense table
//     keeps no keys, and a key-only one no refs either: only the offsets.
//   - hash: 64 index partitions chosen by hash bits, each groups of eight
//     5-byte slots (a 7-bit hash tag in one 64-bit control word, and a
//     4-byte Ref: source and row), sized exactly from the partition's entry
//     count at load MaxLoad. On a tag hit a lookup reads the entry's keys
//     from its source. A one-key hash table also keeps a key bitmap, one
//     bit per key of [min, max], when its bytes are no more than the hash
//     groups' or keyBitsFloor (8 KiB), whichever is larger; Match tests a
//     probe key's bit before hashing it, so a key the table lacks costs
//     one load. LookupHashed does not read the bitmap: it stays the
//     bitmap-free row-at-a-time reference for Match.
//
// Both fills read the keys from the sources a chunk at a time, so a seal
// never holds a whole-table key array. Dense is chosen only when its bytes
// are no more than the hash groups', so no index is larger than its hash
// alternative (the c/f memory model of Section VI-B of the paper: c =
// SlotBytes per entry, f = MaxLoad; dense costs OffsetBytes per key of the
// range and RefBytes per entry). The table's own bytes are its index; the
// blocks it indexes stay the build's inputs, which the engine keeps until
// the table is released. Duplicate keys come back in insertion order under
// either index, and payload tuples are read in place, so probe residual
// predicates evaluate directly over build-side rows.
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

// KeyBytes is the width of an entry's keys, which a hash index compares on a
// tag hit; they live in the entry's source block.
func KeyBytes(keys int) int { return 8 * keys }

const (
	// numParts is the hash index partitions.
	numParts = 64
	// minFillEntries is the fewest entries a hash fill is given: every fill
	// reads the keys of every entry and places only its own partitions',
	// so splitting a small table's fill only repeats that read.
	minFillEntries = 1 << 16
	// fillChunk is how many entries a fill reads keys for at a time.
	fillChunk = 512
	// keyBitsFloor is the most bytes a key bitmap may take over a table
	// whose hash groups take fewer.
	keyBitsFloor = 8 << 10
)

// source is a run of entries that lie in one block with a layout: a fed
// block's rows, or one segment of a fed view.
type source struct {
	b     *storage.Block
	rows  []int32 // a listed view segment's base rows; nil: rows first..first+n-1 of b
	first int
	n     int
	// The key columns' cells in b (k1 unset in a one-key table).
	k0, k1 storage.Cells
}

// load reads the rows and keys of the source's entries from at on, at most
// fillChunk of them, and returns how many it read. A run's keys (a block's,
// a dense view segment's) are read as a run of its key columns, a listed
// view segment's row by row.
func (s *source) load(at, keys int, rows *[fillChunk]int32, k0, k1 *[fillChunk]int64) int {
	m := min(fillChunk, s.n-at)
	if s.rows == nil {
		at += s.first
		for j := range m {
			rows[j] = int32(at + j)
		}
		s.k0.Int64s(at, k0[:m])
		if keys == 2 {
			s.k1.Int64s(at, k1[:m])
		}
		return m
	}
	copy(rows[:m], s.rows[at:])
	for j, r := range rows[:m] {
		k0[j] = s.k0.Int64(int(r))
	}
	if keys == 2 {
		for j, r := range rows[:m] {
			k1[j] = s.k1.Int64(int(r))
		}
	}
	return m
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
// is built with InsertBlock, sealed once with Seal (or on its first lookup),
// then probed. The blocks it is fed must stay unchanged and alive until the
// last lookup.
type Table struct {
	// mu guards the build: the sources, the entry count, the key range,
	// the partition counts and the payload column map.
	mu       sync.Mutex
	srcs     []source
	n        int
	min, max int64 // over first keys; valid when n > 0
	counts   [numParts]int
	cols     []int // payload column c is column cols[c] of every source
	maxRows  int   // the most rows of any source block

	parts      [numParts]part
	keys       int // 1 or 2
	keyOnly    bool
	payloadSch *storage.Schema
	gauge      *stats.MemGauge // may be nil

	sealOnce sync.Once // Seal's choice of kind
	lazyOnce sync.Once // the seal and fills of a table probed unsealed
	ready    atomic.Bool
	kind     indexKind
	// A Ref is source<<rowBits | row, the split fixed at seal.
	rowBits uint
	// The dense index: the entries of key min+j are refs[offsets[j]:
	// offsets[j+1]] (a key-only table keeps no refs).
	offsets []uint32
	refs    []Ref
	// keyBits is a one-key hash table's key set: bit k-min is set for each
	// key k. Nil when the range is too wide for it, or under a dense index.
	keyBits []uint64

	releaseOnce sync.Once
}

// Config parameterizes a table.
type Config struct {
	// PayloadSchema describes the build-side columns each entry carries; a
	// table whose schema has no columns is key-only.
	PayloadSchema *storage.Schema
	// Keys is the number of key columns, 1 or 2; zero means 1. A one-key
	// table holds no second key, so inserting one panics.
	Keys int
	// InitialCapacity is unused: the index is sized from the entries the
	// build recorded. Declared only because benchmark/kernels.go sets it;
	// drop both in the next [benchmark] PR.
	InitialCapacity int
	// Gauge, if non-nil, tracks the table's live bytes: its index.
	Gauge *stats.MemGauge
}

// New returns an empty table. It allocates nothing: the index comes with
// Seal.
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
func partOf(h uint64) uint64 { return (h >> 48) & (numParts - 1) }

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
// kernels: gathered key columns and the hash vector. One scratch serves any
// number of sequential InsertBlock calls; operators pool scratches across
// work orders so the steady state allocates nothing per block. A scratch
// must not be used by two goroutines at once.
type InsertScratch struct {
	k0     []int64
	k1     []int64
	hashes []uint64
}

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

// InsertBlock records every row of b as an entry, in row order, without
// copying it: b (a view: each of its segments) becomes a source of the
// table. The key columns are gathered and hashed vectorized
// (types.HashPairVec) to widen the key range and count each index
// partition's entries; projIdx names b's payload columns, which must lie in
// the same source columns for every block of the table (none for a key-only
// table: semi/anti builds). It is safe for concurrent use with other inserts;
// sc must be private to the caller (pass a pooled scratch).
func (t *Table) InsertBlock(b *storage.Block, keyCols []int, projIdx []int, sc *InsertScratch) {
	if len(keyCols) != t.keys {
		panic(fmt.Sprintf("hashtable: %d-key insert into a %d-key table", len(keyCols), t.keys))
	}
	n := b.NumRows()
	if n == 0 {
		return
	}
	sc.gather(b, keyCols)
	lo, hi := sc.k0[0], sc.k0[0]
	for _, k := range sc.k0 {
		lo, hi = min(lo, k), max(hi, k)
	}
	var counts [numParts]int32
	for _, h := range sc.hashes {
		counts[partOf(h)]++
	}
	kc0, kc1 := b.BaseCol(keyCols[0]), -1
	if t.keys == 2 {
		kc1 = b.BaseCol(keyCols[1])
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bindCols(b, projIdx)
	b.Sources(func(src *storage.Block, first, n int, rows []int32) {
		s := source{b: src, rows: rows, first: first, n: n, k0: src.View(kc0).Cells}
		if kc1 >= 0 {
			s.k1 = src.View(kc1).Cells
		}
		t.srcs = append(t.srcs, s)
		t.maxRows = max(t.maxRows, src.NumRows())
	})
	if t.n == 0 {
		t.min, t.max = lo, hi
	}
	t.min, t.max = min(t.min, lo), max(t.max, hi)
	t.n += n
	for p, c := range counts {
		t.counts[p] += int(c)
	}
}

// bindCols maps the payload columns to the source columns of b that hold
// them (a view's base columns) on the first insert, and checks every later
// block maps them the same way; caller holds mu.
func (t *Table) bindCols(b *storage.Block, projIdx []int) {
	if t.keyOnly {
		return
	}
	if len(projIdx) != t.payloadSch.NumCols() {
		panic(fmt.Sprintf("hashtable: %d payload columns into a table of %d", len(projIdx), t.payloadSch.NumCols()))
	}
	if t.cols == nil {
		t.cols = make([]int, len(projIdx))
		for c, p := range projIdx {
			t.cols[c] = b.BaseCol(p)
		}
		return
	}
	for c, p := range projIdx {
		if b.BaseCol(p) != t.cols[c] {
			panic("hashtable: a block holds the payload in other source columns than the table's first block")
		}
	}
}

// SourceCols appends to dst, for each payload column c, the column of
// Payload's blocks that holds it. A table with no entries maps each column
// to itself.
func (t *Table) SourceCols(dst, payload []int) []int {
	for _, c := range payload {
		if t.cols != nil {
			c = t.cols[c]
		}
		dst = append(dst, c)
	}
	return dst
}

func (t *Table) gaugeAdd(n int64) {
	if t.gauge != nil {
		t.gauge.Add(n)
	}
}

// Fill is one work order's share of filling a sealed table's index.
type Fill struct {
	t      *Table
	lo, hi int  // hash: the index partitions [lo, hi) to fill
	bits   bool // hash: this fill also sets the key bitmap
}

// Seal chooses the table's index from the entries recorded and returns the
// fills that build it: one for a dense index; for a hash index at most
// fills, and no more than give each minFillEntries entries, the first of
// which also sets the key bitmap if the table keeps one. Each fill may
// run on its own goroutine and must run exactly once: a caller that can
// fail an attempt (the engine's fault sites) fails it before calling Run,
// so a retry has nothing to undo. The table may be probed once every fill
// has run. Seal must not run concurrently with inserts, and only its first
// call returns fills.
func (t *Table) Seal(fills int) []Fill {
	return t.seal(t.choose(), fills)
}

// seal seals the table with the given index kind.
func (t *Table) seal(kind indexKind, fills int) []Fill {
	var out []Fill
	t.sealOnce.Do(func() {
		t.kind = kind
		t.rowBits = uint(bits.Len(uint(t.maxRows)))
		if uint64(len(t.srcs)) > 1<<(32-t.rowBits) {
			panic(fmt.Sprintf("hashtable: %d sources of up to %d rows overflow a 4-byte Ref", len(t.srcs), t.maxRows))
		}
		if kind == denseIndex {
			out = []Fill{{t: t}}
			return
		}
		fills = max(1, min(fills, numParts, t.n/minFillEntries))
		for f := 0; f < fills; f++ {
			lo, hi := f*numParts/fills, (f+1)*numParts/fills
			for p := lo; p < hi; p++ {
				if t.counts[p] > 0 {
					out = append(out, Fill{t: t, lo: lo, hi: hi})
					break
				}
			}
		}
		if len(out) > 0 && t.keys == 1 {
			out[0].bits = 8*t.keyBitsWords() <= max(t.hashBytes(), keyBitsFloor)
		}
	})
	return out
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
	return t.min, uint64(t.max) - uint64(t.min), t.n
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
	if t.denseBytes(span, n) <= t.hashBytes() {
		return denseIndex
	}
	return hashIndex
}

// hashBytes is the hash index's size over the entries recorded.
func (t *Table) hashBytes() uint64 {
	var b uint64
	for _, c := range t.counts {
		b += groupBytes * uint64(groupsFor(c))
	}
	return b
}

// keyBitsWords is the words of a key bitmap over the key range.
func (t *Table) keyBitsWords() uint64 {
	_, span, _ := t.keySpan()
	return span/64 + 1
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
	f.t.fillHash(f.lo, f.hi, f.bits)
}

// fillHash sizes the index partitions [lo, hi) from their entry counts and
// indexes their entries: it reads the sources in insertion order, a chunk
// of keys at a time, hashes them and places the entries of its partitions.
// Groups fill slot 0 first, so along each group sequence a key's entries
// lie in insertion order. With setBits it also sets every key's bit.
func (t *Table) fillHash(lo, hi int, setBits bool) {
	if setBits {
		t.keyBits = make([]uint64, t.keyBitsWords())
		t.gaugeAdd(8 * int64(len(t.keyBits)))
	}
	for p := lo; p < hi; p++ {
		g := groupsFor(t.counts[p])
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
	var (
		rows   [fillChunk]int32
		k0, k1 [fillChunk]int64
		hashes [fillChunk]uint64
	)
	for si := range t.srcs {
		s := &t.srcs[si]
		for at := 0; at < s.n; {
			m := s.load(at, t.keys, &rows, &k0, &k1)
			at += m
			if setBits {
				for _, k := range k0[:m] {
					j := uint64(k - t.min)
					t.keyBits[j/64] |= 1 << (j % 64)
				}
			}
			var second []int64
			if t.keys == 2 {
				second = k1[:m]
			}
			for j, h := range types.HashPairVec(k0[:m], second, hashes[:0]) {
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
						grp.refs[slot] = t.makeRef(si, rows[j])
						break
					}
				}
			}
		}
	}
}

// fillDense builds the offsets by counting each key's entries, then (with
// payload) places every entry's ref at its key's cursor, in insertion
// order. Each pass reads the keys from the sources a chunk at a time.
func (t *Table) fillDense() {
	lo, span, n := t.keySpan()
	off := make([]uint32, span+2)
	t.gaugeAdd(int64(t.denseBytes(span, n)))
	var (
		rows   [fillChunk]int32
		k0, k1 [fillChunk]int64
	)
	for si := range t.srcs {
		s := &t.srcs[si]
		for at := 0; at < s.n; {
			m := s.load(at, 1, &rows, &k0, &k1)
			at += m
			for _, k := range k0[:m] {
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
		for si := range t.srcs {
			s := &t.srcs[si]
			for at := 0; at < s.n; {
				m := s.load(at, 1, &rows, &k0, &k1)
				at += m
				for j, k := range k0[:m] {
					c := uint64(k - lo)
					t.refs[off[c]] = t.makeRef(si, rows[j])
					off[c]++
				}
			}
		}
		copy(off[1:], off[:len(off)-1])
		off[0] = 0
	}
	t.offsets = off
}

// entry returns the source and row r packs.
func (t *Table) entry(r Ref) (*source, int) {
	return &t.srcs[r>>t.rowBits], int(r & (1<<t.rowBits - 1))
}

// holds reports whether the entry at r has the keys (k0, k1); a one-key
// table compares k0 only.
func (t *Table) holds(r Ref, k0, k1 int64) bool {
	s, row := t.entry(r)
	return s.k0.Int64(row) == k0 && (t.keys == 1 || s.k1.Int64(row) == k1)
}

// LookupHashed calls fn for every entry matching (k0, k1), in insertion
// order, passing the block and row the entry lies in (a view's entries in
// their base block; nil block for a key-only table), whose columns are the
// source columns SourceCols names; fn returns false to stop early. h must
// be hashKey's hash of the keys (types.HashPairVec or HashPair forced
// non-zero); a dense table does not read it. It seals an unsealed table
// first, and is safe for concurrent use with other lookups; the table must
// not be built concurrently with probing — the scheduler's blocking
// build→probe edge guarantees that. It is the row-at-a-time reference for
// Match.
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

// Ref locates one entry: its source and its row in the source's block,
// packed in 32 bits at a split Seal fixes from the largest source block.
// Hash slots and dense refs hold it; Match reports it.
type Ref uint32

func (t *Table) makeRef(src int, row int32) Ref { return Ref(uint32(src)<<t.rowBits | uint32(row)) }

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
// row. A hash index hashes the keys itself, but not a key its key bitmap
// lacks; a dense one does not hash. With firstOnly it stops at each row's
// first match (existence probes). m's vectors are reused across calls. It
// seals an unsealed table first.
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
	keyBits, lo := t.keyBits, t.min
rows:
	for r, a := range k0 {
		var b int64
		if k1 != nil {
			b = k1[r]
		}
		if b != 0 && t.keys == 1 {
			continue // a one-key table holds no second key
		}
		if keyBits != nil {
			if j := uint64(a - lo); j/64 >= uint64(len(keyBits)) || keyBits[j/64]&(1<<(j%64)) == 0 {
				continue // a key the table lacks
			}
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

// ReadsInputs reports whether the table reads the blocks it was fed: every
// table does but a sealed key-only dense one, whose offsets are all it
// keeps.
func (t *Table) ReadsInputs() bool { return !(t.keyOnly && t.kind == denseIndex) }

// Payload resolves a Ref from Match to the block and row its entry lies in
// (nil block for a key-only table): payload column c is column SourceCols(c)
// of the block.
func (t *Table) Payload(r Ref) (*storage.Block, int) {
	if t.keyOnly {
		return nil, 0
	}
	s, row := t.entry(r)
	return s.b, row
}

// TotalBytes returns the table's own memory footprint, its index and key
// bitmap: the |H| of Section VI beside the blocks it indexes, which stay the
// build's inputs. The gauge holds the same sum.
func (t *Table) TotalBytes() int64 {
	n := int64(OffsetBytes*len(t.offsets) + RefBytes*len(t.refs) + 8*len(t.keyBits))
	for i := range t.parts {
		n += groupBytes * int64(len(t.parts[i].groups))
	}
	return n
}

// UsedBytes returns the table's randomly-accessed working set: the index,
// and each entry's payload (and, under a hash index or before the seal, its
// keys) in the blocks it indexes. The cache model sizes probe-miss
// probabilities with this.
func (t *Table) UsedBytes() int64 {
	w := 0
	if !t.keyOnly {
		w = t.payloadSch.RowWidth()
	}
	if t.kind == hashIndex {
		w += KeyBytes(t.keys)
	}
	t.mu.Lock()
	n := t.n
	t.mu.Unlock()
	return t.TotalBytes() + int64(n*w)
}

// Release returns the table's bytes to the gauge; call when the last of the
// table's probes finishes. Release is idempotent.
func (t *Table) Release() {
	t.releaseOnce.Do(func() {
		if t.gauge != nil {
			t.gauge.Sub(t.TotalBytes())
		}
	})
}

// PayloadSchema returns the build-side payload schema.
func (t *Table) PayloadSchema() *storage.Schema { return t.payloadSch }
