// Package aggtable implements the aggregation hash table behind exec.AggOp:
// an open-addressing table that maps group keys to dense group ids, with the
// groups' accumulators stored densely so accumulation, merging, and result
// emission run tight columnar loops over fixed-width cells.
//
// Every aggregation runs through this one table; only the key layout varies,
// and the operator picks it once at plan time. New keeps one or two 64-bit
// words inline (int64, date, and float64-by-bits keys — the common case
// across the TPC-H/SSB plans); NewBytes keeps each group's serialized key
// tuple in a byte arena (char keys, three or more keys). Slots, hashes,
// cells, growth, and MergePartition are shared by both layouts. Aggregates
// whose state is not fixed-width (char min/max, count distinct) keep it in a
// side array parallel to the cells, allocated only by WithSide.
//
// The table is deliberately not internally synchronized. Aggregation work
// orders each own a thread-local partial table; the operator's Final fans
// out one merge work order per radix partition of the group-hash space, so
// partials merge in parallel with no shared lock (the aggregation analogue
// of PR1's shard-lock amortization on the join build).
package aggtable

import (
	"bytes"

	"repro/internal/types"
)

// Kind is the aggregate function of one accumulator column.
type Kind uint8

// Aggregate kinds.
const (
	Sum Kind = iota
	Count
	Avg
	Min
	Max
	// CountDistinct counts distinct argument values; the set lives in the
	// group's Side.
	CountDistinct
)

// Agg describes one accumulator column: its function and whether the
// argument (and therefore the min/max comparison and the sum that the result
// is read from) is float-valued or, for char min/max, a byte string whose
// running value lives in the group's Side.
type Agg struct {
	Kind  Kind
	Float bool
	Bytes bool
}

// side reports whether the aggregate keeps state outside its Cell.
func (a Agg) side() bool { return a.Bytes || a.Kind == CountDistinct }

// Cell is one group's fixed-width accumulator for one aggregate: Count
// counts rows, SumI/SumF accumulate the integer and float views of the
// argument, MMI/MMF hold the running min/max, Set marks a seen value.
type Cell struct {
	Count int64
	SumI  int64
	SumF  float64
	MMI   int64
	MMF   float64
	Set   bool
}

// Side is one group's out-of-line state for one aggregate: the running char
// min/max (an owned, pad-trimmed copy) or the distinct-value set of a
// CountDistinct. Only tables built WithSide carry a side array.
type Side struct {
	MM       []byte
	Distinct map[string]struct{}
}

// cellBytes is the in-memory size of one Cell (48 = 5×8 bytes + flag,
// rounded to alignment); slotBytes is one bucket slot (hash + dense index);
// sideBytes one Side (slice header + map pointer); distinctEntryBytes the
// per-entry overhead Bytes charges a distinct set on top of the value bytes
// (string header + its share of a map bucket).
const (
	cellBytes          = 48
	slotBytes          = 16
	sideBytes          = 32
	distinctEntryBytes = 24
)

// loadFactor is the occupancy threshold that doubles the slot array.
const loadFactor = 0.7

// slot is one open-addressing bucket: the group hash (0 = empty; hashes come
// from types.HashPairVec, which never emits 0) and the dense group index.
type slot struct {
	h   uint64
	idx int32
}

// Table accumulates groups keyed by one or two inline int64 words or by a
// serialized byte tuple. Group state lives in dense parallel arrays (keys,
// hashes, cells, optional sides) indexed by insertion order; the slot array
// only maps hashes to dense indexes, so growth rehashes 16 bytes per group
// and never moves accumulator state.
type Table struct {
	slots   []slot
	mask    uint64
	growAt  int
	nGroups int

	twoKeys  bool
	byteKeys bool
	nAggs    int

	k0     []int64 // inline keys
	k1     []int64 // nil unless twoKeys
	arena  []byte  // byte keys: group g's tuple is arena[offs[g]:offs[g+1]]
	offs   []int   // nil unless byteKeys
	hashes []uint64
	cells  []Cell // nGroups * nAggs, group-major
	side   []Side // parallel to cells; stays empty unless WithSide
	// sideHeap is the bytes the sides own outside the side array: min/max
	// values and distinct-set entries.
	sideHeap int64

	zero     []Cell // nAggs zero cells, appended per new group
	zeroSide []Side // nAggs zero sides (nil unless WithSide), likewise
}

// New returns an empty table with one or two inline 64-bit keys for nAggs
// accumulator columns. capHint sizes the initial slot array (in expected
// groups).
func New(nAggs int, twoKeys bool, capHint int) *Table {
	if capHint < 16 {
		capHint = 16
	}
	n := 1
	for float64(n)*loadFactor < float64(capHint) {
		n <<= 1
	}
	return &Table{
		slots:   make([]slot, n),
		mask:    uint64(n - 1),
		growAt:  int(loadFactor * float64(n)),
		twoKeys: twoKeys,
		nAggs:   nAggs,
		zero:    make([]Cell, nAggs),
	}
}

// NewBytes returns an empty table keyed by serialized byte tuples.
func NewBytes(nAggs, capHint int) *Table {
	t := New(nAggs, false, capHint)
	t.byteKeys, t.offs = true, []int{0}
	return t
}

// WithSide gives every accumulator a Side and returns t. Call it on an empty
// table whose aggregates include a char min/max or a CountDistinct.
func (t *Table) WithSide() *Table {
	t.zeroSide = make([]Side, t.nAggs)
	return t
}

// NewLike returns an empty table with t's key layout, accumulator count, and
// side array (the merge destination for tables like t).
func (t *Table) NewLike(capHint int) *Table {
	n := New(t.nAggs, t.twoKeys, capHint)
	if t.byteKeys {
		n.byteKeys, n.offs = true, []int{0}
	}
	n.zeroSide = t.zeroSide
	return n
}

// Len returns the number of distinct groups.
func (t *Table) Len() int { return t.nGroups }

// Key returns group g's inline keys (k1 is 0 for single-key tables).
func (t *Table) Key(g int) (k0, k1 int64) {
	if t.twoKeys {
		return t.k0[g], t.k1[g]
	}
	return t.k0[g], 0
}

// KeyBytes returns group g's serialized key tuple (byte-keyed tables). The
// slice aliases the arena; it stays valid until the next upsert.
func (t *Table) KeyBytes(g int) []byte { return t.arena[t.offs[g]:t.offs[g+1]] }

// CellAt returns the accumulator of group g, aggregate column j.
func (t *Table) CellAt(g int32, j int) *Cell { return &t.cells[int(g)*t.nAggs+j] }

// SideAt returns the out-of-line state of group g, aggregate column j (tables
// built WithSide only).
func (t *Table) SideAt(g int32, j int) *Side { return &t.side[int(g)*t.nAggs+j] }

// Bytes returns the table's approximate memory footprint: slot array plus the
// dense group arrays (keys or key arena, hashes, cells, sides) at their
// allocated capacities, plus what the sides own.
func (t *Table) Bytes() int64 {
	n := int64(len(t.slots)) * slotBytes
	n += int64(cap(t.k0)+cap(t.k1))*8 + int64(cap(t.hashes))*8
	n += int64(cap(t.arena)) + int64(cap(t.offs))*8
	n += int64(cap(t.cells)) * cellBytes
	n += int64(cap(t.side))*sideBytes + t.sideHeap
	return n
}

// addGroup claims slot i for a new group with hash h and appends its hash,
// zero cells, and zero sides; the caller appends the key.
func (t *Table) addGroup(i, h uint64) int32 {
	idx := int32(t.nGroups)
	t.slots[i] = slot{h: h, idx: idx}
	t.nGroups++
	t.hashes = append(t.hashes, h)
	t.cells = append(t.cells, t.zero...)
	t.side = append(t.side, t.zeroSide...)
	return idx
}

// upsert finds or creates the group for (h, a, b) and returns its dense
// index. h must be non-zero (types.HashPairVec guarantees it).
func (t *Table) upsert(h uint64, a, b int64) int32 {
	if t.nGroups >= t.growAt {
		t.grow()
	}
	i := h & t.mask
	for {
		s := t.slots[i]
		if s.h == 0 {
			t.k0 = append(t.k0, a)
			if t.twoKeys {
				t.k1 = append(t.k1, b)
			}
			return t.addGroup(i, h)
		}
		if s.h == h && t.k0[s.idx] == a && (!t.twoKeys || t.k1[s.idx] == b) {
			return s.idx
		}
		i = (i + 1) & t.mask
	}
}

// UpsertBytes finds or creates the group whose serialized key tuple is key
// (copied into the arena on creation) and returns its dense index. h is the
// tuple's hash and must be non-zero.
func (t *Table) UpsertBytes(h uint64, key []byte) int32 {
	if t.nGroups >= t.growAt {
		t.grow()
	}
	i := h & t.mask
	for {
		s := t.slots[i]
		if s.h == 0 {
			t.arena = append(t.arena, key...)
			t.offs = append(t.offs, len(t.arena))
			return t.addGroup(i, h)
		}
		if s.h == h && bytes.Equal(t.KeyBytes(int(s.idx)), key) {
			return s.idx
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the slot array, rehashing from the dense hash column.
func (t *Table) grow() {
	ns := make([]slot, len(t.slots)*2)
	mask := uint64(len(ns) - 1)
	for idx, h := range t.hashes {
		i := h & mask
		for ns[i].h != 0 {
			i = (i + 1) & mask
		}
		ns[i] = slot{h: h, idx: int32(idx)}
	}
	t.slots = ns
	t.mask = mask
	t.growAt = int(loadFactor * float64(len(ns)))
}

// UpsertBlock maps a block of keys to dense group indexes in one pass: row r
// of the block belongs to group dst[r]. k1 may be nil for single-key tables;
// hashes must come from types.HashPairVec over (k0, k1). dst's backing array
// is reused when large enough.
func (t *Table) UpsertBlock(k0, k1 []int64, hashes []uint64, dst []int32) []int32 {
	n := len(hashes)
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	if k1 == nil {
		for r, h := range hashes {
			dst[r] = t.upsert(h, k0[r], 0)
		}
		return dst
	}
	for r, h := range hashes {
		dst[r] = t.upsert(h, k0[r], k1[r])
	}
	return dst
}

// AccumCount bumps aggregate column j's row count for each row's group (the
// COUNT(*) kernel: no argument column to read).
func (t *Table) AccumCount(j int, groups []int32) {
	cells, na := t.cells, t.nAggs
	for _, g := range groups {
		cells[int(g)*na+j].Count++
	}
}

// AccumInt folds an integer argument column (int64 or widened date) into
// aggregate column j. Sum/Avg accumulate both the integer and float views.
func (t *Table) AccumInt(j int, a Agg, groups []int32, vals []int64) {
	cells, na := t.cells, t.nAggs
	switch a.Kind {
	case Sum, Avg:
		for r, g := range groups {
			c := &cells[int(g)*na+j]
			v := vals[r]
			c.Count++
			c.SumI += v
			c.SumF += float64(v)
		}
	case Min:
		for r, g := range groups {
			c := &cells[int(g)*na+j]
			c.Count++
			if v := vals[r]; !c.Set || v < c.MMI {
				c.MMI = v
				c.Set = true
			}
		}
	case Max:
		for r, g := range groups {
			c := &cells[int(g)*na+j]
			c.Count++
			if v := vals[r]; !c.Set || v > c.MMI {
				c.MMI = v
				c.Set = true
			}
		}
	default: // Count with an (ignored) argument
		t.AccumCount(j, groups)
	}
}

// AccumFloat folds a float argument column into aggregate column j. The
// integer sum stays untouched.
func (t *Table) AccumFloat(j int, a Agg, groups []int32, vals []float64) {
	cells, na := t.cells, t.nAggs
	switch a.Kind {
	case Sum, Avg:
		for r, g := range groups {
			c := &cells[int(g)*na+j]
			c.Count++
			c.SumF += vals[r]
		}
	case Min:
		for r, g := range groups {
			c := &cells[int(g)*na+j]
			c.Count++
			if v := vals[r]; !c.Set || v < c.MMF {
				c.MMF = v
				c.Set = true
			}
		}
	case Max:
		for r, g := range groups {
			c := &cells[int(g)*na+j]
			c.Count++
			if v := vals[r]; !c.Set || v > c.MMF {
				c.MMF = v
				c.Set = true
			}
		}
	default:
		t.AccumCount(j, groups)
	}
}

// UpdateBytes folds one char value (padding already trimmed) into group g's
// min/max aggregate j: the running value is an owned copy in the Side.
func (t *Table) UpdateBytes(g int32, j int, a Agg, v []byte) {
	i := int(g)*t.nAggs + j
	c := &t.cells[i]
	c.Count++
	t.takeBytes(c, &t.side[i], a, v)
}

// takeBytes replaces the running char min/max with v when v is better.
func (t *Table) takeBytes(c *Cell, s *Side, a Agg, v []byte) {
	cmp := bytes.Compare(v, s.MM)
	if better := !c.Set || (a.Kind == Min && cmp < 0) || (a.Kind == Max && cmp > 0); !better {
		return
	}
	t.sideHeap -= int64(cap(s.MM))
	s.MM = append(s.MM[:0], v...)
	t.sideHeap += int64(cap(s.MM))
	c.Set = true
}

// AddDistinct records one argument value, serialized by the caller so equal
// values are equal byte strings, in group g's CountDistinct aggregate j.
func (t *Table) AddDistinct(g int32, j int, v []byte) {
	i := int(g)*t.nAggs + j
	t.cells[i].Count++
	s := &t.side[i]
	if _, ok := s.Distinct[string(v)]; !ok { // no string is allocated for a hit
		t.addDistinct(s, string(v))
	}
}

// addDistinct inserts v, which is not yet in s's set.
func (t *Table) addDistinct(s *Side, v string) {
	if s.Distinct == nil {
		s.Distinct = make(map[string]struct{})
	}
	s.Distinct[v] = struct{}{}
	t.sideHeap += int64(len(v)) + distinctEntryBytes
}

// MergeCell folds src into dst (partial-table merge).
func MergeCell(dst, src *Cell, a Agg) {
	dst.Count += src.Count
	dst.SumI += src.SumI
	dst.SumF += src.SumF
	if !src.Set {
		return
	}
	if !dst.Set {
		dst.MMI, dst.MMF, dst.Set = src.MMI, src.MMF, true
		return
	}
	var take bool
	if a.Float {
		take = (a.Kind == Min && src.MMF < dst.MMF) || (a.Kind == Max && src.MMF > dst.MMF)
	} else {
		take = (a.Kind == Min && src.MMI < dst.MMI) || (a.Kind == Max && src.MMI > dst.MMI)
	}
	if take {
		dst.MMI, dst.MMF = src.MMI, src.MMF
	}
}

// MergePartition folds every src group whose hash falls in radix partition
// part of pr (see types.Partitioner) into dst. Partitions are disjoint by
// construction, so concurrent merge work orders over distinct partitions
// share nothing; a single-partition pr (types.NewPartitioner(1)) with part 0
// folds every group.
func (t *Table) MergePartition(src *Table, part int, pr types.Partitioner, aggs []Agg) {
	for g := 0; g < src.nGroups; g++ {
		h := src.hashes[g]
		if pr.Of(h) != part {
			continue
		}
		var idx int32
		switch {
		case src.byteKeys:
			idx = t.UpsertBytes(h, src.KeyBytes(g))
		case src.twoKeys:
			idx = t.upsert(h, src.k0[g], src.k1[g])
		default:
			idx = t.upsert(h, src.k0[g], 0)
		}
		for j, a := range aggs {
			di, si := int(idx)*t.nAggs+j, g*src.nAggs+j
			if a.side() {
				t.mergeSide(&t.cells[di], &t.side[di], &src.cells[si], &src.side[si], a)
			}
			MergeCell(&t.cells[di], &src.cells[si], a)
		}
	}
}

// mergeSide folds src's out-of-line state into dst's; it runs before
// MergeCell so dst's Set flag still describes dst alone.
func (t *Table) mergeSide(dc *Cell, ds *Side, sc *Cell, ss *Side, a Agg) {
	if a.Bytes && sc.Set {
		t.takeBytes(dc, ds, a, ss.MM)
	}
	for v := range ss.Distinct {
		if _, ok := ds.Distinct[v]; !ok {
			t.addDistinct(ds, v)
		}
	}
}
