// Package aggtable implements the aggregation hash table behind exec.AggOp:
// an open-addressing table that maps group keys to dense group ids, with
// each aggregate's state in its own typed column indexed by group id, so
// accumulation, merging, and result emission run tight columnar loops and a
// group costs only the state its aggregates keep.
//
// Every aggregation runs through this one table; the key layout and the
// column layout vary, and the operator picks both once at plan time. New
// keeps one or two 64-bit words inline (int64, date, and float64-by-bits
// keys — the common case across the TPC-H/SSB plans); NewBytes keeps each
// group's serialized key tuple in a byte arena (char keys, three or more
// keys). Layout gives each aggregate a column that holds only what its
// function needs: 8 bytes a group for SUM, COUNT, MIN and MAX, 16 for AVG
// (a float sum and a row count), and a pointer to out-of-line state for a
// char MIN/MAX (an owned copy of the running value) or a COUNT(DISTINCT)
// (the set of values seen). Slots, hashes, columns, growth, and
// MergePartition are shared by both key layouts.
//
// The table is deliberately not internally synchronized. Aggregation work
// orders each own a thread-local partial table; the operator's Final fans
// out one merge work order per radix partition of the group-hash space, so
// partials merge in parallel with no shared lock (the aggregation analogue
// of PR1's shard-lock amortization on the join build).
package aggtable

import (
	"bytes"
	"slices"

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
	// CountDistinct counts distinct argument values.
	CountDistinct
)

// Agg describes one accumulator column: its function, whether it holds
// floats (a float argument, or an integer one whose SUM is read as a float),
// and, for a char MIN/MAX, that its running value is a byte string.
type Agg struct {
	Kind  Kind
	Float bool
	Bytes bool
}

// colKind is a column's layout, picked once from its Agg.
type colKind uint8

const (
	countCol    colKind = iota // ints: rows seen
	sumIntCol                  // ints: the sum
	sumFloatCol                // floats: the sum (of float64(v) for integer arguments)
	avgCol                     // floats: the sum as sumFloatCol; ints: rows seen
	minIntCol                  // ints: the running value
	maxIntCol
	minFloatCol // floats: the running value
	maxFloatCol
	minBytesCol // strs: an owned, pad-trimmed copy of the running value
	maxBytesCol
	distinctCol // sets: the values seen, serialized by the caller
)

func kindOf(a Agg) colKind {
	switch {
	case a.Kind == Count:
		return countCol
	case a.Kind == Avg:
		return avgCol
	case a.Kind == CountDistinct:
		return distinctCol
	case a.Kind == Sum && a.Float:
		return sumFloatCol
	case a.Kind == Sum:
		return sumIntCol
	case a.Bytes:
		return minBytesCol + colKind(a.Kind-Min)
	case a.Float:
		return minFloatCol + colKind(a.Kind-Min)
	}
	return minIntCol + colKind(a.Kind-Min)
}

// column is one aggregate's state for every group, indexed by group id.
// Only the slices its kind names are ever appended to.
type column struct {
	kind   colKind
	ints   []int64
	floats []float64
	strs   [][]byte
	sets   []map[string]struct{}
	// seen is, for a MIN/MAX, how many leading groups hold a value. Groups
	// are numbered in the order their first row arrives, and accumulation
	// and merging visit rows in that order, so group g holds a value exactly
	// when g < seen and the first value a group meets is simply taken. A
	// group past seen reads as the zero value, which is what a scalar
	// aggregate over empty input returns.
	seen int
}

// add appends a new group's zero state.
func (c *column) add() {
	switch c.kind {
	case sumFloatCol, minFloatCol, maxFloatCol:
		c.floats = append(c.floats, 0)
	case avgCol:
		c.floats = append(c.floats, 0)
		c.ints = append(c.ints, 0)
	case minBytesCol, maxBytesCol:
		c.strs = append(c.strs, nil)
	case distinctCol:
		c.sets = append(c.sets, nil)
	default:
		c.ints = append(c.ints, 0)
	}
}

// slotBytes is one bucket slot (hash tag + dense index); strBytes one char
// MIN/MAX value's slice header; setBytes one COUNT(DISTINCT) set's map
// pointer; distinctEntryBytes the per-entry overhead Bytes charges a
// distinct set on top of the value bytes (string header + its share of a
// map bucket).
const (
	slotBytes          = 8
	strBytes           = 24
	setBytes           = 8
	distinctEntryBytes = 24
)

// loadFactor is the occupancy threshold that doubles the slot array.
const loadFactor = 0.7

// slot is one open-addressing bucket: 0 when empty, else the group hash's
// high 32 bits (its tag; the low bits pick the bucket) over the dense group
// index plus one. A tag match is confirmed by comparing keys.
type slot uint64

const tagBits uint64 = 0xffffffff << 32

func newSlot(h uint64, idx int32) slot { return slot(h&tagBits | uint64(idx+1)) }

// idx is the dense group index of a non-empty slot.
func (s slot) idx() int32 { return int32(uint32(s)) - 1 }

// Table accumulates groups keyed by one or two inline int64 words or by a
// serialized byte tuple. Group state lives in dense arrays (keys, hashes,
// one column per aggregate) indexed by insertion order; the slot array only
// maps hash tags to dense indexes, so growth rehashes 8 bytes per group
// from the hash column and never moves accumulator state.
type Table struct {
	slots   []slot
	mask    uint64
	growAt  int
	nGroups int

	twoKeys  bool
	byteKeys bool

	k0     []int64 // inline keys
	k1     []int64 // nil unless twoKeys
	arena  []byte  // byte keys: group g's tuple is arena[offs[g]:offs[g+1]]
	offs   []int   // nil unless byteKeys
	hashes []uint64
	aggs   []Agg    // the layout
	cols   []column // one per aggregate
	// heap is the bytes the columns own outside their arrays: char MIN/MAX
	// values and distinct-set entries.
	heap int64

	// mergeSrc/mergeDst pair the groups of one MergePartition call.
	mergeSrc, mergeDst []int32
}

// New returns an empty table with one or two inline 64-bit keys and nAggs
// float SUM columns; Layout lays out others. capHint sizes the initial slot
// array (in expected groups).
func New(nAggs int, twoKeys bool, capHint int) *Table {
	if capHint < 16 {
		capHint = 16
	}
	n := 1
	for float64(n)*loadFactor < float64(capHint) {
		n <<= 1
	}
	t := &Table{
		slots:   make([]slot, n),
		mask:    uint64(n - 1),
		growAt:  int(loadFactor * float64(n)),
		twoKeys: twoKeys,
	}
	aggs := make([]Agg, nAggs)
	for j := range aggs {
		aggs[j] = Agg{Kind: Sum, Float: true}
	}
	return t.Layout(aggs)
}

// NewBytes returns an empty table keyed by serialized byte tuples, with
// nAggs float SUM columns.
func NewBytes(nAggs, capHint int) *Table {
	t := New(nAggs, false, capHint)
	t.byteKeys, t.offs = true, []int{0}
	return t
}

// Layout gives the empty table t one column per aggregate of aggs, each
// holding only the state its function needs, and returns t.
func (t *Table) Layout(aggs []Agg) *Table {
	t.aggs = aggs
	t.cols = make([]column, len(aggs))
	for j, a := range aggs {
		t.cols[j].kind = kindOf(a)
	}
	return t
}

// NewLike returns an empty table with t's key and column layout (the merge
// destination for tables like t).
func (t *Table) NewLike(capHint int) *Table {
	n := New(0, t.twoKeys, capHint).Layout(t.aggs)
	if t.byteKeys {
		n.byteKeys, n.offs = true, []int{0}
	}
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

// Bytes returns the table's memory footprint: the slot array plus the dense
// group arrays (keys or key arena, hashes, columns) at their allocated
// capacities, plus what the columns own outside them.
func (t *Table) Bytes() int64 {
	n := int64(len(t.slots)) * slotBytes
	n += int64(cap(t.k0)+cap(t.k1)+cap(t.hashes)+cap(t.offs)) * 8
	n += int64(cap(t.arena))
	for j := range t.cols {
		c := &t.cols[j]
		n += int64(cap(c.ints)+cap(c.floats))*8 + int64(cap(c.strs))*strBytes + int64(cap(c.sets))*setBytes
	}
	return n + t.heap
}

// addGroup claims slot i for a new group with hash h and appends its hash
// and one zero per column; the caller appends the key.
func (t *Table) addGroup(i, h uint64) int32 {
	idx := int32(t.nGroups)
	t.slots[i] = newSlot(h, idx)
	t.nGroups++
	t.hashes = append(t.hashes, h)
	for j := range t.cols {
		t.cols[j].add()
	}
	return idx
}

// upsert finds or creates the group for (h, a, b) and returns its dense
// index. h must be non-zero (types.HashPairVec guarantees it).
func (t *Table) upsert(h uint64, a, b int64) int32 {
	if t.nGroups >= t.growAt {
		t.grow()
	}
	i, tag := h&t.mask, h&tagBits
	for {
		s := t.slots[i]
		if s == 0 {
			t.k0 = append(t.k0, a)
			if t.twoKeys {
				t.k1 = append(t.k1, b)
			}
			return t.addGroup(i, h)
		}
		if uint64(s)&tagBits == tag {
			if g := s.idx(); t.k0[g] == a && (!t.twoKeys || t.k1[g] == b) {
				return g
			}
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
	i, tag := h&t.mask, h&tagBits
	for {
		s := t.slots[i]
		if s == 0 {
			t.arena = append(t.arena, key...)
			t.offs = append(t.offs, len(t.arena))
			return t.addGroup(i, h)
		}
		if uint64(s)&tagBits == tag && bytes.Equal(t.KeyBytes(int(s.idx())), key) {
			return s.idx()
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
		for ns[i] != 0 {
			i = (i + 1) & mask
		}
		ns[i] = newSlot(h, int32(idx))
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

// AccumCount bumps column j's row count for each row's group: the COUNT(*)
// kernel, with no argument column to read. Column j is a COUNT, or an AVG
// without an argument.
func (t *Table) AccumCount(j int, groups []int32) {
	n := t.cols[j].ints
	for _, g := range groups {
		n[g]++
	}
}

// AccumInt folds an integer argument column (int64 or widened date) into
// column j, groups[r] being row r's group. The groups must cover every row
// of the block that created them, in row order.
func (t *Table) AccumInt(j int, groups []int32, vals []int64) {
	c := &t.cols[j]
	switch c.kind {
	case sumIntCol:
		s := c.ints
		for r, g := range groups {
			s[g] += vals[r]
		}
	case sumFloatCol:
		s := c.floats
		for r, g := range groups {
			s[g] += float64(vals[r])
		}
	case avgCol:
		s, n := c.floats, c.ints
		for r, g := range groups {
			s[g] += float64(vals[r])
			n[g]++
		}
	case minIntCol:
		c.seen = foldMin(c.ints, c.seen, groups, vals)
	case maxIntCol:
		c.seen = foldMax(c.ints, c.seen, groups, vals)
	default: // COUNT with an (ignored) argument
		t.AccumCount(j, groups)
	}
}

// AccumFloat folds a float argument column into column j, like AccumInt.
func (t *Table) AccumFloat(j int, groups []int32, vals []float64) {
	c := &t.cols[j]
	switch c.kind {
	case sumFloatCol:
		s := c.floats
		for r, g := range groups {
			s[g] += vals[r]
		}
	case avgCol:
		s, n := c.floats, c.ints
		for r, g := range groups {
			s[g] += vals[r]
			n[g]++
		}
	case minFloatCol:
		c.seen = foldMin(c.floats, c.seen, groups, vals)
	case maxFloatCol:
		c.seen = foldMax(c.floats, c.seen, groups, vals)
	default:
		t.AccumCount(j, groups)
	}
}

// foldMin folds vals into the running minimums m, of which the first seen
// groups hold a value, and returns the new count. A group's first value is
// taken whatever it is (a NaN then stays, as no value compares below it).
func foldMin[T int64 | float64](m []T, seen int, groups []int32, vals []T) int {
	for r, g := range groups {
		if v := vals[r]; int(g) >= seen {
			m[g], seen = v, int(g)+1
		} else if v < m[g] {
			m[g] = v
		}
	}
	return seen
}

// foldMax is foldMin for maximums.
func foldMax[T int64 | float64](m []T, seen int, groups []int32, vals []T) int {
	for r, g := range groups {
		if v := vals[r]; int(g) >= seen {
			m[g], seen = v, int(g)+1
		} else if v > m[g] {
			m[g] = v
		}
	}
	return seen
}

// UpdateBytes folds one char value (padding already trimmed) into group g's
// char MIN/MAX column j: the running value, an owned copy, becomes v when v
// is better or g holds no value yet. Rows reach it in row order, like the
// Accum kernels'.
func (t *Table) UpdateBytes(g int32, j int, v []byte) {
	c := &t.cols[j]
	if int(g) < c.seen {
		cmp := bytes.Compare(v, c.strs[g])
		if (c.kind == minBytesCol && cmp >= 0) || (c.kind == maxBytesCol && cmp <= 0) {
			return
		}
	} else {
		c.seen = int(g) + 1
	}
	s := &c.strs[g]
	t.heap -= int64(cap(*s))
	*s = append((*s)[:0], v...)
	t.heap += int64(cap(*s))
}

// AddDistinct records one argument value, serialized by the caller so equal
// values are equal byte strings, in group g's COUNT(DISTINCT) column j.
func (t *Table) AddDistinct(g int32, j int, v []byte) {
	s := &t.cols[j].sets[g]
	if _, ok := (*s)[string(v)]; !ok { // no string is allocated for a hit
		t.addDistinct(s, string(v))
	}
}

// addDistinct inserts v, which is not yet in *s.
func (t *Table) addDistinct(s *map[string]struct{}, v string) {
	if *s == nil {
		*s = make(map[string]struct{})
	}
	(*s)[v] = struct{}{}
	t.heap += int64(len(v)) + distinctEntryBytes
}

// Finish writes column j's results for groups lo, lo+1, ..., lo+len(dst)-1
// into dst, each typed ty, the output column's type: a count or integer sum
// as int64, a float sum, an average or a float min/max as float64, an
// integer min/max as ty, a char min/max as char, and a COUNT(DISTINCT) as the
// set's size. A MIN/MAX group that holds no value reads as ty's zero.
func (t *Table) Finish(j, lo int, ty types.TypeID, dst []types.Datum) {
	c := &t.cols[j]
	hi := lo + len(dst)
	switch c.kind {
	case countCol, sumIntCol:
		for i, v := range c.ints[lo:hi] {
			dst[i] = types.NewInt64(v)
		}
	case sumFloatCol, minFloatCol, maxFloatCol:
		for i, v := range c.floats[lo:hi] {
			dst[i] = types.NewFloat64(v)
		}
	case avgCol:
		n := c.ints[lo:hi]
		for i, s := range c.floats[lo:hi] {
			dst[i] = types.NewFloat64(0)
			if n[i] != 0 {
				dst[i].F = s / float64(n[i])
			}
		}
	case minIntCol, maxIntCol:
		for i, v := range c.ints[lo:hi] {
			dst[i] = types.Datum{Ty: ty, I: v}
		}
	case minBytesCol, maxBytesCol:
		for i, v := range c.strs[lo:hi] {
			dst[i] = types.NewChar(v)
		}
	case distinctCol:
		for i, s := range c.sets[lo:hi] {
			dst[i] = types.NewInt64(int64(len(s)))
		}
	}
}

// MergePartition folds every src group whose hash falls in radix partition
// part of pr (see types.Partitioner) into t. Partitions are disjoint by
// construction, so concurrent merge work orders over distinct partitions
// share nothing; a single-partition pr (types.NewPartitioner(1)) with part 0
// folds every group. aggs is src's layout; t takes it if it is still empty,
// so a table New made merges any layout. Sums add in src's group order.
func (t *Table) MergePartition(src *Table, part int, pr types.Partitioner, aggs []Agg) {
	if t.nGroups == 0 && !slices.Equal(t.aggs, aggs) {
		t.Layout(aggs)
	}
	sg, dg := t.mergeSrc[:0], t.mergeDst[:0]
	for g, h := range src.hashes[:src.nGroups] {
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
		sg, dg = append(sg, int32(g)), append(dg, idx)
	}
	t.mergeSrc, t.mergeDst = sg, dg
	for j := range t.cols {
		t.mergeColumn(j, &src.cols[j], sg, dg)
	}
}

// mergeColumn folds src column s into t's column j: src group sg[k] into
// group dg[k].
func (t *Table) mergeColumn(j int, s *column, sg, dg []int32) {
	d := &t.cols[j]
	switch d.kind {
	case countCol, sumIntCol:
		addInto(d.ints, s.ints, sg, dg)
	case sumFloatCol:
		addInto(d.floats, s.floats, sg, dg)
	case avgCol:
		addInto(d.floats, s.floats, sg, dg)
		addInto(d.ints, s.ints, sg, dg)
	case minIntCol:
		d.seen = mergeMin(d.ints, s.ints, d.seen, s.seen, sg, dg)
	case maxIntCol:
		d.seen = mergeMax(d.ints, s.ints, d.seen, s.seen, sg, dg)
	case minFloatCol:
		d.seen = mergeMin(d.floats, s.floats, d.seen, s.seen, sg, dg)
	case maxFloatCol:
		d.seen = mergeMax(d.floats, s.floats, d.seen, s.seen, sg, dg)
	case minBytesCol, maxBytesCol:
		for k, si := range sg {
			if int(si) < s.seen {
				t.UpdateBytes(dg[k], j, s.strs[si])
			}
		}
	case distinctCol:
		for k, si := range sg {
			ds := &d.sets[dg[k]]
			for v := range s.sets[si] {
				if _, ok := (*ds)[v]; !ok {
					t.addDistinct(ds, v)
				}
			}
		}
	}
}

func addInto[T int64 | float64](d, s []T, sg, dg []int32) {
	for k, si := range sg {
		d[dg[k]] += s[si]
	}
}

// mergeMin folds the src minimums s of src's first sseen groups into d, of
// which the first seen groups hold a value, and returns the new count.
func mergeMin[T int64 | float64](d, s []T, seen, sseen int, sg, dg []int32) int {
	for k, si := range sg {
		if int(si) >= sseen {
			continue
		}
		if v, di := s[si], dg[k]; int(di) >= seen {
			d[di], seen = v, int(di)+1
		} else if v < d[di] {
			d[di] = v
		}
	}
	return seen
}

// mergeMax is mergeMin for maximums.
func mergeMax[T int64 | float64](d, s []T, seen, sseen int, sg, dg []int32) int {
	for k, si := range sg {
		if int(si) >= sseen {
			continue
		}
		if v, di := s[si], dg[k]; int(di) >= seen {
			d[di], seen = v, int(di)+1
		} else if v > d[di] {
			d[di] = v
		}
	}
	return seen
}
