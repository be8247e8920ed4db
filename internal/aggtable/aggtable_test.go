package aggtable

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// refMap is the map-based oracle for table behavior.
type refKey struct{ a, b int64 }

func TestUpsertBlockGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := New(0, true, 4).Layout([]Agg{{Kind: Sum}}) // tiny capacity forces growth
	ref := map[refKey]int64{}
	const n = 5000
	k0 := make([]int64, n)
	k1 := make([]int64, n)
	for i := range k0 {
		k0[i] = int64(rng.Intn(97))
		k1[i] = int64(rng.Intn(11))
	}
	hashes := types.HashPairVec(k0, k1, nil)
	groups := tab.UpsertBlock(k0, k1, hashes, nil)
	for r := range k0 {
		tab.AccumInt(0, groups[r:r+1], k0[r:r+1])
		ref[refKey{k0[r], k1[r]}] += k0[r]
	}
	if tab.Len() != len(ref) {
		t.Fatalf("groups = %d, want %d", tab.Len(), len(ref))
	}
	for g := 0; g < tab.Len(); g++ {
		a, b := tab.Key(g)
		if got, want := result(tab, g, 0, types.Int64).I, ref[refKey{a, b}]; got != want {
			t.Errorf("group (%d,%d): sum = %d, want %d", a, b, got, want)
		}
	}
}

func TestSingleKeyIgnoresSecond(t *testing.T) {
	tab := New(1, false, 16)
	k0 := []int64{1, 2, 1, 2, 1}
	hashes := types.HashPairVec(k0, nil, nil)
	tab.UpsertBlock(k0, nil, hashes, nil)
	if tab.Len() != 2 {
		t.Fatalf("groups = %d, want 2", tab.Len())
	}
}

func TestAccumKernelsMatchUpdate(t *testing.T) {
	// Columnar kernels must produce exactly what folding one value at a time
	// (refCell) produces.
	rng := rand.New(rand.NewSource(3))
	aggs := []Agg{
		{Kind: Sum}, {Kind: Avg}, {Kind: Min}, {Kind: Max}, {Kind: Count},
		{Kind: Sum, Float: true}, {Kind: Min, Float: true}, {Kind: Max, Float: true},
		{Kind: Avg, Float: true}, {Kind: Sum, Float: true},
	}
	// The last SUM is of an integer argument read as a float (a date SUM).
	intArg := func(j int) bool { return !aggs[j].Float || j == len(aggs)-1 }
	tab := New(0, false, 16).Layout(aggs)
	const n = 2000
	k0 := make([]int64, n)
	vi := make([]int64, n)
	vf := make([]float64, n)
	for i := range k0 {
		k0[i] = int64(rng.Intn(31))
		vi[i] = int64(rng.Intn(1000)) - 500
		vf[i] = float64(rng.Intn(4000)) / 4
	}
	hashes := types.HashPairVec(k0, nil, nil)
	groups := tab.UpsertBlock(k0, nil, hashes, nil)
	want := map[int64][]refCell{}
	for r := range groups {
		cs := want[k0[r]]
		if cs == nil {
			cs = make([]refCell, len(aggs))
			want[k0[r]] = cs
		}
		for j, a := range aggs {
			if intArg(j) {
				cs[j].update(a, float64(vi[r]), vi[r])
			} else {
				cs[j].update(a, vf[r], 0)
			}
		}
	}
	for j, a := range aggs {
		switch {
		case a.Kind == Count:
			tab.AccumCount(j, groups)
		case intArg(j):
			tab.AccumInt(j, groups, vi)
		default:
			tab.AccumFloat(j, groups, vf)
		}
	}
	for g := 0; g < tab.Len(); g++ {
		k, _ := tab.Key(g)
		for j, a := range aggs {
			ty := types.Float64
			if a.Kind == Count || (a.Kind != Avg && !a.Float) {
				ty = types.Int64
			}
			got, w := result(tab, g, j, ty), want[k][j].finish(a, ty)
			if got.Ty != w.Ty || got.I != w.I || math.Float64bits(got.F) != math.Float64bits(w.F) {
				t.Errorf("key %d agg %d: %+v, want %+v", k, j, got, w)
			}
		}
	}
}

func TestMergePartitionCoversAllGroupsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	aggs := []Agg{{Kind: Sum}, {Kind: Min}}
	const bits = 4
	// Two partials with overlapping key sets.
	mk := func(seed int64) *Table {
		r := rand.New(rand.NewSource(seed))
		tab := New(0, false, 8).Layout(aggs)
		n := 3000
		k0 := make([]int64, n)
		v := make([]int64, n)
		for i := range k0 {
			k0[i] = int64(r.Intn(200))
			v[i] = int64(r.Intn(50))
		}
		h := types.HashPairVec(k0, nil, nil)
		g := tab.UpsertBlock(k0, nil, h, nil)
		tab.AccumInt(0, g, v)
		tab.AccumInt(1, g, v)
		return tab
	}
	_ = rng
	a, b := mk(1), mk(2)

	// Oracle: merge everything into one table.
	whole := a.NewLike(8)
	one := types.NewPartitioner(1)
	whole.MergePartition(a, 0, one, aggs) // single partition covers all
	whole.MergePartition(b, 0, one, aggs)

	merged := map[int64][2]int64{}
	var total int
	pr := types.NewPartitioner(1 << bits)
	for p := 0; p < pr.Parts(); p++ {
		dst := a.NewLike(8)
		dst.MergePartition(a, p, pr, aggs)
		dst.MergePartition(b, p, pr, aggs)
		total += dst.Len()
		for g := 0; g < dst.Len(); g++ {
			k, _ := dst.Key(g)
			if _, dup := merged[k]; dup {
				t.Fatalf("key %d appeared in two partitions", k)
			}
			merged[k] = sumMin(dst, g)
		}
	}
	if total != whole.Len() {
		t.Fatalf("partitioned merge has %d groups, whole merge %d", total, whole.Len())
	}
	for g := 0; g < whole.Len(); g++ {
		k, _ := whole.Key(g)
		if got, want := merged[k], sumMin(whole, g); got != want {
			t.Errorf("key %d: partitioned %+v, whole %+v", k, got, want)
		}
	}
}

// sumMin reads group g's two columns of the {SUM, MIN} fixtures.
func sumMin(t *Table, g int) [2]int64 {
	return [2]int64{result(t, g, 0, types.Int64).I, result(t, g, 1, types.Int64).I}
}

// TestMergePartitionMinMax: a MIN/MAX merge takes the source's value where
// the destination holds none, keeps the better one otherwise, and ignores a
// source group that holds no value (a scalar aggregate's seeded group with
// no input rows), which then reads as zero.
func TestMergePartitionMinMax(t *testing.T) {
	aggs := []Agg{{Kind: Min}, {Kind: Max, Float: true}}
	one := types.NewPartitioner(1)
	scalar := func(vi []int64, vf []float64) *Table {
		tab := New(0, false, 1).Layout(aggs)
		tab.UpsertBlock([]int64{0}, nil, []uint64{1}, nil)
		g := make([]int32, len(vi)) // every row is in group 0
		tab.AccumInt(0, g, vi)
		tab.AccumFloat(1, g, vf)
		return tab
	}
	dst := New(0, false, 1).Layout(aggs)
	check := func(step string, wantMin int64, wantMax float64) {
		t.Helper()
		if got := result(dst, 0, 0, types.Int64).I; got != wantMin {
			t.Errorf("%s: min = %d, want %d", step, got, wantMin)
		}
		if got := result(dst, 0, 1, types.Float64).F; got != wantMax && !(got != got && wantMax != wantMax) {
			t.Errorf("%s: max = %v, want %v", step, got, wantMax)
		}
	}
	dst.MergePartition(scalar(nil, nil), 0, one, aggs)
	check("unset source", 0, 0)
	dst.MergePartition(scalar([]int64{5}, []float64{-2}), 0, one, aggs)
	check("first value", 5, -2)
	dst.MergePartition(scalar([]int64{3, 4}, []float64{-3, -1}), 0, one, aggs)
	check("better value", 3, -1)
	dst.MergePartition(scalar([]int64{9}, []float64{-7}), 0, one, aggs)
	check("worse value", 3, -1)

	// A group's first value is taken even if it is a NaN, which no later
	// value then replaces: the order-dependent result of a per-value fold.
	nan := math.NaN()
	if got := result(scalar([]int64{1, 2}, []float64{nan, 4}), 0, 1, types.Float64).F; got == got {
		t.Errorf("NaN first: max = %v, want NaN", got)
	}
	if got := result(scalar([]int64{1, 2}, []float64{4, nan}), 0, 1, types.Float64).F; got != 4 {
		t.Errorf("NaN later: max = %v, want 4", got)
	}
}

func TestBytesGrows(t *testing.T) {
	tab := New(0, false, 16).Layout([]Agg{{Kind: Count}, {Kind: Avg}})
	b0 := tab.Bytes()
	if b0 <= 0 {
		t.Fatal("empty table reports no bytes")
	}
	k0 := make([]int64, 10000)
	for i := range k0 {
		k0[i] = int64(i)
	}
	h := types.HashPairVec(k0, nil, nil)
	tab.UpsertBlock(k0, nil, h, nil)
	if tab.Bytes() <= b0 {
		t.Fatalf("Bytes did not grow: %d -> %d", b0, tab.Bytes())
	}
}

func TestRadixBits(t *testing.T) {
	if types.Radix(^uint64(0), 4) != 15 {
		t.Fatal("Radix top bits wrong")
	}
	if types.Radix(1<<60, 4) != 1 {
		t.Fatal("Radix partition wrong")
	}
}

// refCell is the per-value oracle the columnar kernels are checked against:
// every aggregate's state, folded one value at a time.
type refCell struct {
	count int64
	sumI  int64
	sumF  float64
	mmF   float64
	mmI   int64
	set   bool
}

// update folds one value, f being its float view and i its integer one.
func (c *refCell) update(a Agg, f float64, i int64) {
	c.count++
	c.sumI += i
	c.sumF += f
	better := !c.set || (a.Kind == Min && (f < c.mmF || i < c.mmI)) || (a.Kind == Max && (f > c.mmF || i > c.mmI))
	if (a.Kind == Min || a.Kind == Max) && better {
		c.mmF, c.mmI, c.set = f, i, true
	}
}

// finish is the datum the column of a and output type ty must produce.
func (c *refCell) finish(a Agg, ty types.TypeID) types.Datum {
	switch {
	case a.Kind == Count:
		return types.NewInt64(c.count)
	case a.Kind == Avg:
		return types.NewFloat64(c.sumF / float64(c.count))
	case ty == types.Int64 && a.Kind == Sum:
		return types.NewInt64(c.sumI)
	case ty == types.Int64:
		return types.NewInt64(c.mmI)
	case a.Kind == Sum:
		return types.NewFloat64(c.sumF)
	}
	return types.NewFloat64(c.mmF)
}

// result reads group g's result in column j, typed ty.
func result(t *Table, g, j int, ty types.TypeID) types.Datum {
	var d [1]types.Datum
	t.Finish(j, g, ty, d[:])
	return d[0]
}

// byteAggs are the aggregates of the byte-keyed fixtures: MIN(value),
// MAX(value), COUNT(DISTINCT value), COUNT(*).
var byteAggs = []Agg{{Kind: Min, Bytes: true}, {Kind: Max, Bytes: true}, {Kind: CountDistinct}, {Kind: Count}}

type byteRef struct {
	min, max string
	distinct map[string]bool
	count    int64
}

// byteKeyed builds a byte-keyed table with side state over n random rows of
// (one of 300 group keys, a two-letter value) and records what a single pass
// would compute in ref.
func byteKeyed(seed int64, n int, ref map[string]*byteRef) *Table {
	rng := rand.New(rand.NewSource(seed))
	tab := NewBytes(0, 4).Layout(byteAggs) // tiny capacity forces growth
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("group-%d", rng.Intn(300))
		val := string([]byte{byte('a' + rng.Intn(6)), byte('a' + rng.Intn(6))})
		g := tab.UpsertBytes(types.HashBytes([]byte(key))|1, []byte(key))
		tab.UpdateBytes(g, 0, []byte(val))
		tab.UpdateBytes(g, 1, []byte(val))
		tab.AddDistinct(g, 2, []byte(val))
		tab.AccumCount(3, []int32{g})
		r := ref[key]
		if r == nil {
			r = &byteRef{min: val, max: val, distinct: map[string]bool{}}
			ref[key] = r
		}
		r.min, r.max = min(r.min, val), max(r.max, val)
		r.distinct[val] = true
		r.count++
	}
	return tab
}

func requireByteGroups(t *testing.T, tab *Table, ref map[string]*byteRef) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("groups = %d, want %d", tab.Len(), len(ref))
	}
	for g := 0; g < tab.Len(); g++ {
		key := string(tab.KeyBytes(g))
		r := ref[key]
		if r == nil {
			t.Fatalf("unexpected group %q", key)
		}
		if got := string(result(tab, g, 0, types.Char).B); got != r.min {
			t.Errorf("%s: min = %q, want %q", key, got, r.min)
		}
		if got := string(result(tab, g, 1, types.Char).B); got != r.max {
			t.Errorf("%s: max = %q, want %q", key, got, r.max)
		}
		if got := result(tab, g, 2, types.Int64).I; got != int64(len(r.distinct)) {
			t.Errorf("%s: distinct = %d, want %d", key, got, len(r.distinct))
		}
		if got := result(tab, g, 3, types.Int64).I; got != r.count {
			t.Errorf("%s: count = %d, want %d", key, got, r.count)
		}
	}
}

func TestByteKeysAndSideState(t *testing.T) {
	ref := map[string]*byteRef{}
	requireByteGroups(t, byteKeyed(5, 4000, ref), ref)
}

// TestMergePartitionByteKeysAndSides: the radix merge of two byte-keyed
// partials with side state covers every group exactly once and folds the
// char min/max and distinct sets like a single pass over both inputs.
func TestMergePartitionByteKeysAndSides(t *testing.T) {
	ref := map[string]*byteRef{}
	a, b := byteKeyed(1, 3000, ref), byteKeyed(2, 3000, ref)
	pr := types.NewPartitioner(16)
	whole := a.NewLike(8)
	for p := 0; p < pr.Parts(); p++ {
		dst := a.NewLike(8)
		dst.MergePartition(a, p, pr, byteAggs)
		dst.MergePartition(b, p, pr, byteAggs)
		whole.MergePartition(dst, 0, types.NewPartitioner(1), byteAggs)
	}
	requireByteGroups(t, whole, ref)
}

// TestBytesCountsArenaAndSides: the footprint of a byte-keyed table with
// out-of-line state covers its key arena and what the distinct sets own, not
// only the fixed-width arrays.
func TestBytesCountsArenaAndSides(t *testing.T) {
	fixed := NewBytes(1, 16)
	sided := NewBytes(0, 16).Layout([]Agg{{Kind: CountDistinct}})
	var keyBytes, valBytes int64
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("a-rather-long-group-key-%04d", i))
		val := []byte(fmt.Sprintf("value-%04d", i))
		h := types.HashBytes(key) | 1
		fixed.UpsertBytes(h, key)
		sided.AddDistinct(sided.UpsertBytes(h, key), 0, val)
		keyBytes += int64(len(key))
		valBytes += int64(len(val))
	}
	plain := New(1, false, 16)
	k0 := make([]int64, 1000)
	for i := range k0 {
		k0[i] = int64(i)
	}
	plain.UpsertBlock(k0, nil, types.HashPairVec(k0, nil, nil), nil)
	if fixed.Bytes() < plain.Bytes()+keyBytes {
		t.Errorf("arena not counted: byte-keyed %d, inline %d, key bytes %d", fixed.Bytes(), plain.Bytes(), keyBytes)
	}
	// The two differ in their one column: a float sum against a set pointer.
	want := fixed.Bytes() - int64(cap(fixed.cols[0].floats))*8 + int64(cap(sided.cols[0].sets))*setBytes
	if sided.Bytes() != want+valBytes+1000*distinctEntryBytes {
		t.Errorf("sides not counted: with sides %d, without %d, value bytes %d", sided.Bytes(), fixed.Bytes(), valBytes)
	}
}

// TestTableBytesClosedForm: a table's footprint is its slots, its keys, its
// hashes and, per column, the column's width times the group capacity —
// 8 bytes for SUM, COUNT, MIN and MAX, 16 for AVG — and nothing else.
func TestTableBytesClosedForm(t *testing.T) {
	aggs := []Agg{{Kind: Count}, {Kind: Sum}, {Kind: Sum, Float: true}, {Kind: Avg},
		{Kind: Min}, {Kind: Max, Float: true}}
	width := int64(8 + 8 + 8 + 16 + 8 + 8)
	for _, groups := range []int{1, 100, 75_000} {
		for _, twoKeys := range []bool{false, true} {
			tab := New(0, twoKeys, 16).Layout(aggs)
			k0, k1 := make([]int64, groups), make([]int64, groups)
			for i := range k0 {
				k0[i], k1[i] = int64(i)*4+1, int64(i%7)
			}
			if !twoKeys {
				k1 = nil
			}
			g := tab.UpsertBlock(k0, k1, types.HashPairVec(k0, k1, nil), nil)
			vals := make([]int64, groups)
			for j, a := range aggs {
				if a.Float {
					tab.AccumFloat(j, g, make([]float64, groups))
				} else {
					tab.AccumInt(j, g, vals)
				}
			}
			capacity := int64(cap(tab.k0))
			keys := capacity
			if twoKeys {
				keys *= 2
			}
			want := int64(len(tab.slots))*slotBytes + keys*8 + capacity*8 + width*capacity
			if tab.Len() != groups || tab.Bytes() != want {
				t.Errorf("%d groups, two keys %v: %d groups, Bytes %d, want slots %d + keys %d + hashes %d + columns %d = %d",
					groups, twoKeys, tab.Len(), tab.Bytes(), int64(len(tab.slots))*slotBytes, keys*8, capacity*8, width*capacity, want)
			}
		}
	}
	// Q18's table: 75 000 groups of one float SUM.
	q18 := New(1, false, 256)
	k0 := make([]int64, 75_000)
	for i := range k0 {
		k0[i] = int64(i)*4 + 1
	}
	q18.UpsertBlock(k0, nil, types.HashPairVec(k0, nil, nil), nil)
	if got := q18.Bytes(); got != 3_162_112 {
		t.Errorf("Q18-shaped table: %d bytes, want 3162112 (131072 slots × 8 B + 3 × 88064 × 8 B)", got)
	}
}
