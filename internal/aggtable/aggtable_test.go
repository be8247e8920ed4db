package aggtable

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// refMap is the map-based oracle for table behavior.
type refKey struct{ a, b int64 }

func TestUpsertBlockGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := New(1, true, 4) // tiny capacity forces growth
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
		tab.AccumInt(0, Agg{Kind: Sum}, groups[r:r+1], k0[r:r+1])
		ref[refKey{k0[r], k1[r]}] += k0[r]
	}
	if tab.Len() != len(ref) {
		t.Fatalf("groups = %d, want %d", tab.Len(), len(ref))
	}
	for g := 0; g < tab.Len(); g++ {
		a, b := tab.Key(g)
		if got, want := tab.CellAt(int32(g), 0).SumI, ref[refKey{a, b}]; got != want {
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
	// Columnar kernels must produce exactly the per-value Update results.
	rng := rand.New(rand.NewSource(3))
	aggs := []Agg{
		{Kind: Sum}, {Kind: Avg}, {Kind: Min}, {Kind: Max}, {Kind: Count},
		{Kind: Sum, Float: true}, {Kind: Min, Float: true}, {Kind: Max, Float: true},
	}
	tab := New(len(aggs), false, 16)
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
	want := map[int64][]Cell{}
	for r, g := range groups {
		_ = g
		cs := want[k0[r]]
		if cs == nil {
			cs = make([]Cell, len(aggs))
			want[k0[r]] = cs
		}
		for j, a := range aggs {
			if a.Kind == Count {
				cs[j].Count++
			} else if a.Float {
				UpdateFloat(&cs[j], a, vf[r])
			} else {
				UpdateInt(&cs[j], a, vi[r])
			}
		}
	}
	for j, a := range aggs {
		switch {
		case a.Kind == Count:
			tab.AccumCount(j, groups)
		case a.Float:
			tab.AccumFloat(j, a, groups, vf)
		default:
			tab.AccumInt(j, a, groups, vi)
		}
	}
	for g := 0; g < tab.Len(); g++ {
		k, _ := tab.Key(g)
		for j := range aggs {
			if got, w := *tab.CellAt(int32(g), j), want[k][j]; got != w {
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
		tab := New(len(aggs), false, 8)
		n := 3000
		k0 := make([]int64, n)
		v := make([]int64, n)
		for i := range k0 {
			k0[i] = int64(r.Intn(200))
			v[i] = int64(r.Intn(50))
		}
		h := types.HashPairVec(k0, nil, nil)
		g := tab.UpsertBlock(k0, nil, h, nil)
		tab.AccumInt(0, aggs[0], g, v)
		tab.AccumInt(1, aggs[1], g, v)
		return tab
	}
	_ = rng
	a, b := mk(1), mk(2)

	// Oracle: merge everything into one table.
	whole := New(len(aggs), false, 8)
	one := types.NewPartitioner(1)
	whole.MergePartition(a, 0, one, aggs) // single partition covers all
	whole.MergePartition(b, 0, one, aggs)

	merged := map[int64]Cell{}
	var total int
	pr := types.NewPartitioner(1 << bits)
	for p := 0; p < pr.Parts(); p++ {
		dst := New(len(aggs), false, 8)
		dst.MergePartition(a, p, pr, aggs)
		dst.MergePartition(b, p, pr, aggs)
		total += dst.Len()
		for g := 0; g < dst.Len(); g++ {
			k, _ := dst.Key(g)
			if _, dup := merged[k]; dup {
				t.Fatalf("key %d appeared in two partitions", k)
			}
			merged[k] = *dst.CellAt(int32(g), 0)
		}
	}
	if total != whole.Len() {
		t.Fatalf("partitioned merge has %d groups, whole merge %d", total, whole.Len())
	}
	for g := 0; g < whole.Len(); g++ {
		k, _ := whole.Key(g)
		if got, want := merged[k], *whole.CellAt(int32(g), 0); got != want {
			t.Errorf("key %d: partitioned %+v, whole %+v", k, got, want)
		}
	}
}

func TestMergeCellMinMax(t *testing.T) {
	// Unset cells must not poison the merge.
	var dst, src Cell
	src.Set = false
	MergeCell(&dst, &src, Agg{Kind: Min})
	if dst.Set {
		t.Fatal("merge of unset cells set the flag")
	}
	UpdateInt(&src, Agg{Kind: Min}, 5)
	MergeCell(&dst, &src, Agg{Kind: Min})
	if !dst.Set || dst.MMI != 5 {
		t.Fatalf("dst = %+v, want min 5", dst)
	}
	var lower Cell
	UpdateInt(&lower, Agg{Kind: Min}, 3)
	MergeCell(&dst, &lower, Agg{Kind: Min})
	if dst.MMI != 3 {
		t.Fatalf("dst.MMI = %d, want 3", dst.MMI)
	}
	var higher Cell
	UpdateInt(&higher, Agg{Kind: Min}, 9)
	MergeCell(&dst, &higher, Agg{Kind: Min})
	if dst.MMI != 3 {
		t.Fatalf("dst.MMI = %d after higher merge, want 3", dst.MMI)
	}
}

func TestBytesGrows(t *testing.T) {
	tab := New(2, false, 16)
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

// UpdateInt and UpdateFloat fold one value into a cell: the per-value oracle
// the columnar Accum kernels are checked against.
func UpdateInt(c *Cell, a Agg, v int64) {
	c.Count++
	switch a.Kind {
	case Sum, Avg:
		c.SumI += v
		c.SumF += float64(v)
	case Min:
		if !c.Set || v < c.MMI {
			c.MMI = v
			c.Set = true
		}
	case Max:
		if !c.Set || v > c.MMI {
			c.MMI = v
			c.Set = true
		}
	}
}

func UpdateFloat(c *Cell, a Agg, v float64) {
	c.Count++
	switch a.Kind {
	case Sum, Avg:
		c.SumF += v
	case Min:
		if !c.Set || v < c.MMF {
			c.MMF = v
			c.Set = true
		}
	case Max:
		if !c.Set || v > c.MMF {
			c.MMF = v
			c.Set = true
		}
	}
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
	tab := NewBytes(len(byteAggs), 4).WithSide() // tiny capacity forces growth
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("group-%d", rng.Intn(300))
		val := string([]byte{byte('a' + rng.Intn(6)), byte('a' + rng.Intn(6))})
		g := tab.UpsertBytes(types.HashBytes([]byte(key))|1, []byte(key))
		tab.UpdateBytes(g, 0, byteAggs[0], []byte(val))
		tab.UpdateBytes(g, 1, byteAggs[1], []byte(val))
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
		gi := int32(g)
		if got := string(tab.SideAt(gi, 0).MM); got != r.min {
			t.Errorf("%s: min = %q, want %q", key, got, r.min)
		}
		if got := string(tab.SideAt(gi, 1).MM); got != r.max {
			t.Errorf("%s: max = %q, want %q", key, got, r.max)
		}
		if got := len(tab.SideAt(gi, 2).Distinct); got != len(r.distinct) {
			t.Errorf("%s: distinct = %d, want %d", key, got, len(r.distinct))
		}
		if got := tab.CellAt(gi, 3).Count; got != r.count {
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
// side state covers its key arena and what the sides own, not only the
// fixed-width arrays.
func TestBytesCountsArenaAndSides(t *testing.T) {
	fixed := NewBytes(1, 16)
	sided := NewBytes(1, 16).WithSide()
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
	if sided.Bytes() < fixed.Bytes()+valBytes+1000*sideBytes {
		t.Errorf("sides not counted: with sides %d, without %d, value bytes %d", sided.Bytes(), fixed.Bytes(), valBytes)
	}
}
