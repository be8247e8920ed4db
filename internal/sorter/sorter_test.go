package sorter

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestNormInt64Order(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	vals := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	for i := 0; i < 1000; i++ {
		vals = append(vals, r.Int63()-r.Int63())
	}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			a, b := vals[i], vals[j]
			if (a < b) != (NormInt64(a) < NormInt64(b)) {
				t.Fatalf("NormInt64 order broken for %d vs %d", a, b)
			}
		}
	}
}

func TestNormFloat64Order(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	vals := []float64{math.Inf(-1), -1e300, -1.5, -math.SmallestNonzeroFloat64, 0,
		math.SmallestNonzeroFloat64, 1.5, 1e300, math.Inf(1)}
	for i := 0; i < 1000; i++ {
		vals = append(vals, (r.Float64()-0.5)*math.Pow(10, float64(r.Intn(40)-20)))
	}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			a, b := vals[i], vals[j]
			if (a < b) != (NormFloat64(a) < NormFloat64(b)) {
				t.Fatalf("NormFloat64 order broken for %v vs %v", a, b)
			}
		}
	}
}

func TestNormBytesOrder(t *testing.T) {
	vals := [][]byte{nil, []byte(""), []byte("a"), []byte("ab"), []byte("b"),
		[]byte("abcdefgh"), []byte("abcdefg"), []byte("\x00x"), []byte("zzzzzzzz")}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			a, b := vals[i], vals[j]
			want := string(a) < string(b)
			if (NormBytes(a) < NormBytes(b)) != want {
				t.Fatalf("NormBytes order broken for %q vs %q", a, b)
			}
		}
	}
}

// TestLayoutAscDesc: an int64 term and a float64 term, each ascending and
// descending, order rows by value with ties in arrival order; a descending
// term is exactly the ascending order reversed among distinct values.
func TestLayoutAscDesc(t *testing.T) {
	ints := []int64{5, -3, 9, 0, 5, -3, 1, math.MinInt64, math.MaxInt64}
	floats := []float64{2.5, -1, 0, 2.5, -7.25, 1e9, -1, 3, 0.5}
	for _, typ := range []TermType{Int64, Float64} {
		for _, desc := range []bool{false, true} {
			l := NewLayout([]Term{{Type: typ, Desc: desc}})
			if !l.Exact || l.Words != 1 {
				t.Fatalf("layout: exact=%v words=%d", l.Exact, l.Words)
			}
			keys := make([]uint64, len(ints))
			less := func(a, b int32) bool { return ints[a] < ints[b] }
			if typ == Float64 {
				l.EncodeFloat64(0, floats, keys)
				less = func(a, b int32) bool { return floats[a] < floats[b] }
			} else {
				l.EncodeInt64(0, ints, keys)
			}
			ids := make([]int32, len(keys))
			want := make([]int32, len(keys))
			for i := range ids {
				ids[i], want[i] = int32(i), int32(i)
			}
			SortRows(&l, keys, ids, 0, nil)
			sort.SliceStable(want, func(i, j int) bool {
				if desc {
					return less(want[j], want[i])
				}
				return less(want[i], want[j])
			})
			if !reflect.DeepEqual(ids, want) {
				t.Fatalf("type=%v desc=%v: got %v want %v", typ, desc, ids, want)
			}
		}
	}
}

func TestSortKVsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 10, 63, 64, 1000, 5000} {
		items := make([]KV, n)
		for i := range items {
			// Narrow key space forces duplicates to exercise stability.
			items[i] = KV{Key: NormInt64(int64(r.Intn(50) - 25)), ID: int32(i)}
		}
		want := append([]KV(nil), items...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		got := SortKVs(items, make([]KV, n))
		if len(got) != len(want) {
			t.Fatalf("n=%d: length changed: %d", n, len(got))
		}
		if n > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: radix order diverges from stable reference", n)
		}
	}
}

func TestSortKVsWideKeys(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	items := make([]KV, 2000)
	for i := range items {
		items[i] = KV{Key: r.Uint64(), ID: int32(i)}
	}
	want := append([]KV(nil), items...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
	got := SortKVs(items, make([]KV, len(items)))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("radix order diverges on full-width random keys")
	}
}

// byteTie resolves a single approximate Bytes term against full test values
// (single-run tests, so run indexes are ignored).
type byteTie struct {
	rows [][]byte
	desc bool
}

func (bt *byteTie) Compare(term, runA int, rowA int32, runB int, rowB int32) int {
	a, b := string(bt.rows[rowA]), string(bt.rows[rowB])
	c := 0
	if a < b {
		c = -1
	} else if a > b {
		c = 1
	}
	if bt.desc {
		c = -c
	}
	return c
}

func TestSortRowsApproximateTieBreak(t *testing.T) {
	// Two terms: a 12-byte string (approximate) then an int64. Rows share the
	// 8-byte prefix but differ in the tail, and the tail order must dominate
	// the second term — the bug an all-words-then-tie comparator would have.
	l := NewLayout([]Term{{Type: Bytes, Width: 12}, {Type: Int64}})
	if l.Exact {
		t.Fatal("12-byte term should be approximate")
	}
	strs := [][]byte{
		[]byte("prefix00XXXX"), // row 0: big tail, small int
		[]byte("prefix00AAAA"), // row 1: small tail, big int
		[]byte("different000"), // row 2
	}
	ints := []int64{1, 2, 0}
	keys := make([]uint64, len(strs)*l.Words)
	l.EncodeBytes(0, len(strs), func(i int) []byte { return strs[i] }, keys)
	l.EncodeInt64(1, ints, keys)
	ids := []int32{0, 1, 2}
	tie := &byteTie{rows: strs}
	SortRows(&l, keys, ids, 0, tie)
	want := []int32{2, 1, 0} // "different..." < "prefix00AAAA" < "prefix00XXXX"
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("got %v want %v", ids, want)
	}
}

// buildRuns makes sorted int64 runs from random data, returning the runs and
// the globally expected (value, run, row) order.
func buildRuns(t *testing.T, r *rand.Rand, l *Layout, nRuns, maxRows, keySpace int) ([]Run, [][2]int32) {
	t.Helper()
	runs := make([]Run, nRuns)
	type item struct {
		v        int64
		run, row int32
	}
	var all []item
	for rn := 0; rn < nRuns; rn++ {
		n := r.Intn(maxRows + 1)
		src := make([]int64, n)
		for i := range src {
			src[i] = int64(r.Intn(keySpace))
			all = append(all, item{src[i], int32(rn), int32(i)})
		}
		keys := make([]uint64, n*l.Words)
		l.EncodeInt64(0, src, keys)
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		SortRows(l, keys, ids, rn, nil)
		sorted := make([]uint64, 0, n*l.Words)
		for _, id := range ids {
			sorted = append(sorted, keys[int(id)*l.Words:(int(id)+1)*l.Words]...)
		}
		runs[rn] = Run{Keys: sorted, Rows: ids, Seq: int32(rn)}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v < all[j].v
		}
		if all[i].run != all[j].run {
			return all[i].run < all[j].run
		}
		return all[i].row < all[j].row
	})
	want := make([][2]int32, len(all))
	for i, it := range all {
		want[i] = [2]int32{it.run, it.row}
	}
	return runs, want
}

func TestMergeMatchesReference(t *testing.T) {
	l := NewLayout([]Term{{Type: Int64}})
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		nRuns := 1 + r.Intn(9)
		runs, want := buildRuns(t, r, &l, nRuns, 60, 7)
		m := NewMerge(runs, &l, nil, nil, nil)
		var got [][2]int32
		for {
			run, row, ok := m.Next()
			if !ok {
				break
			}
			got = append(got, [2]int32{int32(run), row})
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d: merge order diverges (got %d rows, want %d)", trial, len(got), len(want))
		}
	}
}

func TestSplittersPartitionMerge(t *testing.T) {
	l := NewLayout([]Term{{Type: Int64}})
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		runs, want := buildRuns(t, r, &l, 6, 200, 11)
		for _, parts := range []int{2, 3, 8} {
			splits := Splitters(runs, &l, parts)
			bounds := append([][]uint64{nil}, splits...)
			bounds = append(bounds, nil)
			var got [][2]int32
			for p := 0; p+1 < len(bounds); p++ {
				lo := make([]int, len(runs))
				hi := make([]int, len(runs))
				for i := range runs {
					if bounds[p] != nil {
						lo[i] = LowerBound(&runs[i], &l, bounds[p])
					}
					if bounds[p+1] != nil {
						hi[i] = LowerBound(&runs[i], &l, bounds[p+1])
					} else {
						hi[i] = runs[i].Len()
					}
				}
				m := NewMerge(runs, &l, nil, lo, hi)
				for {
					run, row, ok := m.Next()
					if !ok {
						break
					}
					got = append(got, [2]int32{int32(run), row})
				}
			}
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("trial %d parts=%d: partitioned merge diverges (got %d rows, want %d)",
					trial, parts, len(got), len(want))
			}
		}
	}
}

func TestTopKMatchesSortTruncate(t *testing.T) {
	l := NewLayout([]Term{{Type: Int64}})
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(500)
		src := make([]int64, n)
		for i := range src {
			src[i] = int64(r.Intn(20)) // heavy duplicates
		}
		keys := make([]uint64, n*l.Words)
		l.EncodeInt64(0, src, keys)
		for _, k := range []int{1, 3, n, n + 10} {
			tk := NewTopK(k, &l, 0, nil)
			pruned := 0
			for i := 0; i < n; i++ {
				if !tk.Offer(keys[i*l.Words:(i+1)*l.Words], int32(i)) {
					pruned++
				}
			}
			_, ids := tk.Sorted()

			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			sort.SliceStable(want, func(i, j int) bool { return src[want[i]] < src[want[j]] })
			if k < n {
				want = want[:k]
			}
			if !reflect.DeepEqual(ids, want) {
				t.Fatalf("trial %d k=%d: topk %v want %v", trial, k, ids, want)
			}
			if pruned != n-len(ids) && k < n {
				// pruned counts offers rejected; rows evicted after retention
				// are not pruned, so pruned <= n-k.
				if pruned > n-k {
					t.Fatalf("trial %d k=%d: pruned=%d exceeds n-k=%d", trial, k, pruned, n-k)
				}
			}
		}
	}
}

func TestTopKStabilityOnBoundary(t *testing.T) {
	// All-equal keys: top-k must keep the first k arrivals.
	l := NewLayout([]Term{{Type: Int64}})
	n, k := 10, 4
	keys := make([]uint64, n*l.Words)
	l.EncodeInt64(0, make([]int64, n), keys)
	tk := NewTopK(k, &l, 0, nil)
	for i := 0; i < n; i++ {
		tk.Offer(keys[i*l.Words:(i+1)*l.Words], int32(i))
	}
	_, ids := tk.Sorted()
	if !reflect.DeepEqual(ids, []int32{0, 1, 2, 3}) {
		t.Fatalf("boundary ties must keep earliest arrivals, got %v", ids)
	}
}

func TestMergeSeqTieBreak(t *testing.T) {
	// Two runs of identical keys: the merge must drain run 0 before run 1
	// on every tie (arrival order).
	l := NewLayout([]Term{{Type: Int64}})
	mk := func(seq int32, n int) Run {
		keys := make([]uint64, n*l.Words)
		l.EncodeInt64(0, make([]int64, n), keys)
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		return Run{Keys: keys, Rows: ids, Seq: seq}
	}
	m := NewMerge([]Run{mk(0, 3), mk(1, 3)}, &l, nil, nil, nil)
	var order []int
	for {
		run, _, ok := m.Next()
		if !ok {
			break
		}
		order = append(order, run)
	}
	if !reflect.DeepEqual(order, []int{0, 0, 0, 1, 1, 1}) {
		t.Fatalf("seq tie-break broken: %v", order)
	}
}
