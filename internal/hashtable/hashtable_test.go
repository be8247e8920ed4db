package hashtable

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

func payloadSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "v", Type: types.Int64},
		storage.Column{Name: "f", Type: types.Float64},
	)
}

func srcBlock(rows int) *storage.Block {
	b := storage.NewBlock(payloadSchema(), storage.ColumnStore, rows*16+64)
	for i := 0; i < rows; i++ {
		b.AppendRow(types.NewInt64(int64(i*10)), types.NewFloat64(float64(i)+0.5))
	}
	return b
}

func TestInsertLookup(t *testing.T) {
	ht := New(Config{PayloadSchema: payloadSchema()})
	src := srcBlock(10)
	for i := 0; i < 10; i++ {
		ht.Insert(int64(i), 0, src, i, []int{0, 1})
	}
	if ht.Len() != 10 {
		t.Fatalf("Len = %d", ht.Len())
	}
	for i := 0; i < 10; i++ {
		var got int64 = -1
		ht.Lookup(int64(i), 0, func(pb *storage.Block, row int) bool {
			got = pb.Int64At(0, row)
			return true
		})
		if got != int64(i*10) {
			t.Errorf("key %d payload = %d", i, got)
		}
	}
	if ht.Contains(99, 0) {
		t.Error("phantom key")
	}
}

func TestDuplicateKeys(t *testing.T) {
	ht := New(Config{PayloadSchema: payloadSchema()})
	src := srcBlock(5)
	for i := 0; i < 5; i++ {
		ht.Insert(7, 0, src, i, []int{0, 1})
	}
	var vals []int64
	ht.Lookup(7, 0, func(pb *storage.Block, row int) bool {
		vals = append(vals, pb.Int64At(0, row))
		return true
	})
	if len(vals) != 5 {
		t.Fatalf("got %d duplicates, want 5", len(vals))
	}
	seen := map[int64]bool{}
	for _, v := range vals {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("duplicate payloads collapsed: %v", vals)
	}
	// Early stop: fn returning false.
	n := 0
	ht.Lookup(7, 0, func(*storage.Block, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestCompositeKeys(t *testing.T) {
	ht := New(Config{PayloadSchema: payloadSchema()})
	src := srcBlock(2)
	ht.Insert(1, 2, src, 0, []int{0, 1})
	ht.Insert(2, 1, src, 1, []int{0, 1})
	if !ht.Contains(1, 2) || !ht.Contains(2, 1) {
		t.Fatal("composite keys missing")
	}
	if ht.Contains(1, 1) || ht.Contains(2, 2) {
		t.Fatal("composite key confusion")
	}
}

func TestKeyOnlyEntries(t *testing.T) {
	ht := New(Config{PayloadSchema: storage.NewSchema()})
	ht.InsertKeyOnly(5, 0)
	if !ht.Contains(5, 0) || ht.Contains(6, 0) {
		t.Fatal("key-only insert broken")
	}
	ht.Lookup(5, 0, func(pb *storage.Block, _ int) bool {
		if pb != nil {
			t.Error("key-only entry should have nil payload block")
		}
		return true
	})
}

func TestGrowthPreservesEntries(t *testing.T) {
	ht := New(Config{PayloadSchema: payloadSchema(), InitialCapacity: 64, LoadFactor: 0.5})
	src := srcBlock(100)
	const n = 50000
	for i := 0; i < n; i++ {
		ht.Insert(int64(i), 0, src, i%100, []int{0, 1})
	}
	if ht.Len() != n {
		t.Fatalf("Len = %d", ht.Len())
	}
	for i := 0; i < n; i += 97 {
		if !ht.Contains(int64(i), 0) {
			t.Fatalf("key %d lost after growth", i)
		}
	}
	if ht.Contains(n+1, 0) {
		t.Fatal("phantom after growth")
	}
}

func TestConcurrentBuild(t *testing.T) {
	ht := New(Config{PayloadSchema: payloadSchema()})
	src := srcBlock(100)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ht.Insert(int64(w*per+i), 0, src, i%100, []int{0, 1})
			}
		}(w)
	}
	wg.Wait()
	if ht.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", ht.Len(), workers*per)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i += 501 {
			if !ht.Contains(int64(w*per+i), 0) {
				t.Fatalf("missing key %d", w*per+i)
			}
		}
	}
}

func TestMemoryAccounting(t *testing.T) {
	var g stats.MemGauge
	ht := New(Config{PayloadSchema: payloadSchema(), Gauge: &g})
	if g.Live() <= 0 {
		t.Fatal("initial slots should be accounted")
	}
	src := srcBlock(100)
	for i := 0; i < 10000; i++ {
		ht.Insert(int64(i), 0, src, i%100, []int{0, 1})
	}
	if g.Live() != ht.TotalBytes() {
		t.Fatalf("gauge %d != TotalBytes %d", g.Live(), ht.TotalBytes())
	}
	ht.Release()
	if g.Live() != 0 {
		t.Fatalf("after release live = %d", g.Live())
	}
	if g.High() != ht.TotalBytes() {
		t.Fatalf("high water %d != %d", g.High(), ht.TotalBytes())
	}
}

// keyedSchema is a build-input schema: two key columns plus two payload
// columns, mimicking what a build operator feeds the table.
func keyedSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "k0", Type: types.Int64},
		storage.Column{Name: "k1", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Int64},
		storage.Column{Name: "f", Type: types.Float64},
	)
}

// randKeyedBlock fills a block with n rows of random keys drawn from a small
// domain (forcing duplicates) and distinct payloads.
func randKeyedBlock(rng *rand.Rand, n, keyDomain int) *storage.Block {
	b := storage.NewBlock(keyedSchema(), storage.ColumnStore, n*32+64)
	for i := 0; i < n; i++ {
		b.AppendRow(
			types.NewInt64(int64(rng.Intn(keyDomain))),
			types.NewInt64(int64(rng.Intn(3))),
			types.NewInt64(int64(i)),
			types.NewFloat64(float64(i)+0.25),
		)
	}
	return b
}

// lookupState snapshots everything observable about one key: the multiset of
// payload values and the entry count.
func lookupPayloads(t *testing.T, ht *Table, k0, k1 int64) []int64 {
	t.Helper()
	var vals []int64
	ht.Lookup(k0, k1, func(pb *storage.Block, row int) bool {
		if pb == nil {
			vals = append(vals, -1) // key-only marker
		} else {
			vals = append(vals, pb.Int64At(0, row))
		}
		return true
	})
	return vals
}

// TestInsertBlockEquivalence proves the batch kernel is a drop-in for the
// row-at-a-time reference path: identical Lookup results, Len, and
// TotalBytes on randomized blocks with duplicate keys, for single-key,
// two-key, and key-only tables.
func TestInsertBlockEquivalence(t *testing.T) {
	paySch := storage.NewSchema(
		storage.Column{Name: "v", Type: types.Int64},
		storage.Column{Name: "f", Type: types.Float64},
	)
	projIdx := []int{2, 3}
	cases := []struct {
		name    string
		keyCols []int
		keyOnly bool
	}{
		{"single-key", []int{0}, false},
		{"two-key", []int{0, 1}, false},
		{"key-only", []int{0, 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			sch := paySch
			if tc.keyOnly {
				sch = storage.NewSchema()
			}
			ref := New(Config{PayloadSchema: sch, InitialCapacity: 16})
			bat := New(Config{PayloadSchema: sch, InitialCapacity: 16})
			sc := &InsertScratch{}
			for blk := 0; blk < 8; blk++ {
				b := randKeyedBlock(rng, 100+rng.Intn(400), 50)
				// Reference: row-at-a-time in block order.
				for r := 0; r < b.NumRows(); r++ {
					k0 := b.Int64At(tc.keyCols[0], r)
					var k1 int64
					if len(tc.keyCols) == 2 {
						k1 = b.Int64At(tc.keyCols[1], r)
					}
					if tc.keyOnly {
						ref.InsertKeyOnly(k0, k1)
					} else {
						ref.Insert(k0, k1, b, r, projIdx)
					}
				}
				// Batched: one kernel call per block, reusing one scratch.
				if tc.keyOnly {
					bat.InsertBlockKeyOnly(b, tc.keyCols, sc)
				} else {
					if locks := bat.InsertBlock(b, tc.keyCols, projIdx, sc); locks < 1 || locks > 64 {
						t.Fatalf("InsertBlock locks = %d", locks)
					}
				}
			}
			if ref.Len() != bat.Len() {
				t.Fatalf("Len: ref %d, batch %d", ref.Len(), bat.Len())
			}
			if ref.TotalBytes() != bat.TotalBytes() {
				t.Fatalf("TotalBytes: ref %d, batch %d", ref.TotalBytes(), bat.TotalBytes())
			}
			if ref.UsedBytes() != bat.UsedBytes() {
				t.Fatalf("UsedBytes: ref %d, batch %d", ref.UsedBytes(), bat.UsedBytes())
			}
			for k0 := int64(0); k0 < 50; k0++ {
				for k1 := int64(0); k1 < 3; k1++ {
					rv := lookupPayloads(t, ref, k0, k1)
					bv := lookupPayloads(t, bat, k0, k1)
					if len(rv) != len(bv) {
						t.Fatalf("key (%d,%d): ref %d entries, batch %d", k0, k1, len(rv), len(bv))
					}
					seen := map[int64]int{}
					for _, v := range rv {
						seen[v]++
					}
					for _, v := range bv {
						seen[v]--
					}
					for v, c := range seen {
						if c != 0 {
							t.Fatalf("key (%d,%d): payload multiset differs at %d", k0, k1, v)
						}
					}
				}
			}
		})
	}
}

// TestInsertBlockConcurrent builds one table from many goroutines, each
// running the batch kernel with its own scratch (run under -race).
func TestInsertBlockConcurrent(t *testing.T) {
	ht := New(Config{PayloadSchema: storage.NewSchema(
		storage.Column{Name: "v", Type: types.Int64},
		storage.Column{Name: "f", Type: types.Float64},
	), InitialCapacity: 64})
	const workers, blocksPer, rowsPer = 8, 6, 512
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			sc := &InsertScratch{}
			sch := keyedSchema()
			for bi := 0; bi < blocksPer; bi++ {
				b := storage.NewBlock(sch, storage.ColumnStore, rowsPer*32+64)
				for i := 0; i < rowsPer; i++ {
					k := int64(w*blocksPer*rowsPer + bi*rowsPer + i)
					b.AppendRow(types.NewInt64(k), types.NewInt64(0),
						types.NewInt64(int64(rng.Intn(1000))), types.NewFloat64(1.5))
				}
				ht.InsertBlock(b, []int{0}, []int{2, 3}, sc)
			}
		}(w)
	}
	wg.Wait()
	want := workers * blocksPer * rowsPer
	if ht.Len() != want {
		t.Fatalf("Len = %d, want %d", ht.Len(), want)
	}
	for k := 0; k < want; k += 997 {
		if !ht.Contains(int64(k), 0) {
			t.Fatalf("missing key %d", k)
		}
	}
}

// TestLookupHashed checks the pre-hashed probe entry point against Lookup.
func TestLookupHashed(t *testing.T) {
	ht := New(Config{PayloadSchema: payloadSchema()})
	src := srcBlock(10)
	for i := 0; i < 10; i++ {
		ht.Insert(int64(i), int64(i%2), src, i, []int{0, 1})
	}
	k0s := make([]int64, 10)
	k1s := make([]int64, 10)
	for i := range k0s {
		k0s[i] = int64(i)
		k1s[i] = int64(i % 2)
	}
	hashes := types.HashPairVec(k0s, k1s, nil)
	for i := range k0s {
		var got int64 = -1
		ht.LookupHashed(hashes[i], k0s[i], k1s[i], func(pb *storage.Block, row int) bool {
			got = pb.Int64At(0, row)
			return true
		})
		if got != int64(i*10) {
			t.Errorf("LookupHashed key %d payload = %d", i, got)
		}
	}
}

// Property: a table agrees with a reference map for arbitrary key multisets.
func TestLookupMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64, nKeys uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nKeys%2000) + 1
		ht := New(Config{PayloadSchema: payloadSchema(), InitialCapacity: 16})
		ref := map[int64]int{}
		src := srcBlock(1)
		for i := 0; i < n; i++ {
			k := int64(rng.Intn(200)) // force duplicates
			ht.Insert(k, 0, src, 0, []int{0, 1})
			ref[k]++
		}
		for k := int64(0); k < 200; k++ {
			count := 0
			ht.Lookup(k, 0, func(*storage.Block, int) bool { count++; return true })
			if count != ref[k] {
				return false
			}
		}
		return ht.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
