package hashtable

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

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

// payIdx projects keyedSchema onto payloadSchema.
var payIdx = []int{2, 3}

// keysBlock returns a keyedSchema block of rows (keys[i], v = vals[i]).
func keysBlock(keys [][2]int64, vals []int64) *storage.Block {
	b := storage.NewBlock(keyedSchema(), storage.ColumnStore, (len(keys)+1)*32)
	for i, k := range keys {
		b.AppendRow(types.NewInt64(k[0]), types.NewInt64(k[1]), types.NewInt64(vals[i]), types.NewFloat64(float64(vals[i])+0.5))
	}
	return b
}

// oneKey returns the keys (k, 0) for each k.
func oneKey(ks ...int64) [][2]int64 {
	keys := make([][2]int64, len(ks))
	for i, k := range ks {
		keys[i] = [2]int64{k, 0}
	}
	return keys
}

// iota64 returns 0, 1, …, n-1 scaled by m.
func iota64(n int, m int64) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i) * m
	}
	return v
}

// insert adds the rows to ht in one InsertBlock call (with no payload
// columns for a key-only table).
func insert(ht *Table, keys [][2]int64, vals []int64) {
	proj := payIdx
	if ht.keyOnly {
		proj = nil
	}
	ht.InsertBlock(keysBlock(keys, vals), []int{0, 1}[:ht.keys], proj, &InsertScratch{})
}

// vOf returns payload column 0 (v) of the entry at row of pb, a block
// Payload or LookupHashed reported: the column of pb that SourceCols maps
// payload column 0 to.
func vOf(ht *Table, pb *storage.Block, row int) int64 {
	return pb.Int64At(ht.SourceCols(nil, []int{0})[0], row)
}

// lookupPayloads returns every payload v of (k0, k1) through LookupHashed,
// in the order reported (-1 for a key-only entry).
func lookupPayloads(t *testing.T, ht *Table, k0, k1 int64) []int64 {
	t.Helper()
	var vals []int64
	ht.LookupHashed(hashKey(k0, k1), k0, k1, func(pb *storage.Block, row int) bool {
		if pb == nil {
			vals = append(vals, -1) // key-only marker
		} else {
			vals = append(vals, vOf(ht, pb, row))
		}
		return true
	})
	return vals
}

func contains(ht *Table, k0, k1 int64) bool {
	found := false
	ht.LookupHashed(hashKey(k0, k1), k0, k1, func(*storage.Block, int) bool {
		found = true
		return false
	})
	return found
}

func TestInsertLookup(t *testing.T) {
	for _, kind := range kinds {
		ht := New(Config{PayloadSchema: payloadSchema()})
		insert(ht, oneKey(iota64(10, 1)...), iota64(10, 10))
		if ht.n != 10 {
			t.Fatalf("Entries = %d", ht.n)
		}
		if got := sealAs(ht, kind); got != kind {
			t.Fatalf("sealed %v, want %v", got, kind)
		}
		for i := 0; i < 10; i++ {
			if got := lookupPayloads(t, ht, int64(i), 0); !reflect.DeepEqual(got, []int64{int64(i * 10)}) {
				t.Errorf("%v: key %d payloads = %v", kind, i, got)
			}
		}
		if contains(ht, 99, 0) || contains(ht, -1, 0) {
			t.Errorf("%v: phantom key", kind)
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	for _, kind := range kinds {
		ht := New(Config{PayloadSchema: payloadSchema()})
		insert(ht, oneKey(7, 7, 7, 7, 7), iota64(5, 10))
		sealAs(ht, kind)
		if vals := lookupPayloads(t, ht, 7, 0); !reflect.DeepEqual(vals, iota64(5, 10)) {
			t.Fatalf("%v: duplicates %v, want all five in insertion order", kind, vals)
		}
		// Early stop: fn returning false.
		n := 0
		ht.LookupHashed(hashKey(7, 0), 7, 0, func(*storage.Block, int) bool { n++; return false })
		if n != 1 {
			t.Fatalf("%v: early stop visited %d", kind, n)
		}
	}
}

func TestCompositeKeys(t *testing.T) {
	ht := New(Config{PayloadSchema: payloadSchema(), Keys: 2})
	insert(ht, [][2]int64{{1, 2}, {2, 1}, {1, 3}}, []int64{0, 10, 20})
	if got := sealAs(ht, denseIndex); got != hashIndex {
		t.Fatalf("a two-key table sealed %v", got)
	}
	if !contains(ht, 1, 2) || !contains(ht, 2, 1) || !contains(ht, 1, 3) {
		t.Fatal("composite keys missing")
	}
	if contains(ht, 1, 1) || contains(ht, 2, 2) {
		t.Fatal("composite key confusion")
	}
	// Keys that share k0 and differ only in k1, probed with one key's hash
	// and the other's k1: the probe reaches the stored entry's slot, so
	// only the k1 compare can reject it.
	n := 0
	ht.LookupHashed(hashKey(1, 2), 1, 4, func(*storage.Block, int) bool { n++; return true })
	var m Matches
	ht.Match([]int64{1, 1, 1}, []int64{3, 4, 2}, false, &m)
	if n != 0 || !reflect.DeepEqual(m.Probe, []int32{0, 2}) {
		t.Fatalf("(1, 4) probed on (1, 2)'s hash found %d; Match rows %v, want [0 2]", n, m.Probe)
	}
	// Match hashes the keys itself, so probe it with a second key whose own
	// hash has (1, 2)'s index partition, tag and home group.
	h := hashKey(1, 2)
	pt := &ht.parts[partOf(h)]
	x := int64(5)
	for hx := hashKey(1, x); partOf(hx) != partOf(h) || hx&0x7f != h&0x7f || (hx>>7)&pt.mask != (h>>7)&pt.mask; hx = hashKey(1, x) {
		x++
	}
	ht.Match([]int64{1}, []int64{x}, false, &m)
	if len(m.Probe) != 0 {
		t.Fatalf("(1, %d), colliding with (1, 2), matched %d entries", x, len(m.Probe))
	}
}

func TestKeyOnlyEntries(t *testing.T) {
	for _, kind := range kinds {
		ht := New(Config{PayloadSchema: storage.NewSchema()})
		insert(ht, oneKey(5, 9), []int64{0, 0})
		sealAs(ht, kind)
		if !contains(ht, 5, 0) || contains(ht, 6, 0) {
			t.Fatalf("%v: key-only insert broken", kind)
		}
		if got := lookupPayloads(t, ht, 5, 0); !reflect.DeepEqual(got, []int64{-1}) {
			t.Errorf("%v: key-only entry payloads %v, want one nil block", kind, got)
		}
	}
}

// TestGrowthPreservesEntries: 50 000 entries in 50 blocks; under either
// index every key is found once and an absent key is not.
func TestGrowthPreservesEntries(t *testing.T) {
	const n = 50000
	for _, kind := range kinds {
		ht := New(Config{PayloadSchema: payloadSchema()})
		for lo := 0; lo < n; lo += 1000 {
			keys := make([]int64, 1000)
			for i := range keys {
				keys[i] = int64(lo + i)
			}
			insert(ht, oneKey(keys...), keys)
		}
		if ht.n != n {
			t.Fatalf("Entries = %d", ht.n)
		}
		sealAs(ht, kind)
		for i := 0; i < n; i += 97 {
			if got := lookupPayloads(t, ht, int64(i), 0); !reflect.DeepEqual(got, []int64{int64(i)}) {
				t.Fatalf("%v: key %d payloads %v", kind, i, got)
			}
		}
		if contains(ht, n+1, 0) {
			t.Fatalf("%v: phantom after growth", kind)
		}
	}
}

func TestConcurrentBuild(t *testing.T) {
	const workers, per = 8, 5000
	for _, kind := range kinds {
		ht := New(Config{PayloadSchema: payloadSchema()})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := &InsertScratch{}
				for lo := 0; lo < per; lo += 500 {
					keys := make([]int64, 500)
					for i := range keys {
						keys[i] = int64(w*per + lo + i)
					}
					ht.InsertBlock(keysBlock(oneKey(keys...), keys), []int{0}, payIdx, sc)
				}
			}(w)
		}
		wg.Wait()
		if ht.n != workers*per {
			t.Fatalf("Entries = %d, want %d", ht.n, workers*per)
		}
		sealAs(ht, kind)
		for k := 0; k < workers*per; k += 501 {
			if !contains(ht, int64(k), 0) {
				t.Fatalf("%v: missing key %d", kind, k)
			}
		}
	}
}

// TestMemoryAccounting: New and the build allocate nothing the gauge
// counts, since the table copies none of its input; the seal adds the index
// (and a hash index's key bitmap), which is the high-water, the gauge holds
// TotalBytes throughout, and Release returns it all.
func TestMemoryAccounting(t *testing.T) {
	for _, kind := range kinds {
		var g stats.MemGauge
		ht := New(Config{PayloadSchema: payloadSchema(), Gauge: &g})
		if g.Live() != 0 || ht.TotalBytes() != 0 {
			t.Fatalf("%v: an empty table holds %d B (gauge %d)", kind, ht.TotalBytes(), g.Live())
		}
		insert(ht, oneKey(iota64(10000, 1)...), iota64(10000, 1))
		if g.Live() != 0 || ht.TotalBytes() != 0 {
			t.Fatalf("%v: built: gauge %d, TotalBytes %d, want 0", kind, g.Live(), ht.TotalBytes())
		}
		sealAs(ht, kind)
		sealed := ht.TotalBytes()
		if g.Live() != sealed || g.High() != sealed || sealed == 0 {
			t.Fatalf("%v: sealed: gauge %d (high %d), TotalBytes %d", kind, g.Live(), g.High(), sealed)
		}
		// A one-key hash table counts its key bitmap beside its groups.
		if kind == hashIndex && (ht.keyBits == nil || sealed != int64(ht.hashBytes())+8*int64(len(ht.keyBits))) {
			t.Fatalf("hash: sealed %d B, want groups %d B + key bitmap %d B", sealed, ht.hashBytes(), 8*len(ht.keyBits))
		}
		ht.Release()
		if g.Live() != 0 {
			t.Fatalf("%v: after release live = %d", kind, g.Live())
		}
	}
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

// rowBlocks splits b into one-row blocks.
func rowBlocks(b *storage.Block) []*storage.Block {
	out := make([]*storage.Block, b.NumRows())
	for r := range out {
		out[r] = storage.NewBlock(b.Schema(), storage.ColumnStore, b.Schema().RowWidth())
		out[r].AppendRow(b.Row(r)...)
	}
	return out
}

// TestInsertBlockEquivalence: how rows are batched into blocks does not
// matter. A table built a block at a time and one built a row at a time
// (one-row blocks) hold the same entry count, key range, partition counts
// and bytes, and after sealing the same index shape and lookups (duplicates
// in the same order), for single-key, two-key, and key-only tables; the
// one-key tables seal dense, the two-key ones hash. A hash index filled in
// one range of partitions equals one filled in several.
func TestInsertBlockEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		keyCols []int
		keyOnly bool
	}{
		{"single-key", []int{0}, false},
		{"two-key", []int{0, 1}, false},
		{"key-only", []int{0, 1}, true},
		{"key-only-one-key", []int{0}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			sch, proj := payloadSchema(), payIdx
			if tc.keyOnly {
				sch, proj = storage.NewSchema(), nil
			}
			cfg := Config{PayloadSchema: sch, Keys: len(tc.keyCols)}
			var blocks []*storage.Block
			for blk := 0; blk < 8; blk++ {
				blocks = append(blocks, randKeyedBlock(rng, 100+rng.Intn(400), 50))
			}
			build := func(split bool) *Table {
				ht := New(cfg)
				sc := &InsertScratch{}
				for _, b := range blocks {
					parts := []*storage.Block{b}
					if split {
						parts = rowBlocks(b)
					}
					for _, p := range parts {
						ht.InsertBlock(p, tc.keyCols, proj, sc)
					}
				}
				return ht
			}
			ref, bat := build(true), build(false)
			if ref.n != bat.n || ref.TotalBytes() != bat.TotalBytes() || ref.UsedBytes() != bat.UsedBytes() {
				t.Fatalf("Entries %d/%d, TotalBytes %d/%d, UsedBytes %d/%d (rows/blocks)",
					ref.n, bat.n, ref.TotalBytes(), bat.TotalBytes(), ref.UsedBytes(), bat.UsedBytes())
			}
			if ref.min != bat.min || ref.max != bat.max || ref.counts != bat.counts || len(bat.srcs) != len(blocks) {
				t.Fatalf("key range [%d, %d]/[%d, %d], partition counts equal %v, %d sources for %d blocks",
					ref.min, ref.max, bat.min, bat.max, ref.counts == bat.counts, len(bat.srcs), len(blocks))
			}
			// A hash index filled over one partition range equals one filled
			// over three; the sealed shapes agree with the row-built table's.
			split := build(false)
			for _, f := range ref.Seal(1) {
				f.Run()
			}
			for _, f := range bat.Seal(1) {
				f.Run()
			}
			if split.seal(split.choose(), 1); split.kind == denseIndex {
				Fill{t: split}.Run()
			} else {
				for _, r := range [][2]int{{0, 5}, {5, 40}, {40, numParts}} {
					Fill{t: split, lo: r[0], hi: r[1]}.Run()
				}
			}
			if (bat.kind == denseIndex) != (len(tc.keyCols) == 1) || ref.kind != bat.kind {
				t.Fatalf("%d keys sealed %v (row-built %v)", len(tc.keyCols), bat.kind, ref.kind)
			}
			for i := range bat.parts {
				if !reflect.DeepEqual(split.parts[i].groups, bat.parts[i].groups) || len(ref.parts[i].groups) != len(bat.parts[i].groups) {
					t.Fatalf("partition %d: index differs", i)
				}
			}
			if len(ref.offsets) != len(bat.offsets) || len(ref.refs) != len(bat.refs) || ref.TotalBytes() != bat.TotalBytes() {
				t.Fatal("dense index differs")
			}
			for k0 := int64(0); k0 < 50; k0++ {
				for k1 := int64(0); k1 < 3; k1++ {
					rv := lookupPayloads(t, ref, k0, k1)
					bv := lookupPayloads(t, bat, k0, k1)
					if !reflect.DeepEqual(rv, bv) {
						t.Fatalf("key (%d,%d): row-built payloads %v, block-built %v", k0, k1, rv, bv)
					}
				}
			}
		})
	}
}

// TestInsertBlockConcurrent builds one table from many goroutines, each
// running the batch kernel with its own scratch (run under -race). Every
// block becomes exactly one source, whole, and the table matches the same
// blocks inserted by one writer as a multiset of (key, payload) pairs, under
// either index.
func TestInsertBlockConcurrent(t *testing.T) {
	const workers, blocksPer, rowsPer = 8, 6, 512
	rng := rand.New(rand.NewSource(3))
	blocks := make([][]*storage.Block, workers)
	for w := range blocks {
		for bi := 0; bi < blocksPer; bi++ {
			blocks[w] = append(blocks[w], randKeyedBlock(rng, rowsPer, 2000))
		}
	}
	for _, kind := range kinds {
		seq := New(Config{PayloadSchema: payloadSchema()})
		sc := &InsertScratch{}
		for _, bs := range blocks {
			for _, b := range bs {
				seq.InsertBlock(b, []int{0}, payIdx, sc)
			}
		}
		ht := New(Config{PayloadSchema: payloadSchema()})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := &InsertScratch{}
				for _, b := range blocks[w] {
					ht.InsertBlock(b, []int{0}, payIdx, sc)
				}
			}(w)
		}
		wg.Wait()
		want := workers * blocksPer * rowsPer
		if ht.n != want {
			t.Fatalf("%v: Entries = %d, want %d", kind, ht.n, want)
		}
		fed := map[*storage.Block]bool{}
		for _, s := range ht.srcs {
			if s.rows != nil || s.n != s.b.NumRows() || fed[s.b] {
				t.Fatalf("%v: a source holds %d of its block's %d rows, or a block is two sources", kind, s.n, s.b.NumRows())
			}
			fed[s.b] = true
		}
		if len(fed) != workers*blocksPer {
			t.Fatalf("%v: %d sources for %d blocks", kind, len(fed), workers*blocksPer)
		}
		sealAs(seq, kind)
		if got := sealAs(ht, kind); got != kind {
			t.Fatalf("sealed %v, want %v", got, kind)
		}
		keys := iota64(2001, 1)
		if a, b := matchMultiset(ht, keys), matchMultiset(seq, keys); !reflect.DeepEqual(a, b) || len(a) == 0 {
			t.Fatalf("%v: concurrent build matches %d (key, payload) pairs, sequential %d, or they differ", kind, len(a), len(b))
		}
	}
}

// matchMultiset probes ht with keys and counts each matched (key, payload v)
// pair.
func matchMultiset(ht *Table, keys []int64) map[[2]int64]int {
	var m Matches
	ht.Match(keys, nil, false, &m)
	pairs := map[[2]int64]int{}
	for i, ref := range m.Ref {
		pb, row := ht.Payload(ref)
		pairs[[2]int64{keys[m.Probe[i]], vOf(ht, pb, row)}]++
	}
	return pairs
}

// TestLookupHashed checks the pre-hashed probe entry point with hashes from
// types.HashPairVec.
func TestLookupHashed(t *testing.T) {
	ht := New(Config{PayloadSchema: payloadSchema(), Keys: 2})
	k0s := iota64(10, 1)
	k1s := make([]int64, 10)
	keys := make([][2]int64, 10)
	for i := range k0s {
		k1s[i] = int64(i % 2)
		keys[i] = [2]int64{k0s[i], k1s[i]}
	}
	insert(ht, keys, iota64(10, 10))
	hashes := types.HashPairVec(k0s, k1s, nil)
	for i := range k0s {
		var got int64 = -1
		ht.LookupHashed(hashes[i], k0s[i], k1s[i], func(pb *storage.Block, row int) bool {
			got = vOf(ht, pb, row)
			return true
		})
		if got != int64(i*10) {
			t.Errorf("LookupHashed key %d payload = %d", i, got)
		}
	}
}

// Property: a table agrees with a reference map for arbitrary key
// multisets, under either index.
func TestLookupMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64, nKeys uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nKeys%2000) + 1
		ref := map[int64]int{}
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(200)) // force duplicates
			ref[keys[i]]++
		}
		for _, kind := range kinds {
			ht := New(Config{PayloadSchema: payloadSchema()})
			insert(ht, oneKey(keys...), keys)
			sealAs(ht, kind)
			for k := int64(-1); k <= 200; k++ {
				count := 0
				ht.LookupHashed(hashKey(k, 0), k, 0, func(*storage.Block, int) bool { count++; return true })
				if count != ref[k] {
					return false
				}
			}
			if ht.n != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDuplicatesInInsertionOrder: every key's duplicates come back in the
// order they were inserted, under either index, whether the rows went in as
// one block or a row at a time. Join output order (and so the float sums
// downstream) depends on it.
func TestDuplicatesInInsertionOrder(t *testing.T) {
	const keys, dups = 40, 25
	// Build-input rows: key i%keys, payload value i, so a key's payloads
	// must come back ascending.
	b := storage.NewBlock(keyedSchema(), storage.ColumnStore, keys*dups*32+64)
	for i := 0; i < keys*dups; i++ {
		b.AppendRow(types.NewInt64(int64(i%keys)), types.NewInt64(0),
			types.NewInt64(int64(i)), types.NewFloat64(0))
	}
	for _, kind := range kinds {
		for _, split := range []bool{false, true} {
			ht := New(Config{PayloadSchema: payloadSchema()})
			parts := []*storage.Block{b}
			if split {
				parts = rowBlocks(b)
			}
			sc := &InsertScratch{}
			for _, p := range parts {
				ht.InsertBlock(p, []int{0}, payIdx, sc)
			}
			sealAs(ht, kind)
			for k := int64(0); k < keys; k++ {
				got := lookupPayloads(t, ht, k, 0)
				if len(got) != dups {
					t.Fatalf("%v, rows %v: key %d has %d entries, want %d", kind, split, k, len(got), dups)
				}
				for j, v := range got {
					if want := k + int64(j*keys); v != want {
						t.Fatalf("%v, rows %v: key %d duplicate %d = %d, want %d (got %v)", kind, split, k, j, v, want, got)
					}
				}
			}
		}
	}
}

// TestDuplicatesKeepOrderAcrossWrap fills one hash index partition so two
// keys' group sequences start at its last group and wrap to the first: the
// duplicates must still come back in insertion order. The one-key table
// alternates two keys; the two-key table keeps k0 fixed and alternates k1,
// so only the k1 compare tells its two keys apart.
func TestDuplicatesKeepOrderAcrossWrap(t *testing.T) {
	const n = 20 // groupsFor(20) = 4 groups; 8 slots per group
	for _, keys := range []int{1, 2} {
		// Two keys whose hashes land in partition 0 with home group 3 of 4.
		var pair [][2]int64
		for c := int64(1); len(pair) < 2; c++ {
			k := [2]int64{c, 0}
			if keys == 2 {
				k = [2]int64{7, c}
			}
			if h := hashKey(k[0], k[1]); partOf(h) == 0 && (h>>7)&3 == 3 {
				pair = append(pair, k)
			}
		}
		rows := make([][2]int64, n)
		for i := range rows {
			rows[i] = pair[i%2]
		}
		ht := New(Config{PayloadSchema: payloadSchema(), Keys: keys})
		insert(ht, rows, iota64(n, 1))
		sealAs(ht, hashIndex)
		pt := &ht.parts[0]
		// Entries 0–7 filled group 3; the sequence wrapped into groups 0 and 1.
		if len(pt.groups) != 4 || pt.groups[0].refs[0] != ht.makeRef(0, 8) {
			t.Fatalf("keys %d set-up: %d groups, group 0 starts at ref %#x", keys, len(pt.groups), pt.groups[0].refs[0])
		}
		for i, k := range pair {
			got := lookupPayloads(t, ht, k[0], k[1])
			if len(got) != n/2 {
				t.Fatalf("keys %d, key %v: %d rows, want %d", keys, k, len(got), n/2)
			}
			for j, v := range got {
				if v != int64(i+2*j) {
					t.Fatalf("keys %d, key %v: rows %v, want ascending from %d", keys, k, got, i)
				}
			}
		}
	}
}

// matchByLookup is Match's row-at-a-time reference: LookupHashed per row.
func matchByLookup(ht *Table, hashes []uint64, k0, k1 []int64, firstOnly bool) (probe []int32, vals []int64) {
	for r, h := range hashes {
		var b int64
		if k1 != nil {
			b = k1[r]
		}
		ht.LookupHashed(h, k0[r], b, func(pb *storage.Block, row int) bool {
			probe = append(probe, int32(r))
			vals = append(vals, vOf(ht, pb, row))
			return !firstOnly
		})
	}
	return probe, vals
}

// TestMatchEqualsLookupHashed: the block probe reports exactly the pairs,
// in exactly the order, that per-row LookupHashed does — for one key under
// both indexes and two keys, with and without firstOnly, on a table with
// duplicates and misses.
func TestMatchEqualsLookupHashed(t *testing.T) {
	for _, keyCols := range [][]int{{0}, {0, 1}} {
		for _, kind := range kinds {
			rng := rand.New(rand.NewSource(7))
			ht := New(Config{PayloadSchema: payloadSchema(), Keys: len(keyCols)})
			sc := &InsertScratch{}
			for i := 0; i < 6; i++ {
				ht.InsertBlock(randKeyedBlock(rng, 300, 120), keyCols, payIdx, sc)
			}
			sealed := sealAs(ht, kind)
			probe := randKeyedBlock(rng, 700, 200) // keys 120..199 miss
			k0 := probe.GatherInt64(0, nil)
			k0[0], k0[1] = -5, math.MaxInt64 // below and far above the range
			var k1 []int64
			if len(keyCols) == 2 {
				k1 = probe.GatherInt64(1, nil)
			}
			hashes := types.HashPairVec(k0, k1, nil)
			var m Matches
			for _, firstOnly := range []bool{false, true} {
				ht.Match(k0, k1, firstOnly, &m)
				wantProbe, wantVals := matchByLookup(ht, hashes, k0, k1, firstOnly)
				if len(wantProbe) == 0 {
					t.Fatalf("keys %v %v: no matches; the test probes nothing", keyCols, sealed)
				}
				if !reflect.DeepEqual(m.Probe, wantProbe) {
					t.Fatalf("keys %v %v firstOnly %v: probe rows differ (%d vs %d matches)", keyCols, sealed, firstOnly, len(m.Probe), len(wantProbe))
				}
				for i, ref := range m.Ref {
					pb, row := ht.Payload(ref)
					if v := vOf(ht, pb, row); v != wantVals[i] {
						t.Fatalf("keys %v %v firstOnly %v: match %d payload %d, want %d", keyCols, sealed, firstOnly, i, v, wantVals[i])
					}
				}
			}
		}
	}
}

// TestKeyBitsSizingRule: a one-key hash table keeps a key bitmap when its
// bytes are no more than its hash groups' or keyBitsFloor, whichever is
// larger, and none one word over either bound. Sealed with or without the
// bitmap, Match reports the same pairs in the same order, with the same refs,
// as per-row LookupHashed does, with and without firstOnly, over hits,
// duplicates, misses inside the range and keys below min and above max.
func TestKeyBitsSizingRule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const lo = -7
	// keysOver returns lo and lo+span, then n keys drawn from [lo, lo+inner).
	keysOver := func(n int, inner int64, span uint64) []int64 {
		keys := []int64{lo, lo + int64(span)}
		for range n {
			keys = append(keys, lo+rng.Int63n(inner))
		}
		return keys
	}
	build := func(keys []int64) *Table {
		ht := New(Config{PayloadSchema: payloadSchema()})
		insert(ht, oneKey(keys...), iota64(len(keys), 1))
		return ht
	}
	// spanFor is the widest span whose bitmap takes b bytes.
	spanFor := func(b uint64) uint64 { return b/8*64 - 1 }
	few := keysOver(100, 5000, 0)[2:]
	many := keysOver(20000, 100000, 0)[2:]
	groups := build(append([]int64{lo, lo + 100000}, many...)).hashBytes()
	if groups <= keyBitsFloor {
		t.Fatalf("set-up: %d entries take %d B of hash groups, not above the %d B floor", len(many), groups, keyBitsFloor)
	}
	cases := []struct {
		name  string
		inner []int64
		span  uint64
		want  bool
	}{
		{"at the floor", few, spanFor(keyBitsFloor), true},
		{"a word over the floor", few, spanFor(keyBitsFloor) + 1, false},
		{"at the hash groups' bytes", many, spanFor(groups), true},
		{"a word over the hash groups' bytes", many, spanFor(groups) + 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys := append([]int64{lo, lo + int64(tc.span)}, tc.inner...)
			ht, bare := build(keys), build(keys)
			if ht.hashBytes() > keyBitsFloor && ht.hashBytes() != groups {
				t.Fatalf("set-up: hash groups %d B, want %d B", ht.hashBytes(), groups)
			}
			sealAs(ht, hashIndex)
			sealWith(bare, hashIndex, false)
			if got := ht.keyBits != nil; got != tc.want || bare.keyBits != nil {
				t.Fatalf("span %d over %d B of hash groups: key bitmap kept %v, want %v", tc.span, ht.hashBytes(), got, tc.want)
			}
			held := keys[:min(500, len(keys))]
			probe := append([]int64{lo - 1, lo + int64(tc.span) + 1, math.MinInt64, math.MaxInt64}, held...)
			for range 2000 {
				probe = append(probe, lo-64+rng.Int63n(int64(tc.span)+128))
			}
			hashes := types.HashPairVec(probe, nil, nil)
			for _, firstOnly := range []bool{false, true} {
				var m, mb Matches
				ht.Match(probe, nil, firstOnly, &m)
				bare.Match(probe, nil, firstOnly, &mb)
				wantProbe, wantVals := matchByLookup(ht, hashes, probe, nil, firstOnly)
				if len(wantProbe) < len(held) || !reflect.DeepEqual(m.Probe, wantProbe) {
					t.Fatalf("firstOnly %v: Match rows differ from LookupHashed's (%d vs %d matches)", firstOnly, len(m.Probe), len(wantProbe))
				}
				for i, ref := range m.Ref {
					if pb, row := ht.Payload(ref); vOf(ht, pb, row) != wantVals[i] {
						t.Fatalf("firstOnly %v: match %d payload %d, want %d", firstOnly, i, vOf(ht, pb, row), wantVals[i])
					}
				}
				if !reflect.DeepEqual(m.Probe, mb.Probe) || !reflect.DeepEqual(m.Ref, mb.Ref) {
					t.Fatalf("firstOnly %v: Match with the key bitmap differs from Match without it", firstOnly)
				}
			}
		})
	}
}

// TestKeyBitsRejectKeysOutsideTheRange: a one-key hash table's key bitmap
// rejects probe keys below its least key and above its greatest, including
// keys whose distance from the least key wraps around int64 (a table next
// to MinInt64 probed with MaxInt64, one next to MaxInt64 probed with
// MinInt64, whose distance lands in the bitmap's last word above the
// range), and keys inside the range it lacks; the keys it holds match.
func TestKeyBitsRejectKeysOutsideTheRange(t *testing.T) {
	for _, lo := range []int64{math.MinInt64, -30, math.MaxInt64 - 60} {
		var keys []int64
		for k := lo; ; k += 2 {
			keys = append(keys, k)
			if k >= lo+60 {
				break
			}
		}
		hi := keys[len(keys)-1]
		ht := New(Config{PayloadSchema: payloadSchema()})
		insert(ht, oneKey(keys...), keys)
		sealAs(ht, hashIndex)
		if ht.keyBits == nil {
			t.Fatalf("[%d, %d]: no key bitmap", lo, hi)
		}
		absent := []int64{lo - 1, hi + 1, hi + 3, lo - 1000, hi + 1000, lo + 1, hi - 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 61, 0}
		var m Matches
		for _, k := range absent {
			if uint64(k-lo) <= 60 && (k-lo)%2 == 0 {
				continue // a key the table holds
			}
			if ht.Match([]int64{k}, nil, false, &m); len(m.Probe) != 0 {
				t.Fatalf("[%d, %d]: absent key %d matched %d entries", lo, hi, k, len(m.Probe))
			}
		}
		if ht.Match(keys, nil, false, &m); len(m.Probe) != len(keys) {
			t.Fatalf("[%d, %d]: %d of %d held keys matched", lo, hi, len(m.Probe), len(keys))
		}
	}
}

// TestKeyBitsWrittenByOneFill: when Seal splits a one-key hash table's fill
// (at least two fills' worth of entries), or its lowest partition range holds
// no entries so another fill comes first, exactly one fill writes the key
// bitmap. Run on concurrent goroutines (under -race), the fills set every
// key's bit, and every key matches.
func TestKeyBitsWrittenByOneFill(t *testing.T) {
	const n = 2 * minFillEntries
	var all, upper []int64 // upper: keys in the upper half of the partitions
	for k := int64(0); len(upper) < n; k++ {
		if len(all) < n {
			all = append(all, k*3)
		}
		if partOf(hashKey(k, 0)) >= numParts/2 {
			upper = append(upper, k)
		}
	}
	for _, tc := range []struct {
		name      string
		keys      []int64
		fills     int // asked of Seal
		wantFills int
		wantLo    int // the first fill's lowest partition
	}{{"split fill", all, 4, 2, 0}, {"lowest range empty", upper, 2, 1, numParts / 2}} {
		t.Run(tc.name, func(t *testing.T) {
			ht := New(Config{PayloadSchema: payloadSchema()})
			insert(ht, oneKey(tc.keys...), tc.keys)
			fills := ht.seal(hashIndex, tc.fills)
			writers := 0
			for _, f := range fills {
				if f.bits {
					writers++
				}
			}
			if len(fills) != tc.wantFills || fills[0].lo != tc.wantLo || writers != 1 {
				t.Fatalf("%d fills from partition %d, %d of them write the key bitmap", len(fills), fills[0].lo, writers)
			}
			var wg sync.WaitGroup
			for _, f := range fills {
				wg.Add(1)
				go func() {
					defer wg.Done()
					f.Run()
				}()
			}
			wg.Wait()
			set := 0
			for _, w := range ht.keyBits {
				set += bits.OnesCount64(w)
			}
			var m Matches
			if ht.Match(tc.keys, nil, true, &m); set != len(tc.keys) || len(m.Probe) != len(tc.keys) {
				t.Fatalf("%d key bits set, %d keys matched, want %d", set, len(m.Probe), len(tc.keys))
			}
		})
	}
}

// TestLayoutConstants pins the memory model's constants — a hash slot is
// c = 5 B at f = 7/8 plus 8 B of key per entry (16 B for two keys); a dense
// index 4 B per key of the range and 4 B per entry — and the sizing rule:
// a hash index partition has the fewest power-of-two groups that keep it
// within MaxLoad, and an empty table holds nothing.
func TestLayoutConstants(t *testing.T) {
	if SlotBytes != 5 || OffsetBytes != 4 || RefBytes != 4 || KeyBytes(1) != 8 || KeyBytes(2) != 16 || MaxLoad != 0.875 {
		t.Fatalf("c = %d B, dense %d + %d B, keys %d/%d B, f = %v", SlotBytes, OffsetBytes, RefBytes, KeyBytes(1), KeyBytes(2), MaxLoad)
	}
	if n := unsafe.Sizeof(group{}); n != groupBytes || groupBytes != SlotBytes*groupSlots {
		t.Fatalf("group is %d B, want %d", n, groupBytes)
	}
	for keys := 1; keys <= 2; keys++ {
		if got := New(Config{PayloadSchema: payloadSchema(), Keys: keys}).TotalBytes(); got != 0 {
			t.Errorf("%d keys: empty table holds %d B", keys, got)
		}
	}
	for _, n := range []int{0, 1, 7, 8, 56, 57, 448, 4700} {
		g := groupsFor(n)
		if g*maxLoadSlots < n || (g > 1 && (g/2)*maxLoadSlots >= n) || (n == 0) != (g == 0) || g&(g-1) != 0 {
			t.Errorf("%d entries: %d groups", n, g)
		}
	}
}

// FuzzHashTable: random inserts over one or two keys (one-row blocks and
// one block mixed) against a map oracle, sealed under each index kind, and
// under a hash index with and without a one-key table's key bitmap; every
// key's lookups and Match return its payloads in insertion order, and
// absent keys return nothing, among them keys below and above the range and
// keys whose distance from it wraps around int64. Two-key inputs map bytes
// to (b%61, b/61), so many keys share k0 and differ only in k1; shift moves
// the one-key range (negative, or next to MinInt64).
func FuzzHashTable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3}, false, uint8(4))
	f.Add([]byte{0, 60, 7, 7, 30}, false, uint8(255))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 128}, true, uint8(1))
	// Keys sharing k0 = 5 and differing only in k1, enough of them that an
	// index partition has several groups.
	twins := make([]byte, 48)
	for i := range twins {
		twins[i] = byte(5 + 61*(i%4))
	}
	f.Add(twins, true, uint8(1))
	f.Fuzz(func(t *testing.T, ops []byte, twoKeys bool, shift uint8) {
		keys := 1
		if twoKeys {
			keys = 2
		}
		base := int64(shift) - 128
		if shift == 255 {
			base = math.MinInt64
		}
		oracle := map[[2]int64][]int{}
		key := func(b byte) [2]int64 {
			k := [2]int64{base + int64(b%61), 0}
			if twoKeys {
				k[1] = int64(b / 61)
			}
			return k
		}
		src := storage.NewBlock(keyedSchema(), storage.ColumnStore, (len(ops)+1)*32)
		for i, op := range ops {
			k := key(op)
			src.AppendRow(types.NewInt64(k[0]), types.NewInt64(k[1]), types.NewInt64(int64(i)), types.NewFloat64(0))
			oracle[k] = append(oracle[k], i)
		}
		keyCols := []int{0, 1}[:keys]
		for _, seal := range []struct {
			kind    indexKind
			keyBits bool
		}{{hashIndex, true}, {hashIndex, false}, {denseIndex, true}} {
			ht := New(Config{PayloadSchema: payloadSchema(), Keys: keys})
			// The first half goes in row at a time, the rest as one block.
			half := len(ops) / 2
			sc := &InsertScratch{}
			for _, b := range rowBlocks(src)[:half] {
				ht.InsertBlock(b, keyCols, payIdx, sc)
			}
			rest := storage.NewBlock(keyedSchema(), storage.ColumnStore, (len(ops)-half+1)*32)
			for r := half; r < len(ops); r++ {
				rest.AppendRow(src.Row(r)...)
			}
			ht.InsertBlock(rest, keyCols, payIdx, sc)
			if ht.n != len(ops) {
				t.Fatalf("Entries = %d, want %d", ht.n, len(ops))
			}
			sealed := sealWith(ht, seal.kind, seal.keyBits)
			var k0s, k1s []int64
			var want []int64
			for b := 0; b < 256; b++ {
				k := key(byte(b))
				got := lookupPayloads(t, ht, k[0], k[1])
				if len(got) != len(oracle[k]) {
					t.Fatalf("%v: key %v: %d entries, want %d", sealed, k, len(got), len(oracle[k]))
				}
				for i, r := range oracle[k] {
					if got[i] != int64(r) {
						t.Fatalf("%v: key %v: payloads %v, want %v", sealed, k, got, oracle[k])
					}
				}
				if contains(ht, k[0]+1000, k[1]) || contains(ht, k[0]-1000, k[1]) {
					t.Fatalf("%v: phantom key near %v", sealed, k)
				}
				k0s, k1s = append(k0s, k[0]), append(k1s, k[1])
				for _, r := range oracle[k] {
					want = append(want, int64(r))
				}
			}
			// Keys outside [base, base+60], wrapping past MinInt64 or
			// MaxInt64 for a base next to either, match nothing.
			for _, d := range []int64{-1, 61, 63, 64, -1000, 1000, math.MinInt64, math.MaxInt64} {
				k0s, k1s = append(k0s, base+d), append(k1s, 0)
			}
			if !twoKeys {
				k1s = nil
			}
			var m Matches
			ht.Match(k0s, k1s, false, &m)
			if len(m.Ref) != len(want) {
				t.Fatalf("%v: Match found %d, want %d", sealed, len(m.Ref), len(want))
			}
			for i, ref := range m.Ref {
				if pb, row := ht.Payload(ref); vOf(ht, pb, row) != want[i] {
					t.Fatalf("%v: match %d payload %d, want %d", sealed, i, vOf(ht, pb, row), want[i])
				}
			}
		}
	})
}

// TestMatchAllocs: with warm match vectors, probing a block allocates
// nothing, under either index.
func TestMatchAllocs(t *testing.T) {
	for _, kind := range kinds {
		rng := rand.New(rand.NewSource(5))
		ht := New(Config{PayloadSchema: payloadSchema()})
		ht.InsertBlock(randKeyedBlock(rng, 500, 100), []int{0}, payIdx, &InsertScratch{})
		sealAs(ht, kind)
		k0 := randKeyedBlock(rng, 4096, 200).GatherInt64(0, nil)
		var m Matches
		for _, firstOnly := range []bool{false, true} {
			if n := testing.AllocsPerRun(20, func() { ht.Match(k0, nil, firstOnly, &m) }); n != 0 {
				t.Errorf("%v firstOnly %v: Match allocated %v times per block", kind, firstOnly, n)
			}
		}
	}
}

// TestKeyCountIsEnforced: a one-key table stores no second key, so a
// two-key insert into it panics, a block insert must bring as many key
// columns and payload columns as the table has, and a
// lookup of a second key a one-key table cannot hold finds nothing.
func TestKeyCountIsEnforced(t *testing.T) {
	b := storage.NewBlock(keyedSchema(), storage.ColumnStore, 4*32)
	b.AppendRow(types.NewInt64(1), types.NewInt64(0), types.NewInt64(10), types.NewFloat64(0))
	one := func() *Table { return New(Config{PayloadSchema: payloadSchema()}) }
	two := func() *Table { return New(Config{PayloadSchema: payloadSchema(), Keys: 2}) }
	keyOnly := func() *Table { return New(Config{PayloadSchema: storage.NewSchema()}) }
	for name, insert := range map[string]func(){
		"InsertBlock two keys":           func() { one().InsertBlock(b, []int{0, 1}, payIdx, &InsertScratch{}) },
		"InsertBlock key-only, two keys": func() { keyOnly().InsertBlock(b, []int{0, 1}, nil, &InsertScratch{}) },
		"InsertBlock without payload":    func() { one().InsertBlock(b, []int{0}, nil, &InsertScratch{}) },
		"InsertBlock one key":            func() { two().InsertBlock(b, []int{0}, payIdx, &InsertScratch{}) },
		"New with three keys":            func() { New(Config{PayloadSchema: payloadSchema(), Keys: 3}) },
		"InsertBlock empty block, two keys": func() {
			one().InsertBlock(storage.NewBlock(keyedSchema(), storage.ColumnStore, 64), []int{0, 1}, payIdx, &InsertScratch{})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			insert()
		}()
	}
	for _, kind := range kinds {
		ht := one()
		ht.InsertBlock(b, []int{0}, payIdx, &InsertScratch{})
		sealAs(ht, kind)
		if !contains(ht, 1, 0) || contains(ht, 1, 5) {
			t.Fatalf("%v: one-key table: (1, 0) must match and (1, 5) must not", kind)
		}
		var m Matches
		ht.Match([]int64{1, 1}, []int64{0, 5}, false, &m)
		if !reflect.DeepEqual(m.Probe, []int32{0}) {
			t.Fatalf("%v: one-key table probed with second keys: matches %v, want [0]", kind, m.Probe)
		}
	}
}

// TestPayloadInPlaceAndAccounting builds tables of 0 to 300k rows with
// payload rows of 1 to 133 bytes, one and two keys, and copies none of them:
// the gauge holds exactly TotalBytes, which is nothing before the seal and
// the index after it, and every match resolves to the block and row it was
// fed at, whose payload column holds the row's bytes.
func TestPayloadInPlaceAndAccounting(t *testing.T) {
	sizes := []int{0, 1, 100, 4097, 30000, 300000}
	if testing.Short() {
		sizes = sizes[:5]
	}
	for _, width := range []int{1, 8, 24, 133} {
		for _, keys := range []int{1, 2} {
			for _, n := range sizes {
				in := storage.NewSchema(
					storage.Column{Name: "k0", Type: types.Int64},
					storage.Column{Name: "k1", Type: types.Int64},
					storage.Column{Name: "p", Type: types.Char, Width: width},
				)
				pay := in.Project([]int{2})
				var g stats.MemGauge
				ht := New(Config{PayloadSchema: pay, Keys: keys, Gauge: &g})
				sc := &InsertScratch{}
				keyCols := []int{0, 1}[:keys]
				cell := make([]byte, width)
				first := map[*storage.Block]int{} // each fed block's first row
				for lo := 0; lo < n; lo += 8192 {
					b := storage.NewBlock(in, storage.ColumnStore, 8192*in.RowWidth())
					for r := lo; r < min(n, lo+8192); r++ {
						cell[0] = byte(r)
						b.AppendRow(types.NewInt64(int64(r/3)), types.NewInt64(int64(r%3*(keys-1))), types.NewChar(cell))
					}
					ht.InsertBlock(b, keyCols, []int{2}, sc)
					first[b] = lo
				}
				name := func() string { return fmt.Sprintf("width %d, %d keys, %d rows", width, keys, n) }
				if ht.n != n || len(ht.srcs) != len(first) {
					t.Fatalf("%s: Entries = %d, %d sources for %d blocks", name(), ht.n, len(ht.srcs), len(first))
				}
				if ht.TotalBytes() != 0 || g.Live() != 0 {
					t.Fatalf("%s: built: TotalBytes %d, gauge %d, want 0", name(), ht.TotalBytes(), g.Live())
				}
				for _, f := range ht.Seal(4) {
					f.Run()
				}
				if got := ht.TotalBytes(); g.Live() != got {
					t.Fatalf("%s: sealed: TotalBytes %d, gauge %d", name(), got, g.Live())
				}
				col := ht.SourceCols(nil, []int{0})[0]
				var k0, k1 []int64
				for r := 0; r < n; r += 7 {
					k0, k1 = append(k0, int64(r/3)), append(k1, int64(r%3*(keys-1)))
				}
				if keys == 1 {
					k1 = nil
				}
				var m Matches
				ht.Match(k0, k1, false, &m)
				for i, ref := range m.Ref {
					pb, row := ht.Payload(ref)
					lo, fed := first[pb]
					r := lo + row
					if !fed || int64(r/3) != k0[m.Probe[i]] || pb.BytesAt(col, row)[0] != byte(r) {
						t.Fatalf("%s: probe %d resolves to row %d of a block fed %v", name(), m.Probe[i], row, fed)
					}
				}
				if want := (n + 6) / 7; len(m.Ref) < want {
					t.Fatalf("%s: %d matches for %d probes", name(), len(m.Ref), want)
				}
				ht.Release()
				if g.Live() != 0 {
					t.Fatalf("%s: gauge %d after Release", name(), g.Live())
				}
			}
		}
	}
}

// viewOver returns a keyedSchema view of every other row of each block.
func viewOver(bases []*storage.Block) *storage.Block {
	rows := 0
	for _, b := range bases {
		rows += (b.NumRows() + 1) / 2
	}
	sch := keyedSchema()
	v := storage.NewPool(nil, nil).CheckOutView(0, sch, []int{0, 1, 2, 3}, false, storage.ColumnStore, rows*sch.RowWidth())
	for _, b := range bases {
		var sel []int32
		for r := 0; r < b.NumRows(); r += 2 {
			sel = append(sel, int32(r))
		}
		v.AppendView(b, sel)
	}
	return v
}

// TestSequentialInsertKeepsSources: one writer inserting blocks, or listed
// or dense views over several base blocks, records one source per block and
// per view segment, in insertion order, and copies nothing. A view's sources
// are its base blocks and base rows, listed or a run from a first row, read
// through the view's projection (the base blocks carry an extra leading
// column), so every entry resolves to its base row, and SourceCols to its
// base column, under either index.
func TestSequentialInsertKeepsSources(t *testing.T) {
	cols := []storage.Column{{Name: "x", Type: types.Int64}}
	for i := 0; i < keyedSchema().NumCols(); i++ {
		cols = append(cols, keyedSchema().Col(i))
	}
	wide := storage.NewSchema(cols...)
	wideBlock := func(rng *rand.Rand, n int) *storage.Block {
		b := storage.NewBlock(wide, storage.RowStore, n*wide.RowWidth())
		for i := 0; i < n; i++ {
			b.AppendRow(types.NewInt64(-1), types.NewInt64(int64(rng.Intn(5000))), types.NewInt64(int64(rng.Intn(3))),
				types.NewInt64(rng.Int63()), types.NewFloat64(0))
		}
		return b
	}
	type src struct {
		b     *storage.Block
		first int
		rows  []int32
	}
	for _, keys := range []int{1, 2} {
		for _, view := range []string{"", "listed", "dense"} {
			for _, kind := range kinds {
				rng := rand.New(rand.NewSource(int64(keys)))
				ht := New(Config{PayloadSchema: payloadSchema(), Keys: keys})
				sc := &InsertScratch{}
				var want []src
				var vals []int64 // payload v of each entry, in insertion order
				for i := 0; i < 7; i++ {
					b := randKeyedBlock(rng, 300+rng.Intn(900), 5000)
					if view != "" {
						b = storage.NewPool(nil, nil).CheckOutView(0, keyedSchema(), []int{1, 2, 3, 4}, view == "dense", storage.ColumnStore, 1<<20)
						for j := 0; j < 3; j++ {
							base := wideBlock(rng, 200+rng.Intn(400))
							if view == "dense" {
								first := rng.Intn(100)
								b.AppendDense(base, first)
								want = append(want, src{base, first, nil})
								continue
							}
							var sel []int32
							for r := rng.Intn(2); r < base.NumRows(); r += 2 {
								sel = append(sel, int32(r))
							}
							b.AppendView(base, sel)
							want = append(want, src{base, 0, sel})
						}
					} else {
						want = append(want, src{b, 0, nil})
					}
					vals = append(vals, b.GatherInt64(2, nil)...)
					ht.InsertBlock(b, []int{0, 1}[:keys], payIdx, sc)
				}
				name := fmt.Sprintf("%d keys, view %q, %v", keys, view, kind)
				if len(ht.srcs) != len(want) || ht.n != len(vals) || ht.TotalBytes() != 0 {
					t.Fatalf("%s: %d sources, want %d; %d entries, want %d; %d B", name, len(ht.srcs), len(want), ht.n, len(vals), ht.TotalBytes())
				}
				sealAs(ht, kind)
				if col := ht.SourceCols(nil, []int{0, 1}); (view != "") != (col[0] == 3) {
					t.Fatalf("%s: payload in source columns %v", name, col)
				}
				e := 0
				for si, w := range want {
					s := &ht.srcs[si]
					if s.b != w.b || s.first != w.first || !reflect.DeepEqual(s.rows, w.rows) {
						t.Fatalf("%s: source %d is not the fed block or view segment", name, si)
					}
					for i := 0; i < s.n; i++ {
						row := int32(w.first + i)
						if w.rows != nil {
							row = w.rows[i]
						}
						if pb, r := ht.Payload(ht.makeRef(si, row)); pb != w.b || r != int(row) || vOf(ht, pb, r) != vals[e] {
							t.Fatalf("%s: entry %d resolves to another row", name, e)
						}
						e++
					}
				}
				for k := int64(0); k < 5000; k += 37 {
					for _, pv := range lookupPayloads(t, ht, k, 0) {
						if !slices.Contains(vals, pv) {
							t.Fatalf("%s: key %d resolves to payload %d nobody inserted", name, k, pv)
						}
					}
				}
			}
		}
	}
}

// TestIndexKindChoice: the index follows the data. One-key tables over a
// small range are dense, whether keys are unique, duplicated or negative,
// or sit next to MinInt64 or MaxInt64; sparse keys, a range wider than 2³²
// (including MinInt64..MaxInt64, whose span overflows int64), two keys and
// an empty build fall back to hash. Lookups answer right under each, and a
// dense table never takes more bytes than its hash alternative.
func TestIndexKindChoice(t *testing.T) {
	span := func(lo int64, n int, step int64) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = lo + int64(i)*step
		}
		return ks
	}
	dups := make([]int64, 0, 3000)
	for i := 0; i < 3000; i++ {
		dups = append(dups, int64(1+i%1000))
	}
	cases := []struct {
		name    string
		keys    [][2]int64
		twoKeys bool
		keyOnly bool
		want    indexKind
	}{
		{"unique dense", oneKey(span(1, 5000, 1)...), false, false, denseIndex},
		{"duplicate dense", oneKey(dups...), false, false, denseIndex},
		{"duplicate dense key-only", oneKey(dups...), false, true, denseIndex},
		{"sparse", oneKey(span(1, 5000, 1000)...), false, false, hashIndex},
		{"negative", oneKey(span(-5000, 5000, 1)...), false, false, denseIndex},
		{"near MinInt64", oneKey(span(math.MinInt64, 2000, 1)...), false, false, denseIndex},
		{"near MaxInt64", oneKey(span(math.MaxInt64-1999, 2000, 1)...), false, false, denseIndex},
		{"MinInt64 and MaxInt64", oneKey(append(span(1, 2000, 1), math.MinInt64, math.MaxInt64)...), false, false, hashIndex},
		{"range 2^32", oneKey(append(span(1, 2000, 1), 1+1<<32)...), false, false, hashIndex},
		{"two keys", [][2]int64{{1, 1}, {2, 1}, {3, 2}}, true, false, hashIndex},
		{"empty", nil, false, false, hashIndex},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{PayloadSchema: payloadSchema()}
			if tc.twoKeys {
				cfg.Keys = 2
			}
			if tc.keyOnly {
				cfg.PayloadSchema = storage.NewSchema()
			}
			ht := New(cfg)
			vals := iota64(len(tc.keys), 1)
			if len(tc.keys) > 0 {
				insert(ht, tc.keys, vals)
			}
			_, sp, n := ht.keySpan()
			var hashBytes uint64
			for _, c := range ht.counts {
				hashBytes += groupBytes * uint64(groupsFor(c))
			}
			for _, f := range ht.Seal(2) {
				f.Run()
			}
			if ht.kind != tc.want {
				t.Fatalf("sealed %v, want %v (span %d, %d entries)", ht.kind, tc.want, sp, n)
			}
			if ht.kind == denseIndex && ht.denseBytes(sp, n) > hashBytes {
				t.Fatalf("dense index %d B above its hash alternative %d B", ht.denseBytes(sp, n), hashBytes)
			}
			if tc.name == "empty" && ht.TotalBytes() != 0 {
				t.Fatalf("an empty build holds %d B", ht.TotalBytes())
			}
			want := map[[2]int64][]int64{}
			for i, k := range tc.keys {
				v := vals[i]
				if tc.keyOnly {
					v = -1
				}
				want[k] = append(want[k], v)
			}
			for k, vs := range want {
				if got := lookupPayloads(t, ht, k[0], k[1]); !reflect.DeepEqual(got, vs) {
					t.Fatalf("key %v: payloads %v, want %v", k, got, vs)
				}
			}
			for _, k := range [][2]int64{{0, 0}, {-5001, 0}, {math.MinInt64 + 2000, 0}, {math.MaxInt64 - 2000, 0}, {2, 0}, {1 << 32, 0}} {
				if _, ok := want[k]; !ok && contains(ht, k[0], k[1]) {
					t.Fatalf("phantom key %v", k)
				}
			}
		})
	} // A range of 2³² keys or more is never dense, whatever the bytes.
	one := New(Config{PayloadSchema: payloadSchema()})
	if one.denseFits(1<<32-1, 10) || !one.denseFits(1<<32-2, 10) || one.denseFits(5, 0) {
		t.Fatal("denseFits: want spans below 2³² − 1 and at least one entry")
	}
}

// TestLazySealConcurrentLookups: lookups racing on a table nobody sealed
// all wait for one seal and its fills, so every one of them finds every key
// (run under -race), under either index the data picks.
func TestLazySealConcurrentLookups(t *testing.T) {
	for _, step := range []int64{1, 1 << 33} {
		keys := iota64(20000, step)
		ht := New(Config{PayloadSchema: payloadSchema()})
		insert(ht, oneKey(keys...), keys)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var m Matches
				ht.Match(keys, nil, false, &m)
				if len(m.Ref) != len(keys) {
					t.Errorf("step %d: a concurrent first Match found %d of %d keys", step, len(m.Ref), len(keys))
				}
			}()
		}
		wg.Wait()
		if want := map[int64]indexKind{1: denseIndex, 1 << 33: hashIndex}[step]; ht.kind != want {
			t.Errorf("step %d: sealed %v, want %v", step, ht.kind, want)
		}
	}
}

// BenchmarkInsertBlock times InsertBlock of 16 blocks of 2048 rows into a
// fresh table, from plain blocks and from views that select every other row
// of four 1024-row base blocks each.
func BenchmarkInsertBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var plain, views []*storage.Block
	for i := 0; i < 16; i++ {
		plain = append(plain, randKeyedBlock(rng, 2048, 1<<20))
		var bases []*storage.Block
		for j := 0; j < 4; j++ {
			bases = append(bases, randKeyedBlock(rng, 1024, 1<<20))
		}
		views = append(views, viewOver(bases))
	}
	for _, bc := range []struct {
		name   string
		blocks []*storage.Block
	}{{"plain", plain}, {"view", views}} {
		b.Run(bc.name, func(b *testing.B) {
			sc := &InsertScratch{}
			for i := 0; i < b.N; i++ {
				ht := New(Config{PayloadSchema: payloadSchema()})
				for _, blk := range bc.blocks {
					ht.InsertBlock(blk, []int{0}, payIdx, sc)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*16*2048), "ns/row")
		})
	}
}

// BenchmarkSealFill times Seal(parts) and its fills, run on parts
// goroutines, over a freshly built table: a two-key table that seals hash
// and a one-key table over a dense key range, each built by one writer.
func BenchmarkSealFill(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var hashBlocks, denseBlocks []*storage.Block
	for i := 0; i < 40; i++ {
		hb := storage.NewBlock(keyedSchema(), storage.ColumnStore, 1024*32)
		db := storage.NewBlock(keyedSchema(), storage.ColumnStore, 1024*32)
		for r := 0; r < 1024; r++ {
			k := int64(i*1024 + r)
			hb.AppendRow(types.NewInt64(k/4), types.NewInt64(rng.Int63n(1000)), types.NewInt64(k), types.NewFloat64(0))
			db.AppendRow(types.NewInt64(rng.Int63n(20000)), types.NewInt64(0), types.NewInt64(k), types.NewFloat64(0))
		}
		hashBlocks, denseBlocks = append(hashBlocks, hb), append(denseBlocks, db)
	}
	for _, bc := range []struct {
		name   string
		keys   int
		blocks []*storage.Block
	}{{"hash", 2, hashBlocks}, {"dense", 1, denseBlocks}} {
		for _, parts := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/parts=%d", bc.name, parts), func(b *testing.B) {
				sc := &InsertScratch{}
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ht := New(Config{PayloadSchema: payloadSchema(), Keys: bc.keys})
					for _, blk := range bc.blocks {
						ht.InsertBlock(blk, []int{0, 1}[:bc.keys], payIdx, sc)
					}
					b.StartTimer()
					var wg sync.WaitGroup
					for _, f := range ht.Seal(parts) {
						wg.Add(1)
						go func(f Fill) {
							defer wg.Done()
							f.Run()
						}(f)
					}
					wg.Wait()
				}
			})
		}
	}
}

// BenchmarkMatch times Match over a hash-indexed two-key table of 65 536
// entries built from plain blocks and from views selecting every other row
// of their base blocks: every probe key hits, so each match compares the
// entry's keys where the table keeps them. "one-key-miss" is shaped like
// TPC-H Q08's probe of part: 70 keys over a span of 10 000, probed by
// 300 000 keys drawn uniformly from that span, so almost every probe misses.
func BenchmarkMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var plain, views []*storage.Block
	for i := 0; i < 32; i++ {
		plain = append(plain, randKeyedBlock(rng, 2048, 1<<30))
		views = append(views, viewOver([]*storage.Block{randKeyedBlock(rng, 2048, 1<<30), randKeyedBlock(rng, 2048, 1<<30)}))
	}
	for _, bc := range []struct {
		name   string
		blocks []*storage.Block
	}{{"plain", plain}, {"view", views}} {
		b.Run(bc.name, func(b *testing.B) {
			ht := New(Config{PayloadSchema: payloadSchema(), Keys: 2})
			sc := &InsertScratch{}
			var k0, k1 []int64
			for _, blk := range bc.blocks {
				ht.InsertBlock(blk, []int{0, 1}, payIdx, sc)
				k0 = append(k0, blk.GatherInt64(0, nil)...)
				k1 = append(k1, blk.GatherInt64(1, nil)...)
			}
			rng.Shuffle(len(k0), func(i, j int) { k0[i], k0[j], k1[i], k1[j] = k0[j], k0[i], k1[j], k1[i] })
			benchMatch(b, ht, k0, k1)
		})
	}
	b.Run("one-key-miss", func(b *testing.B) {
		const span = 10000
		ht := New(Config{PayloadSchema: payloadSchema()})
		keys := make([]int64, 70)
		for i := range keys {
			keys[i] = 1 + rng.Int63n(span)
		}
		insert(ht, oneKey(keys...), keys)
		k0 := make([]int64, 300000)
		for i := range k0 {
			k0[i] = 1 + rng.Int63n(span)
		}
		benchMatch(b, ht, k0, nil)
		if ht.kind != hashIndex {
			b.Fatalf("sealed %v, want hash", ht.kind)
		}
	})
}

// benchMatch seals ht, then times Match over the probe keys in blocks of
// 4096 and reports the time per probe key.
func benchMatch(b *testing.B, ht *Table, k0, k1 []int64) {
	second := func(lo, hi int) []int64 {
		if k1 == nil {
			return nil
		}
		return k1[lo:hi]
	}
	var m Matches
	ht.Match(k0[:1], second(0, 1), false, &m) // seal
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(k0); lo += 4096 {
			hi := min(lo+4096, len(k0))
			ht.Match(k0[lo:hi], second(lo, hi), false, &m)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(k0)), "ns/probe")
}
