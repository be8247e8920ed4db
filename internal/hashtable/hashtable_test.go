package hashtable

import (
	"math/rand"
	"reflect"
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
	ht := New(Config{PayloadSchema: payloadSchema(), InitialCapacity: 64})
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
// row-at-a-time reference path: identical Lookup results (duplicates in the
// same order), Len, TotalBytes and slot placement — every group's control
// word and entries — on randomized blocks with duplicate keys, for
// single-key, two-key, and key-only tables.
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
					if !reflect.DeepEqual(rv, bv) {
						t.Fatalf("key (%d,%d): ref payloads %v, batch %v", k0, k1, rv, bv)
					}
				}
			}
			for i := range ref.shards {
				if !reflect.DeepEqual(ref.shards[i].groups, bat.shards[i].groups) {
					t.Fatalf("shard %d: slot placement differs", i)
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

// TestDuplicatesInInsertionOrder: every key's duplicates come back in the
// order they were inserted, both in a table that never grew and in one that
// grew many times, through Insert and through InsertBlock. Join output order
// (and so the float sums downstream) depends on it.
func TestDuplicatesInInsertionOrder(t *testing.T) {
	const keys, dups = 40, 25
	// Build-input rows: key i%keys, payload value i, so a key's payloads
	// must come back ascending.
	b := storage.NewBlock(keyedSchema(), storage.ColumnStore, keys*dups*32+64)
	for i := 0; i < keys*dups; i++ {
		b.AppendRow(types.NewInt64(int64(i%keys)), types.NewInt64(0),
			types.NewInt64(int64(i)), types.NewFloat64(0))
	}
	for _, initial := range []int{keys * dups, 1} {
		perRow := New(Config{PayloadSchema: payloadSchema(), InitialCapacity: initial})
		for r := 0; r < b.NumRows(); r++ {
			perRow.Insert(b.Int64At(0, r), 0, b, r, []int{2, 3})
		}
		batch := New(Config{PayloadSchema: payloadSchema(), InitialCapacity: initial})
		batch.InsertBlock(b, []int{0}, []int{2, 3}, &InsertScratch{})
		for name, ht := range map[string]*Table{"Insert": perRow, "InsertBlock": batch} {
			for k := int64(0); k < keys; k++ {
				got := lookupPayloads(t, ht, k, 0)
				if len(got) != dups {
					t.Fatalf("%s, capacity %d: key %d has %d entries, want %d", name, initial, k, len(got), dups)
				}
				for j, v := range got {
					if want := k + int64(j*keys); v != want {
						t.Fatalf("%s, capacity %d: key %d duplicate %d = %d, want %d (got %v)", name, initial, k, j, v, want, got)
					}
				}
			}
		}
	}
}

// TestDuplicatesKeepOrderAcrossWrap fills one small shard so a key's group
// sequence wraps from the last group to the first, then grows it: the
// duplicates must still come back in insertion order.
func TestDuplicatesKeepOrderAcrossWrap(t *testing.T) {
	var s shard
	s.setGroups(4)
	tb := &Table{}
	last := uint64(3) << 7 // home group 3, the last one
	for i := 0; i < 20; i++ {
		h := last | uint64(i%2) // two tags, one sequence
		tb.reserve(&s, 1)
		s.put(h, entry{k0: int64(i % 2), row: uint32(i)})
	}
	// Rows 0–7 filled group 3; the sequence wrapped into groups 0 and 1.
	if s.count != 20 || s.groups[0].ents[0].row != 8 {
		t.Fatalf("set-up: %d entries, group 0 starts at row %d", s.count, s.groups[0].ents[0].row)
	}
	// grow re-inserts by the real hash: each key's rows must stay ascending.
	tb.grow(&s)
	for k := int64(0); k < 2; k++ {
		h := hashKey(k, 0)
		prev := -1
		for g := (h >> 7) & s.mask; ; g = (g + 1) & s.mask {
			grp := &s.groups[g]
			for m := matchTag(grp.ctrl, tagOf(h)); m != 0; m &= m - 1 {
				e := grp.ents[slotOf(m)]
				if e.k0 != k {
					continue
				}
				if int(e.row) <= prev {
					t.Fatalf("key %d: row %d after row %d", k, e.row, prev)
				}
				prev = int(e.row)
			}
			if grp.ctrl&msbs != 0 {
				break
			}
		}
		if prev < 0 {
			t.Fatalf("key %d lost in grow", k)
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
			vals = append(vals, pb.Int64At(0, row))
			return !firstOnly
		})
	}
	return probe, vals
}

// TestMatchEqualsLookupHashed: the block probe reports exactly the pairs,
// in exactly the order, that per-row LookupHashed does — for one and two
// keys, with and without firstOnly, on a table with duplicates and misses.
func TestMatchEqualsLookupHashed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, keyCols := range [][]int{{0}, {0, 1}} {
		ht := New(Config{PayloadSchema: payloadSchema(), InitialCapacity: 16})
		sc := &InsertScratch{}
		for i := 0; i < 6; i++ {
			ht.InsertBlock(randKeyedBlock(rng, 300, 120), keyCols, []int{2, 3}, sc)
		}
		probe := randKeyedBlock(rng, 700, 200) // keys 120..199 miss
		k0 := probe.GatherInt64(0, nil)
		var k1 []int64
		if len(keyCols) == 2 {
			k1 = probe.GatherInt64(1, nil)
		}
		hashes := types.HashPairVec(k0, k1, nil)
		var m Matches
		for _, firstOnly := range []bool{false, true} {
			ht.Match(hashes, k0, k1, firstOnly, &m)
			wantProbe, wantVals := matchByLookup(ht, hashes, k0, k1, firstOnly)
			if len(wantProbe) == 0 {
				t.Fatalf("keys %v: no matches; the test probes nothing", keyCols)
			}
			if !reflect.DeepEqual(m.Probe, wantProbe) {
				t.Fatalf("keys %v firstOnly %v: probe rows differ (%d vs %d matches)", keyCols, firstOnly, len(m.Probe), len(wantProbe))
			}
			for i, ref := range m.Ref {
				pb, row := ht.Payload(ref)
				if v := pb.Int64At(0, row); v != wantVals[i] {
					t.Fatalf("keys %v firstOnly %v: match %d payload %d, want %d", keyCols, firstOnly, i, v, wantVals[i])
				}
			}
		}
	}
}

// TestLayoutConstants pins c and f of the memory model and the sizing rule:
// each shard starts with the fewest groups that give one slot per entry of
// its share of the capacity hint, plus one.
func TestLayoutConstants(t *testing.T) {
	if EntryBytes() != 25 || MaxLoad != 0.875 {
		t.Fatalf("c = %d B, f = %v; want 25 B, 7/8", EntryBytes(), MaxLoad)
	}
	for _, n := range []int{1, 64 * 7, 64*7 + 64, 64 * 56, 100000} {
		ht := New(Config{PayloadSchema: storage.NewSchema(), InitialCapacity: n})
		slots := groupSlots * len(ht.shards[0].groups)
		need := n/numShards + 1
		if slots < need || (slots > groupSlots && slots/2 >= need) {
			t.Errorf("capacity %d: %d slots per shard for %d entries", n, slots, need)
		}
	}
}

// FuzzHashTable: random inserts over one or two keys (Insert, InsertKeyOnly
// and InsertBlock mixed) against a map oracle; every key's lookups return
// its payloads in insertion order, and absent keys return nothing.
func FuzzHashTable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3}, false, uint8(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 128}, true, uint8(1))
	f.Fuzz(func(t *testing.T, ops []byte, twoKeys bool, initial uint8) {
		ht := New(Config{PayloadSchema: payloadSchema(), InitialCapacity: int(initial)})
		oracle := map[[2]int64][]int{}
		key := func(b byte) [2]int64 {
			k := [2]int64{int64(b % 61), 0}
			if twoKeys {
				k[1] = int64(b / 61)
			}
			return k
		}
		src := storage.NewBlock(keyedSchema(), storage.ColumnStore, (len(ops)+1)*32)
		for i, op := range ops {
			k := key(op)
			src.AppendRow(types.NewInt64(k[0]), types.NewInt64(k[1]), types.NewInt64(int64(i)), types.NewFloat64(0))
		}
		keyCols := []int{0}
		if twoKeys {
			keyCols = []int{0, 1}
		}
		// The first half goes in row at a time, the rest as one block.
		half := len(ops) / 2
		for r := 0; r < half; r++ {
			k := key(ops[r])
			ht.Insert(k[0], k[1], src, r, []int{2, 3})
			oracle[k] = append(oracle[k], r)
		}
		rest := storage.NewBlock(keyedSchema(), storage.ColumnStore, (len(ops)-half+1)*32)
		for r := half; r < len(ops); r++ {
			rest.AppendFrom(src, r, []int{0, 1, 2, 3})
			k := key(ops[r])
			oracle[k] = append(oracle[k], r)
		}
		ht.InsertBlock(rest, keyCols, []int{2, 3}, &InsertScratch{})
		if ht.Len() != len(ops) {
			t.Fatalf("Len = %d, want %d", ht.Len(), len(ops))
		}
		for b := 0; b < 256; b++ {
			k := key(byte(b))
			got := lookupPayloads(t, ht, k[0], k[1])
			want := oracle[k]
			if len(got) != len(want) {
				t.Fatalf("key %v: %d entries, want %d", k, len(got), len(want))
			}
			for i := range want {
				if got[i] != int64(want[i]) {
					t.Fatalf("key %v: payloads %v, want %v", k, got, want)
				}
			}
			if ht.Contains(k[0]+1000, k[1]) {
				t.Fatalf("phantom key %v", k)
			}
		}
	})
}

// TestMatchAllocs: with warm match vectors, probing a block allocates
// nothing.
func TestMatchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ht := New(Config{PayloadSchema: payloadSchema(), InitialCapacity: 16})
	ht.InsertBlock(randKeyedBlock(rng, 500, 100), []int{0}, []int{2, 3}, &InsertScratch{})
	k0 := randKeyedBlock(rng, 4096, 200).GatherInt64(0, nil)
	hashes := types.HashPairVec(k0, nil, nil)
	var m Matches
	for _, firstOnly := range []bool{false, true} {
		if n := testing.AllocsPerRun(20, func() { ht.Match(hashes, k0, nil, firstOnly, &m) }); n != 0 {
			t.Errorf("firstOnly %v: Match allocated %v times per block", firstOnly, n)
		}
	}
}
