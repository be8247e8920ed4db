package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/hashtable"
	"repro/internal/storage"
	"repro/internal/types"
)

// lipSchema is the (k, v) schema of the LIP tests' builds and selects.
func lipSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Int64},
	)
}

// lipBlocks returns n blocks of rowsPer rows, v the row's ordinal i and k
// i/4·2·scale: each key four times, and the odd multiples of scale between
// them absent.
func lipBlocks(s *storage.Schema, n, rowsPer int, scale int64) []*storage.Block {
	keys := make([]int64, n*rowsPer)
	for i := range keys {
		keys[i] = int64(i/4) * 2 * scale
	}
	return keyBlocks(s, keys, rowsPer)
}

// keyBlocks returns blocks of rowsPer rows with the given keys, v the row's
// ordinal.
func keyBlocks(s *storage.Schema, keys []int64, rowsPer int) []*storage.Block {
	var out []*storage.Block
	for lo := 0; lo < len(keys); lo += rowsPer {
		b := storage.NewBlock(s, storage.ColumnStore, rowsPer*s.RowWidth())
		for i := lo; i < min(lo+rowsPer, len(keys)); i++ {
			b.AppendRow(types.NewInt64(keys[i]), types.NewInt64(int64(i)))
		}
		out = append(out, b)
	}
	return out
}

// lipViews returns listed views over every step-th row of the bases, two
// bases per view, so each view is two table sources.
func lipViews(s *storage.Schema, bases []*storage.Block, step int) []*storage.Block {
	var out []*storage.Block
	for i := 0; i < len(bases); i += 2 {
		v := storage.NewPool(nil, nil).CheckOutView(0, s, []int{0, 1}, false, storage.ColumnStore, 1<<16)
		for _, b := range bases[i:min(i+2, len(bases))] {
			var sel []int32
			for r := 0; r < b.NumRows(); r += step {
				sel = append(sel, int32(r))
			}
			v.AppendView(b, sel)
		}
		out = append(out, v)
	}
	return out
}

// lipReader adds a select that reads op's table as a LIP on column 0.
func lipReader(s *storage.Schema, op *BuildHashOp) *SelectOp {
	return NewSelect(SelectSpec{
		Name: "lip", InputSchema: s, Proj: []expr.Expr{expr.C(s, "k")}, ProjNames: []string{"k"},
		LIPs: []LIPRef{{Build: op, KeyCol: 0}},
	})
}

// keyBitmapBytes returns the bytes of a sealed hash index's key bitmap,
// modulo a hash group: the index takes whole groups of eight slots, so any
// bytes beyond them are the bitmap's (the bitmaps here are not a whole
// number of groups).
func keyBitmapBytes(ht *hashtable.Table) int64 { return ht.TotalBytes() % (8 * hashtable.SlotBytes) }

// TestLIPKeepsExactlyTheKeysTheTableHolds: a select's LIP keeps exactly the
// rows whose key its build's table holds — no false positive, no false
// negative — whether the build was fed blocks or views, and whether it
// sealed a dense index, a hash index with a key bitmap, or one without.
// The select reads plain blocks and views, behind a predicate, and sees
// every held key, the absent keys between them, and over 10 000 absent keys
// in and beyond the key range: a bloom filter at 10 bits a key lets about
// 1 % of those through.
func TestLIPKeepsExactlyTheKeysTheTableHolds(t *testing.T) {
	s := lipSchema()
	for _, views := range []bool{false, true} {
		for _, index := range []struct {
			name  string
			scale int64
		}{{"dense", 1}, {"hash-bitmap", 50}, {"hash", 1 << 32}} {
			t.Run(fmt.Sprintf("views=%v/index=%s", views, index.name), func(t *testing.T) {
				in := lipBlocks(s, 6, 100, index.scale)
				if views {
					in = lipViews(s, in, 1)
				}
				ctx := execCtx()
				build := NewBuildHash(BuildSpec{Name: "build", InputSchema: s, KeyCols: []int{0}, Payload: []int{1}})
				build.setID(30)
				held := map[int64]bool{}
				for _, b := range in {
					for r := 0; r < b.NumRows(); r++ {
						held[b.Int64At(0, r)] = true
					}
				}
				sel := NewSelect(SelectSpec{
					Name: "lip", InputSchema: s, Pred: expr.Lt(expr.C(s, "v"), expr.Int(10_000)),
					Proj: []expr.Expr{expr.C(s, "k"), expr.C(s, "v")}, ProjNames: []string{"k", "v"},
					LIPs: []LIPRef{{Build: build, KeyCol: 0}},
				})
				sel.setID(31)
				runOp(t, ctx, build, 30, in...)
				ht := build.HT()
				if got := denseIndexed(build, 0); got != (index.name == "dense") {
					t.Fatalf("dense index %v", got)
				}
				if got := keyBitmapBytes(ht) != 0; index.name != "dense" && got != (index.name == "hash-bitmap") {
					t.Fatalf("key bitmap %v", got)
				}

				rng := rand.New(rand.NewSource(5))
				span := 300 * index.scale
				var keys []int64
				for k := -2 * index.scale; k <= span+2*index.scale; k += index.scale {
					keys = append(keys, k)
				}
				for absent := 0; absent < 10_000; {
					k := rng.Int63() - rng.Int63()
					if absent%2 == 0 {
						k = rng.Int63n(3*span) - span
					}
					if !held[k] {
						keys = append(keys, k)
						absent++
					}
				}
				probe := keyBlocks(s, keys, 1000)
				if views {
					probe = lipViews(s, probe, 2)
				}
				want := map[int64]int64{} // v → k
				for _, b := range probe {
					for r := 0; r < b.NumRows(); r++ {
						if k, v := b.Int64At(0, r), b.Int64At(1, r); held[k] && v < 10_000 {
							want[v] = k
						}
					}
				}
				got := map[int64]int64{}
				for _, b := range runOp(t, ctx, sel, 31, probe...) {
					for r := 0; r < b.NumRows(); r++ {
						got[b.Int64At(1, r)] = b.Int64At(0, r)
					}
				}
				if len(want) == 0 || len(got) != len(want) {
					t.Fatalf("LIP kept %d rows, want %d", len(got), len(want))
				}
				for v, k := range want {
					if gk, ok := got[v]; !ok || gk != k {
						t.Fatalf("row %d (key %d) lost or changed", v, k)
					}
				}
			})
		}
	}
}

// TestLIPFilterHoldsEveryIndexedKey: a build a select reads as a LIP makes
// nothing for it — its Final wave is the index fills alone — and the select
// keeps every row whose key the table indexed, no false negative, whether
// the build was fed blocks or views and whichever index it sealed.
func TestLIPFilterHoldsEveryIndexedKey(t *testing.T) {
	s := lipSchema()
	for _, views := range []bool{false, true} {
		for _, dense := range []bool{false, true} {
			t.Run(fmt.Sprintf("views=%v/dense=%v", views, dense), func(t *testing.T) {
				scale := int64(1 << 32)
				if dense {
					scale = 1
				}
				in := lipBlocks(s, 6, 100, scale)
				if views {
					in = lipViews(s, in, 2)
				}
				ctx := execCtx()
				build := NewBuildHash(BuildSpec{Name: "build", InputSchema: s, KeyCols: []int{0}, Payload: []int{1}})
				sel := lipReader(s, build)
				sel.setID(31)
				build.Start(ctx)
				for _, wo := range build.Feed(ctx, 0, in) {
					if err := wo.Run(ctx, &core.Output{}); err != nil {
						t.Fatal(err)
					}
				}
				for _, wo := range build.Final(ctx) {
					if _, ok := wo.(*fillWO); !ok {
						t.Fatalf("the Final wave holds a %T beside the fills", wo)
					}
					if err := wo.Run(ctx, &core.Output{}); err != nil {
						t.Fatal(err)
					}
				}
				if got := denseIndexed(build, 0); got != dense {
					t.Fatalf("dense index %v, want %v", got, dense)
				}
				want, got := 0, 0
				for _, b := range in {
					want += b.NumRows()
				}
				for _, b := range runOp(t, ctx, sel, 31, in...) {
					got += b.NumRows()
				}
				if got != want {
					t.Fatalf("LIP kept %d of the %d rows whose key the table indexed", got, want)
				}
			})
		}
	}
}

// TestLIPSelectAllocs: with its scratch warm, a select reading a LIP over a
// pipelined view — whose key column it gathers into a scratch buffer —
// allocates the same number of times for a 100-row and an 8K-row block: the
// per-block bookkeeping, nothing per row.
func TestLIPSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; the Zero-alloc CI step runs this without it")
	}
	s := lipSchema()
	for _, scale := range []int64{1, 1 << 32} {
		ctx := execCtx()
		ctx.TempBlockBytes = 1 << 20 // an 8K-row block's output fits one block
		build := NewBuildHash(BuildSpec{Name: "build", InputSchema: s, KeyCols: []int{0}, Payload: []int{1}})
		build.setID(30)
		sel := lipReader(s, build)
		sel.setID(31)
		runOp(t, ctx, build, 30, lipBlocks(s, 4, 1000, scale)...)
		small := lipViews(s, lipBlocks(s, 2, 100, scale), 2)[0]
		large := lipViews(s, lipBlocks(s, 2, 8<<10, scale), 2)[0]
		allocs := func(b *storage.Block) float64 {
			wo := sel.Feed(ctx, 0, []*storage.Block{b})[0]
			return testing.AllocsPerRun(50, func() {
				var out core.Output
				if err := wo.Run(ctx, &out); err != nil {
					t.Fatal(err)
				}
				out.Finish(nil)
				for _, p := range append(out.Blocks, ctx.Pool.TakePartials(31)...) {
					ctx.Pool.Release(p)
				}
			})
		}
		allocs(large) // size the pooled scratch for the large block
		if s, l := allocs(small), allocs(large); s != l {
			t.Errorf("scale %d: %v allocations for a 100-row view, %v for an 8K-row view", scale, s, l)
		}
	}
}

// TestLIPTableOutlivesItsProbe: a select and a probe both read a build's
// table, and whichever finishes last releases it: the table stays on the
// HashTables gauge until both are done, and the select reads it correctly
// after the probe is gone.
func TestLIPTableOutlivesItsProbe(t *testing.T) {
	s := lipSchema()
	for _, probeFirst := range []bool{true, false} {
		ctx := execCtx()
		build := NewBuildHash(BuildSpec{Name: "build", InputSchema: s, KeyCols: []int{0}, Payload: []int{1}})
		build.setID(30)
		probe := NewProbe(ProbeSpec{
			Name: "probe", Build: build, InputSchema: s, KeyCols: []int{0}, JoinType: LeftSemi, ProbeProj: []int{0},
		})
		probe.setID(31)
		sel := lipReader(s, build)
		sel.setID(32)
		in := lipBlocks(s, 2, 100, 1)
		runOp(t, ctx, build, 30, in...)
		bytes := ctx.Run.HashTables.Live()
		if bytes <= 0 {
			t.Fatal("the sealed table is not on the gauge")
		}
		readers := []struct {
			op core.Operator
			id core.OpID
		}{{probe, 31}, {sel, 32}}
		if !probeFirst {
			readers[0], readers[1] = readers[1], readers[0]
		}
		probeKeys := lipBlocks(s, 2, 200, 1) // half the keys held
		for i, r := range readers {
			rows := 0
			for _, b := range runOp(t, ctx, r.op, r.id, probeKeys...) {
				rows += b.NumRows()
			}
			if rows != 200 {
				t.Fatalf("%s kept %d rows, want the 200 whose key the table holds", r.op.Name(), rows)
			}
			r.op.Cleanup(ctx)
			want := bytes
			if i == 1 {
				want = 0
			}
			if got := ctx.Run.HashTables.Live(); got != want {
				t.Fatalf("after %s (probe first %v): %d table bytes live, want %d", r.op.Name(), probeFirst, got, want)
			}
		}
	}
}

// TestLIPReadsAOneKeyBuild: a LIP reference to a two-key build panics in
// NewSelect.
func TestLIPReadsAOneKeyBuild(t *testing.T) {
	s := lipSchema()
	build := NewBuildHash(BuildSpec{Name: "build", InputSchema: s, KeyCols: []int{0, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("NewSelect took a LIP on a two-key build")
		}
	}()
	lipReader(s, build)
}

// TestLIPKeyColumnReadOnce: a select that projects its LIP key column reads
// it once, so two LIPs on that column add only their tables' probes to its
// cost, not a second and third scan of the column.
func TestLIPKeyColumnReadOnce(t *testing.T) {
	s := lipSchema()
	build := NewBuildHash(BuildSpec{Name: "build", InputSchema: s, KeyCols: []int{0}})
	build.setID(30)
	runOp(t, execCtx(), build, 30, lipBlocks(s, 1, 100, 1)...)
	probe := lipBlocks(s, 1, 100, 1)[0]
	params := cachesim.Default()
	cost := func(lips []LIPRef) int64 {
		op := NewSelect(SelectSpec{
			Name: "sel", InputSchema: s, Proj: []expr.Expr{expr.C(s, "k")}, ProjNames: []string{"k"},
			LIPs: lips,
		})
		op.setID(31)
		ctx := execCtx()
		ctx.Sim = cachesim.New(params)
		out := &core.Output{}
		if err := op.Feed(ctx, 0, []*storage.Block{probe})[0].Run(ctx, out); err != nil {
			t.Fatal(err)
		}
		out.Finish(nil)
		return out.Sim
	}
	plain := cost(nil)
	two := cost([]LIPRef{{Build: build, KeyCol: 0}, {Build: build, KeyCol: 0}})
	probes := 2 * cachesim.New(params).RandomProbes(int64(probe.NumRows()), build.HT().UsedBytes())
	if got := two - plain; got != probes {
		t.Fatalf("two LIPs on the projected key column cost %d more than none, want their probes' %d", got, probes)
	}
}

// TestLIPProbesChargedPerFilter: a select that reads two tables of
// different sizes charges each table's probes at that table's own
// UsedBytes, as a probe is charged. Both tables hold every probe key, so a
// select reading the small table then the large one emits the rows of one
// reading the small table twice, and costs exactly the large table's probes
// less the small one's more. With a 4 KiB L3 the large table's probes miss
// and the small one's hit, so charging both at the first table's size shows
// no difference.
func TestLIPProbesChargedPerFilter(t *testing.T) {
	s := lipSchema()
	params := cachesim.Default()
	params.L3Bytes = 4 << 10
	build := func(keys int) *BuildHashOp {
		op := NewBuildHash(BuildSpec{Name: "build", InputSchema: s, KeyCols: []int{0}})
		op.setID(30)
		runOp(t, execCtx(), op, 30, lipBlocks(s, 1, keys, 1)...)
		return op
	}
	small, large := build(100), build(100_000)
	if sb, lb := small.HT().UsedBytes(), large.HT().UsedBytes(); sb >= params.L3Bytes || lb <= 4*params.L3Bytes {
		t.Fatalf("table bytes %d and %d do not straddle the %d-byte L3", sb, lb, params.L3Bytes)
	}
	probe := lipBlocks(s, 1, 100, 1)[0]
	cost := func(lips []LIPRef) (int64, int64) {
		op := NewSelect(SelectSpec{
			Name: "sel", InputSchema: s, Proj: []expr.Expr{expr.C(s, "k")}, ProjNames: []string{"k"},
			LIPs: lips,
		})
		op.setID(31)
		ctx := execCtx()
		ctx.Sim = cachesim.New(params)
		out := &core.Output{}
		if err := op.Feed(ctx, 0, []*storage.Block{probe})[0].Run(ctx, out); err != nil {
			t.Fatal(err)
		}
		out.Finish(nil)
		rows := int64(0)
		for _, b := range append(out.Blocks, ctx.Pool.TakePartials(31)...) {
			rows += int64(b.NumRows())
		}
		return out.Sim, rows
	}
	twice, twiceRows := cost([]LIPRef{{Build: small, KeyCol: 0}, {Build: small, KeyCol: 0}})
	both, bothRows := cost([]LIPRef{{Build: small, KeyCol: 0}, {Build: large, KeyCol: 0}})
	if bothRows != twiceRows || bothRows != int64(probe.NumRows()) {
		t.Fatalf("rows: small+large %d, small twice %d, want %d", bothRows, twiceRows, probe.NumRows())
	}
	sim := cachesim.New(params)
	n := int64(probe.NumRows())
	want := sim.RandomProbes(n, large.HT().UsedBytes()) - sim.RandomProbes(n, small.HT().UsedBytes())
	if want <= 0 {
		t.Fatalf("the large table's probes cost no more than the small one's (%d)", want)
	}
	if got := both - twice; got != want {
		t.Fatalf("the large table's probes cost %d more than the small one's, want %d", got, want)
	}
}
