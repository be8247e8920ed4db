package exec

import (
	"fmt"
	"testing"

	"repro/internal/bloom"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
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
// i/2·scale: each key twice, and every other row a run of distinct keys.
func lipBlocks(s *storage.Schema, n, rowsPer int, scale int64) []*storage.Block {
	out := make([]*storage.Block, n)
	for bi := range out {
		b := storage.NewBlock(s, storage.ColumnStore, rowsPer*s.RowWidth())
		for r := 0; r < rowsPer; r++ {
			i := int64(bi*rowsPer + r)
			b.AppendRow(types.NewInt64(i/2*scale), types.NewInt64(i))
		}
		out[bi] = b
	}
	return out
}

// lipViews returns views over every other row of the bases, two bases per
// view, so each view is two table sources.
func lipViews(s *storage.Schema, bases []*storage.Block) []*storage.Block {
	var out []*storage.Block
	for i := 0; i < len(bases); i += 2 {
		v := storage.NewPool(nil, nil).CheckOutView(0, s, []int{0, 1}, false, storage.ColumnStore, 1<<16)
		for _, b := range bases[i:min(i+2, len(bases))] {
			var sel []int32
			for r := 0; r < b.NumRows(); r += 2 {
				sel = append(sel, int32(r))
			}
			v.AppendView(b, sel)
		}
		out = append(out, v)
	}
	return out
}

// lipReader adds a select that reads op's LIP filter on column 0.
func lipReader(s *storage.Schema, op *BuildHashOp) *SelectOp {
	return NewSelect(SelectSpec{
		Name: "lip", InputSchema: s, Proj: []expr.Expr{expr.C(s, "k")}, ProjNames: []string{"k"},
		LIPs: []LIPRef{{Build: op, KeyCol: 0}},
	})
}

// TestLIPFilterHoldsEveryIndexedKey: a build a select reads makes its
// filter in the Final wave, one bloom work order per table source, sized
// from the entries it indexed; the filter holds every first key the table
// indexed — no false negative — whether the build was fed blocks or views
// and whichever index it sealed. A build no select reads makes no filter
// and no bloom work order.
func TestLIPFilterHoldsEveryIndexedKey(t *testing.T) {
	s := lipSchema()
	for _, views := range []bool{false, true} {
		for _, scale := range []int64{1, 1 << 33} {
			dense := scale == 1
			t.Run(fmt.Sprintf("views=%v/dense=%v", views, dense), func(t *testing.T) {
				for _, read := range []bool{true, false} {
					in := lipBlocks(s, 6, 100, scale)
					if views {
						in = lipViews(s, in)
					}
					op := NewBuildHash(BuildSpec{Name: "build", InputSchema: s, KeyCols: []int{0}, Payload: []int{1}})
					if read {
						lipReader(s, op)
					}
					ctx := execCtx()
					op.Start(ctx)
					for _, wo := range op.Feed(ctx, 0, in) {
						if err := wo.Run(ctx, &core.Output{}); err != nil {
							t.Fatal(err)
						}
					}
					final := op.Final(ctx)
					blooms := 0
					for _, wo := range final {
						if _, ok := wo.(*bloomWO); ok {
							blooms++
						}
						if err := wo.Run(ctx, &core.Output{}); err != nil {
							t.Fatal(err)
						}
					}
					if got := denseIndexed(op, in[0].Int64At(0, 0)); got != dense {
						t.Fatalf("dense index %v, want %v", got, dense)
					}
					if !read {
						if op.Bloom() != nil || blooms != 0 {
							t.Fatalf("unread build made a filter (%d bloom work orders)", blooms)
						}
						continue
					}
					if want := op.HT().Sources(); blooms != want || want != 6 {
						t.Fatalf("bloom work orders = %d, want one per source (%d; 6 fed blocks or view segments)", blooms, want)
					}
					flt := op.Bloom()
					if want := bloom.New(op.HT().Entries(), 10).Bytes(); flt.Bytes() != want {
						t.Fatalf("filter bytes = %d, want %d from %d entries", flt.Bytes(), want, op.HT().Entries())
					}
					keys := 0
					for _, b := range in {
						for r := 0; r < b.NumRows(); r++ {
							keys++
							if k := b.Int64At(0, r); !flt.MayContain(k) {
								t.Fatalf("filter lost indexed key %d", k)
							}
						}
					}
					if keys != op.HT().Entries() {
						t.Fatalf("checked %d keys of %d entries", keys, op.HT().Entries())
					}
				}
			})
		}
	}
}

// TestLIPKeyColumnReadOnce: a select that projects its LIP key column reads
// it once, so two LIPs on that column add only their filters' probes to its
// cost, not a second and third scan of the column.
func TestLIPKeyColumnReadOnce(t *testing.T) {
	s := lipSchema()
	build := NewBuildHash(BuildSpec{Name: "build", InputSchema: s, KeyCols: []int{0}})
	build.setID(30)
	lipReader(s, build)
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
	probes := 2 * cachesim.New(params).RandomProbes(int64(probe.NumRows()), build.Bloom().Bytes())
	if got := two - plain; got != probes {
		t.Fatalf("two LIPs on the projected key column cost %d more than none, want their probes' %d", got, probes)
	}
}

// TestLIPProbesChargedPerFilter: a select that reads two filters of
// different sizes charges each filter's probes at that filter's own size.
// The filters hold every probe key, so a select reading the small filter
// then the large one emits the rows of one reading the small filter twice,
// and costs exactly the large filter's probes less the small one's more.
// With a 4 KiB L3 the large filter's probes miss and the small one's hit,
// so charging both at the first filter's size shows no difference.
func TestLIPProbesChargedPerFilter(t *testing.T) {
	s := lipSchema()
	params := cachesim.Default()
	params.L3Bytes = 4 << 10
	build := func(keys int) *BuildHashOp {
		op := NewBuildHash(BuildSpec{Name: "build", InputSchema: s, KeyCols: []int{0}})
		op.setID(30)
		lipReader(s, op) // makes the build keep a filter
		runOp(t, execCtx(), op, 30, lipBlocks(s, 1, keys, 1)...)
		return op
	}
	small, large := build(100), build(100_000)
	if small.Bloom().Bytes() >= params.L3Bytes || large.Bloom().Bytes() <= 4*params.L3Bytes {
		t.Fatalf("filter bytes %d and %d do not straddle the %d-byte L3", small.Bloom().Bytes(), large.Bloom().Bytes(), params.L3Bytes)
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
	want := sim.RandomProbes(n, large.Bloom().Bytes()) - sim.RandomProbes(n, small.Bloom().Bytes())
	if want <= 0 {
		t.Fatalf("the large filter's probes cost no more than the small one's (%d)", want)
	}
	if got := both - twice; got != want {
		t.Fatalf("the large filter's probes cost %d more than the small one's, want %d", got, want)
	}
}
