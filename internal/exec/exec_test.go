package exec

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

func execCtx() *core.ExecCtx {
	run := stats.NewRun()
	return &core.ExecCtx{
		Pool:           storage.NewPool(&run.Intermediates, run.AddCheckout),
		Run:            run,
		TempBlockBytes: 4 << 10,
		TempFormat:     storage.RowStore,
		Workers:        1,
	}
}

func inputBlock(vals ...float64) (*storage.Schema, *storage.Block) {
	s := storage.NewSchema(
		storage.Column{Name: "g", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Float64},
		storage.Column{Name: "tag", Type: types.Char, Width: 4},
	)
	b := storage.NewBlock(s, storage.ColumnStore, 16<<10)
	tags := []string{"aa", "bb"}
	for i, v := range vals {
		b.AppendRow(types.NewInt64(int64(i%2)), types.NewFloat64(v), types.NewString(tags[i%2]))
	}
	return s, b
}

// runOp drives an operator by hand: feed blocks, run all work orders, then
// final work orders; returns all emitted blocks.
func runOp(t *testing.T, ctx *core.ExecCtx, op core.Operator, id core.OpID, blocks ...*storage.Block) []*storage.Block {
	t.Helper()
	op.Init(ctx)
	var emitted []*storage.Block
	runWOs := func(wos []core.WorkOrder) {
		for _, wo := range wos {
			out := &core.Output{}
			if err := wo.Run(ctx, out); err != nil {
				t.Fatalf("work order failed: %v", err)
			}
			out.Finish(nil)
			emitted = append(emitted, out.Blocks...)
		}
	}
	runWOs(op.Start(ctx))
	if len(blocks) > 0 {
		runWOs(op.Feed(ctx, 0, blocks))
	}
	runWOs(op.Final(ctx))
	if so, ok := op.(core.StagedOperator); ok {
		for stage := 0; ; stage++ {
			wos := so.NextStage(ctx, stage)
			if wos == nil {
				break
			}
			runWOs(wos)
		}
	}
	emitted = append(emitted, ctx.Pool.TakePartials(int(id))...)
	return emitted
}

func allRows(blocks []*storage.Block) [][]types.Datum {
	var out [][]types.Datum
	for _, b := range blocks {
		for r := 0; r < b.NumRows(); r++ {
			out = append(out, b.Row(r))
		}
	}
	return out
}

func TestAggAllFunctions(t *testing.T) {
	s, b := inputBlock(1, 2, 3, 4, 5) // group 0: 1,3,5; group 1: 2,4
	op := NewAgg(AggOpSpec{
		Name:         "agg",
		InputSchema:  s,
		GroupBy:      []expr.Expr{expr.C(s, "g")},
		GroupByNames: []string{"g"},
		Aggs: []AggSpec{
			{Func: Sum, Arg: expr.C(s, "v"), Name: "s"},
			{Func: Count, Name: "c"},
			{Func: Avg, Arg: expr.C(s, "v"), Name: "a"},
			{Func: Min, Arg: expr.C(s, "v"), Name: "mn"},
			{Func: Max, Arg: expr.C(s, "v"), Name: "mx"},
		},
	})
	op.setID(1)
	rows := allRows(runOp(t, execCtx(), op, 1, b))
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		switch r[0].I {
		case 0:
			if r[1].F != 9 || r[2].I != 3 || r[3].F != 3 || r[4].F != 1 || r[5].F != 5 {
				t.Errorf("group 0 aggs wrong: %v", r)
			}
		case 1:
			if r[1].F != 6 || r[2].I != 2 || r[3].F != 3 || r[4].F != 2 || r[5].F != 4 {
				t.Errorf("group 1 aggs wrong: %v", r)
			}
		default:
			t.Errorf("unexpected group %d", r[0].I)
		}
	}
}

func TestAggMergeAcrossWorkOrders(t *testing.T) {
	// The same rows split across two blocks must aggregate identically to
	// one block (thread-local partials + merge).
	s, whole := inputBlock(1, 2, 3, 4, 5, 6)
	b1 := storage.NewBlock(s, storage.ColumnStore, 16<<10)
	b2 := storage.NewBlock(s, storage.ColumnStore, 16<<10)
	for r := 0; r < whole.NumRows(); r++ {
		dst := b1
		if r >= 3 {
			dst = b2
		}
		dst.AppendRow(whole.Row(r)...)
	}
	mk := func() *AggOp {
		op := NewAgg(AggOpSpec{
			Name: "agg", InputSchema: s,
			GroupBy: []expr.Expr{expr.C(s, "g")}, GroupByNames: []string{"g"},
			Aggs: []AggSpec{
				{Func: Sum, Arg: expr.C(s, "v"), Name: "s"},
				{Func: Min, Arg: expr.C(s, "v"), Name: "mn"},
			},
		})
		op.setID(2)
		return op
	}
	one := allRows(runOp(t, execCtx(), mk(), 2, whole))
	two := allRows(runOp(t, execCtx(), mk(), 2, b1, b2))
	if len(one) != len(two) {
		t.Fatalf("group counts differ: %d vs %d", len(one), len(two))
	}
	find := func(rows [][]types.Datum, g int64) []types.Datum {
		for _, r := range rows {
			if r[0].I == g {
				return r
			}
		}
		return nil
	}
	for g := int64(0); g < 2; g++ {
		a, b := find(one, g), find(two, g)
		if a[1].F != b[1].F || a[2].F != b[2].F {
			t.Errorf("group %d: split aggregation differs: %v vs %v", g, a, b)
		}
	}
}

func TestAggCharGroupKeysCopied(t *testing.T) {
	// Group keys of Char type must be copied out of the input block: the
	// block is reset (simulating recycling) before Final runs.
	s, b := inputBlock(1, 2, 3, 4)
	op := NewAgg(AggOpSpec{
		Name: "agg", InputSchema: s,
		GroupBy: []expr.Expr{expr.C(s, "tag")}, GroupByNames: []string{"tag"},
		Aggs: []AggSpec{{Func: Count, Name: "c"}},
	})
	op.setID(3)
	ctx := execCtx()
	op.Init(ctx)
	for _, wo := range op.Feed(ctx, 0, []*storage.Block{b}) {
		out := &core.Output{}
		out.Finish(wo.Run(ctx, out))
	}
	// Clobber the input block before finalization.
	b.Reset()
	b.AppendRow(types.NewInt64(9), types.NewFloat64(9), types.NewString("zz"))

	var emitted []*storage.Block
	for _, wo := range op.Final(ctx) {
		out := &core.Output{}
		out.Finish(wo.Run(ctx, out))
		emitted = append(emitted, out.Blocks...)
	}
	emitted = append(emitted, ctx.Pool.TakePartials(3)...)
	rows := allRows(emitted)
	seen := map[string]bool{}
	for _, r := range rows {
		seen[string(r[0].Bytes())] = true
	}
	if !seen["aa"] || !seen["bb"] || seen["zz"] {
		t.Fatalf("group keys aliased recycled block memory: %v", seen)
	}
}

func TestAggScalarValue(t *testing.T) {
	s, b := inputBlock(2, 4, 6)
	op := NewAgg(AggOpSpec{
		Name: "agg", InputSchema: s,
		Aggs: []AggSpec{{Func: Avg, Arg: expr.C(s, "v"), Name: "a"}},
	})
	op.setID(4)
	runOp(t, execCtx(), op, 4, b)
	v, ok := op.ScalarValue()
	if !ok || v.F != 4 {
		t.Fatalf("scalar = %v, %v", v, ok)
	}
}

func TestAggEmptyScalarEmitsZeroRow(t *testing.T) {
	s, _ := inputBlock()
	op := NewAgg(AggOpSpec{
		Name: "agg", InputSchema: s,
		Aggs: []AggSpec{{Func: Count, Name: "c"}, {Func: Sum, Arg: expr.C(s, "v"), Name: "s"}},
	})
	op.setID(5)
	rows := allRows(runOp(t, execCtx(), op, 5))
	if len(rows) != 1 || rows[0][0].I != 0 || rows[0][1].F != 0 {
		t.Fatalf("empty scalar agg = %v", rows)
	}
}

func TestSortStabilityAndDesc(t *testing.T) {
	s := storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "seq", Type: types.Int64},
	)
	b := storage.NewBlock(s, storage.RowStore, 8<<10)
	// Keys with ties; seq records insertion order.
	keys := []int64{3, 1, 3, 2, 1, 3}
	for i, k := range keys {
		b.AppendRow(types.NewInt64(k), types.NewInt64(int64(i)))
	}
	op := NewSort(SortSpec{
		Name: "sort", InputSchema: s,
		Terms: []SortTerm{{Key: expr.C(s, "k"), Desc: true}},
	})
	op.setID(6)
	rows := allRows(runOp(t, execCtx(), op, 6, b))
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	wantK := []int64{3, 3, 3, 2, 1, 1}
	wantSeq := []int64{0, 2, 5, 3, 1, 4} // ties keep arrival order (stable)
	for i, r := range rows {
		if r[0].I != wantK[i] || r[1].I != wantSeq[i] {
			t.Fatalf("row %d = %v, want k=%d seq=%d", i, r, wantK[i], wantSeq[i])
		}
	}
}

func TestSortLimitLargerThanInput(t *testing.T) {
	s, b := inputBlock(1, 2)
	op := NewSort(SortSpec{
		Name: "sort", InputSchema: s,
		Terms: []SortTerm{{Key: expr.C(s, "v")}},
		Limit: 100,
	})
	op.setID(7)
	if got := len(allRows(runOp(t, execCtx(), op, 7, b))); got != 2 {
		t.Fatalf("rows = %d", got)
	}
}

func TestSelectComputedProjection(t *testing.T) {
	s, b := inputBlock(1, 2, 3)
	op := NewSelect(SelectSpec{
		Name: "sel", InputSchema: s,
		Pred:      expr.Gt(expr.C(s, "v"), expr.Float(1)),
		Proj:      []expr.Expr{expr.MulE(expr.C(s, "v"), expr.Float(10))},
		ProjNames: []string{"v10"},
	})
	op.setID(8)
	rows := allRows(runOp(t, execCtx(), op, 8, b))
	if len(rows) != 2 || rows[0][0].F != 20 || rows[1][0].F != 30 {
		t.Fatalf("computed projection = %v", rows)
	}
}

func TestSelectBaseTableGeneratesWorkOrderPerBlock(t *testing.T) {
	s := storage.NewSchema(storage.Column{Name: "k", Type: types.Int64})
	tbl := storage.NewTable("t", s, storage.ColumnStore, 64) // 8 rows per block
	l := storage.NewLoader(tbl)
	for i := 0; i < 50; i++ {
		l.Append(types.NewInt64(int64(i)))
	}
	l.Close()
	op := NewSelect(SelectSpec{
		Name: "sel", Base: tbl,
		Proj: []expr.Expr{expr.C(s, "k")}, ProjNames: []string{"k"},
	})
	op.setID(9)
	ctx := execCtx()
	op.Init(ctx)
	wos := op.Start(ctx)
	if len(wos) != tbl.NumBlocks() {
		t.Fatalf("work orders = %d, blocks = %d", len(wos), tbl.NumBlocks())
	}
}

func TestReadBytesFormats(t *testing.T) {
	s := storage.NewSchema(
		storage.Column{Name: "a", Type: types.Int64},
		storage.Column{Name: "pad", Type: types.Char, Width: 56},
	)
	cb := storage.NewBlock(s, storage.ColumnStore, 6400)
	rb := storage.NewBlock(s, storage.RowStore, 6400)
	for i := 0; i < 100; i++ {
		cb.AppendRow(types.NewInt64(1), types.NewString("x"))
		rb.AppendRow(types.NewInt64(1), types.NewString("x"))
	}
	// Column store charges only the referenced column; row store the whole
	// tuple (the Section IV-B format effect).
	if got := readBytes(cb, []int{0}); got != 100*8 {
		t.Fatalf("column-store read bytes = %d", got)
	}
	if got := readBytes(rb, []int{0}); got != 100*64 {
		t.Fatalf("row-store read bytes = %d", got)
	}
}

func TestColRefsOnlyFastPath(t *testing.T) {
	s, _ := inputBlock(1)
	if colRefsOnly([]expr.Expr{expr.C(s, "g"), expr.C(s, "v")}) == nil {
		t.Error("plain column refs should use the copy fast path")
	}
	if colRefsOnly([]expr.Expr{expr.C(s, "g"), expr.MulE(expr.C(s, "v"), expr.Float(2))}) != nil {
		t.Error("computed projections must not use the fast path")
	}
	if colRefsOnly([]expr.Expr{expr.C2(s, "g")}) != nil {
		t.Error("secondary-side refs must not use the fast path")
	}
}

func TestJoinTypeStrings(t *testing.T) {
	for jt, want := range map[JoinType]string{
		Inner: "inner", LeftOuter: "left_outer", LeftSemi: "semi", LeftAnti: "anti",
	} {
		if jt.String() != want {
			t.Errorf("%d.String() = %q", jt, jt.String())
		}
	}
	if Sum.String() != "sum" || Max.String() != "max" {
		t.Error("agg func names wrong")
	}
}

// TestConcurrentBuildWorkOrdersWithBloom drives one build operator with many
// concurrent work orders over a bloom-enabled build (run under -race): the
// per-row operator mutex was replaced by the lock-free atomic bloom build
// plus the block-granular insert kernel, and no races may remain.
func TestConcurrentBuildWorkOrdersWithBloom(t *testing.T) {
	s := storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Float64},
	)
	const blocks, rowsPer = 24, 256
	in := make([]*storage.Block, blocks)
	for bi := range in {
		b := storage.NewBlock(s, storage.ColumnStore, rowsPer*16+64)
		for r := 0; r < rowsPer; r++ {
			b.AppendRow(types.NewInt64(int64(bi*rowsPer+r)), types.NewFloat64(float64(r)))
		}
		in[bi] = b
	}
	op := NewBuildHash(BuildSpec{
		Name: "build", InputSchema: s, KeyCols: []int{0}, Payload: []int{1},
		ExpectedRows: blocks * rowsPer, BuildBloom: true,
	})
	ctx := execCtx()
	op.Init(ctx)
	op.Start(ctx)
	wos := op.Feed(ctx, 0, in)
	if len(wos) != blocks {
		t.Fatalf("work orders = %d", len(wos))
	}
	var wg sync.WaitGroup
	outs := make([]*core.Output, len(wos))
	for i, wo := range wos {
		wg.Add(1)
		go func(i int, wo core.WorkOrder) {
			defer wg.Done()
			outs[i] = &core.Output{}
			outs[i].Finish(wo.Run(ctx, outs[i]))
		}(i, wo)
	}
	wg.Wait()
	if got := op.HT().Len(); got != blocks*rowsPer {
		t.Fatalf("table has %d entries, want %d", got, blocks*rowsPer)
	}
	var locks, batched int64
	for _, o := range outs {
		locks += o.ShardLocks
		batched += o.BatchedRows
	}
	if batched != blocks*rowsPer {
		t.Fatalf("batched rows = %d, want %d", batched, blocks*rowsPer)
	}
	// Lock amortization: far fewer acquisitions than rows (≤64 shards/block).
	if locks == 0 || locks > int64(blocks*64) {
		t.Fatalf("shard locks = %d, want 1..%d", locks, blocks*64)
	}
	flt := op.Bloom()
	for k := 0; k < blocks*rowsPer; k++ {
		if !flt.MayContain(int64(k)) {
			t.Fatalf("bloom lost key %d", k)
		}
	}
	// Key-only builds take the same batched path.
	ko := NewBuildHash(BuildSpec{
		Name: "ko", InputSchema: s, KeyCols: []int{0}, ExpectedRows: blocks * rowsPer,
	})
	ko.Init(ctx)
	ko.Start(ctx)
	var wg2 sync.WaitGroup
	for _, wo := range ko.Feed(ctx, 0, in) {
		wg2.Add(1)
		go func(wo core.WorkOrder) {
			defer wg2.Done()
			out := &core.Output{}
			out.Finish(wo.Run(ctx, out))
		}(wo)
	}
	wg2.Wait()
	if got := ko.HT().Len(); got != blocks*rowsPer {
		t.Fatalf("key-only table has %d entries, want %d", got, blocks*rowsPer)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestProbeAllocs: with its scratch warm, a probe work order allocates the
// same number of times for a 100-row and an 8K-row block — the per-block
// bookkeeping (emitter, output block checkout), nothing per row or per match
// — for inner, semi and anti joins.
func TestProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; the Zero-alloc CI step runs this without it")
	}
	bs, ps := joinSchemas()
	rng := rand.New(rand.NewSource(3))
	var keys [][2]int64
	for k := int64(0); k < 200; k++ {
		keys = append(keys, [2]int64{k, 0})
	}
	build := joinBlocks(rng, bs, []storage.Format{storage.ColumnStore}, keys[:100], 1, 100)
	small := joinBlocks(rng, ps, []storage.Format{storage.ColumnStore}, keys, 1, 100)[0]
	large := joinBlocks(rng, ps, []storage.Format{storage.ColumnStore}, keys, 1, 8<<10)[0]
	for _, jt := range []JoinType{Inner, LeftSemi, LeftAnti} {
		ctx := execCtx()
		ctx.TempBlockBytes = 1 << 20 // an 8K-row block's output fits one block
		spec := BuildSpec{Name: "build", InputSchema: bs, KeyCols: []int{0}, ExpectedRows: 100}
		pspec := ProbeSpec{Name: "probe", InputSchema: ps, KeyCols: []int{0}, JoinType: jt, ProbeProj: []int{4, 2}}
		if jt == Inner {
			spec.Payload = []int{4, 2}
			pspec.BuildProj = []int{0, 1}
		}
		bop := NewBuildHash(spec)
		bop.setID(20)
		runOp(t, ctx, bop, 20, build...)
		pspec.Build = bop
		pop := NewProbe(pspec)
		pop.setID(21)
		pop.Init(ctx)
		allocs := func(b *storage.Block) float64 {
			wo := pop.Feed(ctx, 0, []*storage.Block{b})[0]
			return testing.AllocsPerRun(50, func() {
				var out core.Output
				if err := wo.Run(ctx, &out); err != nil {
					t.Fatal(err)
				}
				out.Finish(nil)
				for _, p := range append(out.Blocks, ctx.Pool.TakePartials(21)...) {
					ctx.Pool.Release(p)
				}
			})
		}
		allocs(large) // size the pooled scratch for the large block
		if s, l := allocs(small), allocs(large); s != l {
			t.Errorf("%s: %v allocations for a 100-row block, %v for an 8K-row block", jt, s, l)
		}
	}
}
