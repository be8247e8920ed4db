package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/hashtable"
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

// TestConcurrentBuildWorkOrdersAndLIPReads drives one build operator that a
// select reads as a LIP with many concurrent work orders, runs its Final
// wave — the index fill alone — and then the select's work orders
// concurrently too (run under -race): the block-granular insert kernel and
// the concurrent LIP probes of the sealed table leave no race.
func TestConcurrentBuildWorkOrdersAndLIPReads(t *testing.T) {
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
	})
	lip := NewSelect(SelectSpec{
		Name: "lip", InputSchema: s, Proj: []expr.Expr{expr.C(s, "k")}, ProjNames: []string{"k"},
		LIPs: []LIPRef{{Build: op, KeyCol: 0}},
	})
	ctx := execCtx()
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
	final := op.Final(ctx)
	if len(final) != 1 {
		t.Fatalf("final work orders = %d, want the one fill", len(final))
	}
	if err := final[0].Run(ctx, &core.Output{}); err != nil {
		t.Fatal(err)
	}
	if got := countMatches(op, blocks*rowsPer); got != blocks*rowsPer {
		t.Fatalf("table has %d entries, want %d", got, blocks*rowsPer)
	}
	var rowsIn int64
	for _, o := range outs {
		rowsIn += o.RowsIn
	}
	if rowsIn != blocks*rowsPer {
		t.Fatalf("rows in = %d, want %d", rowsIn, blocks*rowsPer)
	}
	var kept atomic.Int64
	for _, wo := range lip.Feed(ctx, 0, in) {
		wg.Add(1)
		go func(wo core.WorkOrder) {
			defer wg.Done()
			out := &core.Output{}
			out.Finish(wo.Run(ctx, out))
			kept.Add(out.RowsOut)
		}(wo)
	}
	wg.Wait()
	if got := kept.Load(); got != blocks*rowsPer {
		t.Fatalf("LIP kept %d rows, want all %d", got, blocks*rowsPer)
	}
	// Key-only builds take the same batched path.
	ko := NewBuildHash(BuildSpec{
		Name: "ko", InputSchema: s, KeyCols: []int{0},
	})
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
	runFills(t, ctx, ko)
	if got := countMatches(ko, blocks*rowsPer); got != blocks*rowsPer {
		t.Fatalf("key-only table has %d entries, want %d", got, blocks*rowsPer)
	}
}

// runFills runs a build's Final wave: the fills of its sealed table.
func runFills(t *testing.T, ctx *core.ExecCtx, op *BuildHashOp) {
	t.Helper()
	for _, wo := range op.Final(ctx) {
		if err := wo.Run(ctx, &core.Output{}); err != nil {
			t.Fatal(err)
		}
	}
}

// countMatches probes op's table with the keys 0..n-1 and counts the
// entries found.
func countMatches(op *BuildHashOp, n int) int {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	var m hashtable.Matches
	op.HT().Match(keys, nil, false, &m)
	return len(m.Ref)
}

// denseIndexed reports whether op's sealed one-key table answers a lookup
// of key k made with a wrong hash: a dense index does not read the hash, a
// hash index looks in another shard and finds nothing.
func denseIndexed(op *BuildHashOp, k int64) bool {
	h := types.HashPairVec([]int64{k}, nil, nil)[0] ^ 1<<48
	found := false
	op.HT().LookupHashed(h, k, 0, func(*storage.Block, int) bool { found = true; return false })
	return found
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
	// Keys 0..199 make a dense index; the same keys 2³³ apart a hash index.
	for _, dense := range []bool{true, false} {
		scale := int64(1)
		if !dense {
			scale = 1 << 33
		}
		probeAllocs(t, bs, ps, scale, dense)
	}
}

func probeAllocs(t *testing.T, bs, ps *storage.Schema, scale int64, dense bool) {
	rng := rand.New(rand.NewSource(3))
	var keys [][2]int64
	for k := int64(0); k < 200; k++ {
		keys = append(keys, [2]int64{k * scale, 0})
	}
	build := joinBlocks(rng, bs, []storage.Format{storage.ColumnStore}, keys[:100], 1, 100)
	small := joinBlocks(rng, ps, []storage.Format{storage.ColumnStore}, keys, 1, 100)[0]
	large := joinBlocks(rng, ps, []storage.Format{storage.ColumnStore}, keys, 1, 8<<10)[0]
	// The last case filters its matches through an OR residual over both
	// sides, gathered into the probe's scratch block.
	for i, jt := range []JoinType{Inner, LeftSemi, LeftAnti, Inner} {
		ctx := execCtx()
		ctx.TempBlockBytes = 1 << 20 // an 8K-row block's output fits one block
		spec := BuildSpec{Name: "build", InputSchema: bs, KeyCols: []int{0}}
		pspec := ProbeSpec{Name: "probe", InputSchema: ps, KeyCols: []int{0}, JoinType: jt, ProbeProj: []int{4, 2}}
		if jt == Inner {
			spec.Payload = []int{4, 2}
			pspec.BuildProj = []int{0, 1}
		}
		residual := i == 3
		if residual {
			spec.Payload = []int{4, 2, 3}
		}
		bop := NewBuildHash(spec)
		bop.setID(20)
		runOp(t, ctx, bop, 20, build...)
		if got := denseIndexed(bop, build[0].Int64At(0, 0)); got != dense {
			t.Fatalf("%s: dense index %v, want %v", jt, got, dense)
		}
		pspec.Build = bop
		if residual {
			pspec.Residual = expr.Or(expr.Lt(expr.C(ps, "pv"), expr.C2(bop.PayloadSchema(), "bv")),
				expr.InStrings(expr.C2(bop.PayloadSchema(), "bc"), "a", "e"))
		}
		pop := NewProbe(pspec)
		pop.setID(21)
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
			t.Errorf("%s (residual %v, dense %v): %v allocations for a 100-row block, %v for an 8K-row block", jt, residual, dense, s, l)
		}
	}
}

// A CASE char column is as wide as its widest branch: with the ELSE
// branch's width alone, a longer THEN value was cut.
func TestSelectCaseCharKeepsLongestBranch(t *testing.T) {
	s, b := inputBlock(1, 2, 3)
	op := NewSelect(SelectSpec{
		Name: "sel", InputSchema: s,
		Proj: []expr.Expr{expr.Case(expr.Str("x"),
			expr.When{Cond: expr.Gt(expr.C(s, "v"), expr.Float(1)), Then: expr.Str("long")})},
		ProjNames: []string{"c"},
	})
	op.setID(8)
	if w := op.OutSchema().ColWidth(0); w != 4 {
		t.Fatalf("CASE column width %d, want 4", w)
	}
	rows := allRows(runOp(t, execCtx(), op, 8, b))
	var got []string
	for _, r := range rows {
		got = append(got, string(r[0].Bytes()))
	}
	if fmt.Sprint(got) != "[x long long]" {
		t.Fatalf("CASE projection = %q", got)
	}
}

// A computed char sort term wider than 8 bytes would need its ties broken
// by evaluating it again per run; NewSort rejects it with a typed error.
func TestSortRejectsWideComputedCharTerm(t *testing.T) {
	s := storage.NewSchema(storage.Column{Name: "c", Type: types.Char, Width: 12})
	spec := func(key expr.Expr) SortSpec {
		return SortSpec{Name: "sort", InputSchema: s, Terms: []SortTerm{{Key: key}}}
	}
	NewSort(spec(expr.Substr(expr.C(s, "c"), 2, 8))) // 8 bytes: one exact word
	NewSort(spec(expr.C(s, "c")))                    // a wide column ties in place
	defer func() {
		var ute *UnsortableTermError
		if err, _ := recover().(error); !errors.As(err, &ute) || ute.Term != 0 {
			t.Fatalf("NewSort of a 9-byte computed char term: recovered %v, want *UnsortableTermError", err)
		}
	}()
	NewSort(spec(expr.Substr(expr.C(s, "c"), 2, 9)))
}

// With one partial, merge work order p emits the dense slice of groups
// denseRange gives it; the slices cover every group exactly once.
func TestAggDenseRangesCoverEveryGroupOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 15, 16, 17, 37, 1000} {
		seen := make([]int, n)
		prev := 0
		for p := 0; p < aggParts; p++ {
			lo, hi := denseRange(p, aggParts, n)
			if lo != prev || hi < lo {
				t.Fatalf("n=%d: part %d covers [%d,%d) after %d", n, p, lo, hi, prev)
			}
			for g := lo; g < hi; g++ {
				seen[g]++
			}
			prev = hi
		}
		for g, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: group %d emitted %d times", n, g, c)
			}
		}
	}
	// End to end: groups 0..n-1 in one block, so one partial holds them.
	s, _ := inputBlock()
	for _, n := range []int{0, 5, 37} {
		b := storage.NewBlock(s, storage.ColumnStore, 64<<10)
		for i := 0; i < 3*n; i++ {
			b.AppendRow(types.NewInt64(int64(i%n)), types.NewFloat64(1), types.NewString("a"))
		}
		op := NewAgg(AggOpSpec{Name: "agg", InputSchema: s,
			GroupBy: []expr.Expr{expr.C(s, "g")}, GroupByNames: []string{"g"},
			Aggs: []AggSpec{{Func: Count, Name: "c"}}})
		op.setID(4)
		ctx := execCtx()
		rows := allRows(runOp(t, ctx, op, 4, b))
		if len(rows) != n {
			t.Fatalf("n=%d: %d groups emitted", n, len(rows))
		}
		got := map[int64]int64{}
		for _, r := range rows {
			got[r[0].I] += r[1].I
		}
		for g := int64(0); g < int64(n); g++ {
			if got[g] != 3 {
				t.Fatalf("n=%d: group %d counted %d rows, want 3", n, g, got[g])
			}
		}
	}
}

// TestAggMergeTableCountsInHashTables: with two partials every merge work
// order builds a merged table, and the run's HashTables gauge counts it
// beside the partials while the work order runs: the high-water exceeds the
// partials' bytes, and once the merge wave is done the gauge holds the
// partials alone again.
func TestAggMergeTableCountsInHashTables(t *testing.T) {
	s, _ := inputBlock()
	block := func() *storage.Block {
		b := storage.NewBlock(s, storage.ColumnStore, 64<<10)
		for g := 0; g < 2000; g++ {
			b.AppendRow(types.NewInt64(int64(g)), types.NewFloat64(1), types.NewString("a"))
		}
		return b
	}
	op := NewAgg(AggOpSpec{Name: "agg", InputSchema: s,
		GroupBy: []expr.Expr{expr.C(s, "g")}, GroupByNames: []string{"g"},
		Aggs: []AggSpec{{Func: Sum, Arg: expr.C(s, "v"), Name: "s"}}})
	op.setID(4)
	ctx := execCtx()
	run := func(wos []core.WorkOrder) (rows int) {
		for _, wo := range wos {
			out := &core.Output{}
			if err := wo.Run(ctx, out); err != nil {
				t.Fatal(err)
			}
			out.Finish(nil)
			rows += int(out.RowsOut)
		}
		return rows
	}
	op.Start(ctx)
	// Hold one partial while the first block's work order runs, so it checks
	// out a second one; the second block then fills the held partial.
	held := op.getPartial(&core.Output{})
	run(op.Feed(ctx, 0, []*storage.Block{block()}))
	op.putPartial(held)
	run(op.Feed(ctx, 0, []*storage.Block{block()}))
	if len(op.pall) != 2 || op.pall[0].tab == nil || op.pall[1].tab == nil {
		t.Fatalf("%d partials, want two filled ones", len(op.pall))
	}
	partials := op.MemBytes()
	if rows := run(op.Final(ctx)); rows != 2000 {
		t.Fatalf("merge emitted %d groups, want 2000", rows)
	}
	if high := ctx.Run.HashTables.High(); high <= partials {
		t.Fatalf("HashTables high-water %d B, the partials alone hold %d B: the merged tables went uncounted", high, partials)
	}
	if live := ctx.Run.HashTables.Live(); live != partials {
		t.Fatalf("HashTables after the merge wave = %d B, want the partials' %d B", live, partials)
	}
}
