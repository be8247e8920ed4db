package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
)

// aggVecSchema is the fixture for the aggregation kernel-vs-oracle tests: two int group keys, a date key, a float measure (dyadic rationals so
// sums are exact under any accumulation order), and an int measure.
func aggVecSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "g1", Type: types.Int64},
		storage.Column{Name: "g2", Type: types.Int64},
		storage.Column{Name: "d", Type: types.Date},
		storage.Column{Name: "v", Type: types.Float64},
		storage.Column{Name: "i", Type: types.Int64},
	)
}

func aggVecBlocks(s *storage.Schema, format storage.Format, nBlocks, rowsPer int, seed int64) []*storage.Block {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([]*storage.Block, nBlocks)
	for bi := range blocks {
		b := storage.NewBlock(s, format, rowsPer*s.RowWidth()+256)
		for r := 0; r < rowsPer; r++ {
			b.AppendRow(
				types.NewInt64(int64(rng.Intn(37))),
				types.NewInt64(int64(rng.Intn(5))),
				types.NewDate(int32(10000+rng.Intn(40))),
				types.NewFloat64(float64(rng.Intn(2048)-1024)/8),
				types.NewInt64(int64(rng.Intn(1000)-500)),
			)
		}
		blocks[bi] = b
	}
	return blocks
}

func allAggSpecs(s *storage.Schema) []AggSpec {
	return []AggSpec{
		{Func: Count, Name: "cnt"},
		{Func: Count, Arg: expr.C(s, "i"), Name: "cnt_i"},
		{Func: Sum, Arg: expr.C(s, "i"), Name: "sum_i"},
		{Func: Sum, Arg: expr.C(s, "v"), Name: "sum_v"},
		{Func: Avg, Arg: expr.C(s, "i"), Name: "avg_i"},
		{Func: Avg, Arg: expr.C(s, "v"), Name: "avg_v"},
		{Func: Min, Arg: expr.C(s, "i"), Name: "min_i"},
		{Func: Max, Arg: expr.C(s, "i"), Name: "max_i"},
		{Func: Min, Arg: expr.C(s, "v"), Name: "min_v"},
		{Func: Max, Arg: expr.C(s, "v"), Name: "max_v"},
		{Func: Min, Arg: expr.C(s, "d"), Name: "min_d"},
		{Func: Max, Arg: expr.C(s, "d"), Name: "max_d"},
	}
}

func TestAggVecEquivalenceAllFuncs(t *testing.T) {
	s := aggVecSchema()
	for _, format := range []storage.Format{storage.ColumnStore, storage.RowStore} {
		blocks := aggVecBlocks(s, format, 8, 300, 42)
		requireAggMatchesOracle(t, AggOpSpec{
			Name: "agg", InputSchema: s,
			GroupBy: []expr.Expr{expr.C(s, "g1")}, GroupByNames: []string{"g1"},
			Aggs: allAggSpecs(s),
		}, blocks)
	}
}

func TestAggVecEquivalenceTwoKeys(t *testing.T) {
	s := aggVecSchema()
	blocks := aggVecBlocks(s, storage.ColumnStore, 6, 257, 7)
	requireAggMatchesOracle(t, AggOpSpec{
		Name: "agg", InputSchema: s,
		GroupBy:      []expr.Expr{expr.C(s, "g1"), expr.C(s, "g2")},
		GroupByNames: []string{"g1", "g2"},
		Aggs: []AggSpec{
			{Func: Sum, Arg: expr.C(s, "v"), Name: "s"},
			{Func: Count, Name: "c"},
			{Func: Min, Arg: expr.C(s, "i"), Name: "mn"},
		},
	}, blocks)
}

func TestAggVecEquivalenceDateKey(t *testing.T) {
	s := aggVecSchema()
	blocks := aggVecBlocks(s, storage.ColumnStore, 4, 200, 13)
	got := requireAggMatchesOracle(t, AggOpSpec{
		Name: "agg", InputSchema: s,
		GroupBy:      []expr.Expr{expr.C(s, "d"), expr.C(s, "g2")},
		GroupByNames: []string{"d", "g2"},
		Aggs: []AggSpec{
			{Func: Sum, Arg: expr.C(s, "v"), Name: "s"},
			{Func: Max, Arg: expr.C(s, "d"), Name: "mx"},
		},
	}, blocks)
	// Date keys must come back typed as dates.
	if len(got) == 0 || got[0][0].Ty != types.Date {
		t.Fatalf("date group key lost its type: %+v", got[0][0])
	}
}

func TestAggVecEquivalenceComputedArg(t *testing.T) {
	// Computed (non-ColRef) arguments are Eval'd per row into the argument
	// vector and fold through the same columnar kernels.
	s := aggVecSchema()
	blocks := aggVecBlocks(s, storage.ColumnStore, 4, 128, 21)
	requireAggMatchesOracle(t, AggOpSpec{
		Name: "agg", InputSchema: s,
		GroupBy: []expr.Expr{expr.C(s, "g1")}, GroupByNames: []string{"g1"},
		Aggs: []AggSpec{
			{Func: Sum, Arg: expr.MulE(expr.C(s, "v"), expr.Float(2)), Name: "s2"},
			{Func: Min, Arg: expr.MulE(expr.C(s, "v"), expr.Float(4)), Name: "mn4"},
		},
	}, blocks)
}

func TestAggVecEmptyInputGrouped(t *testing.T) {
	s := aggVecSchema()
	got := requireAggMatchesOracle(t, AggOpSpec{
		Name: "agg", InputSchema: s,
		GroupBy: []expr.Expr{expr.C(s, "g1")}, GroupByNames: []string{"g1"},
		Aggs: []AggSpec{{Func: Count, Name: "c"}},
	}, nil)
	if len(got) != 0 {
		t.Fatalf("grouped aggregation over empty input emitted %d rows", len(got))
	}
}

func TestAggVecScalarEquivalence(t *testing.T) {
	s := aggVecSchema()
	spec := AggOpSpec{
		Name: "agg", InputSchema: s,
		Aggs: []AggSpec{
			{Func: Avg, Arg: expr.C(s, "v"), Name: "a"},
			{Func: Sum, Arg: expr.C(s, "i"), Name: "s"},
			{Func: Min, Arg: expr.C(s, "v"), Name: "mn"},
			{Func: Count, Name: "c"},
		},
	}
	blocks := aggVecBlocks(s, storage.ColumnStore, 5, 111, 3)
	want := requireAggMatchesOracle(t, spec, blocks)

	// ScalarValue is the first aggregate of the single result row.
	op := NewAgg(spec)
	op.setID(12)
	runOp(t, execCtx(), op, 12, blocks...)
	if v, ok := op.ScalarValue(); !ok || !eqDatum(v, want[0][0]) {
		t.Fatalf("scalar value = %v(%v), want %v", v, ok, want[0][0])
	}
}

func TestAggVecScalarEmptyInput(t *testing.T) {
	// A scalar aggregate over empty input yields exactly one zero row
	// (min/max come back as unset typed datums).
	s := aggVecSchema()
	got := requireAggMatchesOracle(t, AggOpSpec{
		Name: "agg", InputSchema: s,
		Aggs: []AggSpec{
			{Func: Count, Name: "c"},
			{Func: Sum, Arg: expr.C(s, "v"), Name: "s"},
			{Func: Min, Arg: expr.C(s, "i"), Name: "mn"},
		},
	}, nil)
	if len(got) != 1 {
		t.Fatalf("empty scalar agg rows = %d, want 1", len(got))
	}
}

// TestAggResolverChoice pins NewAgg's plan-time choice: which key shapes keep
// the table's inline keys, which serialize into the byte arena, and which
// aggregates bring the side array — and that every one of them matches the
// oracle on the one pipeline.
func TestAggResolverChoice(t *testing.T) {
	s := aggVecSchema()
	cs := storage.NewSchema(
		storage.Column{Name: "g1", Type: types.Int64},
		storage.Column{Name: "tag", Type: types.Char, Width: 4},
		storage.Column{Name: "v", Type: types.Float64},
		storage.Column{Name: "c8", Type: types.Char, Width: 8},
		storage.Column{Name: "c9", Type: types.Char, Width: 9},
	)
	csBlocks := func() []*storage.Block {
		b := storage.NewBlock(cs, storage.ColumnStore, 32<<10)
		for i := 0; i < 300; i++ {
			b.AppendRow(types.NewInt64(int64(i%7)), types.NewString([]string{"aa", "b", "cccc"}[i%3]), types.NewFloat64(float64(i)/4),
				types.NewString([]string{"abcdefgh", "abcdefg", "x"}[i%3]), types.NewString([]string{"abcdefghi", "abcdefgh", ""}[i%5%3]))
		}
		return []*storage.Block{b}
	}
	count := []AggSpec{{Func: Count, Name: "c"}}
	cases := []struct {
		name   string
		spec   AggOpSpec
		blocks []*storage.Block
		keys   aggKeys
	}{
		{"no keys", AggOpSpec{InputSchema: s, Aggs: count}, nil, scalarKeys{}},
		{"one int key", AggOpSpec{InputSchema: s,
			GroupBy: []expr.Expr{expr.C(s, "g1")}, GroupByNames: []string{"g1"}, Aggs: count}, nil, wordKeys{}},
		{"computed float key", AggOpSpec{InputSchema: s,
			GroupBy: []expr.Expr{expr.MulE(expr.C(s, "v"), expr.Float(2))}, GroupByNames: []string{"v2"}, Aggs: count}, nil, wordKeys{}},
		{"year and date keys", AggOpSpec{InputSchema: s,
			GroupBy:      []expr.Expr{expr.Year(expr.C(s, "d")), expr.C(s, "d")},
			GroupByNames: []string{"y", "d"}, Aggs: count}, nil, wordKeys{}},
		{"three keys", AggOpSpec{InputSchema: s,
			GroupBy:      []expr.Expr{expr.C(s, "g1"), expr.C(s, "g2"), expr.C(s, "d")},
			GroupByNames: []string{"g1", "g2", "d"}, Aggs: count}, nil, byteKeys{}},
		{"char key", AggOpSpec{InputSchema: cs,
			GroupBy: []expr.Expr{expr.C(cs, "tag")}, GroupByNames: []string{"tag"}, Aggs: count}, csBlocks(), wordKeys{}},
		{"char and int keys of 16 bytes", AggOpSpec{InputSchema: cs,
			GroupBy: []expr.Expr{expr.C(cs, "c8"), expr.C(cs, "g1")}, GroupByNames: []string{"c8", "g1"}, Aggs: count}, csBlocks(), wordKeys{}},
		{"char and int keys of 17 bytes", AggOpSpec{InputSchema: cs,
			GroupBy: []expr.Expr{expr.C(cs, "c9"), expr.C(cs, "g1")}, GroupByNames: []string{"c9", "g1"}, Aggs: count}, csBlocks(), byteKeys{}},
		{"count distinct", AggOpSpec{InputSchema: s,
			GroupBy: []expr.Expr{expr.C(s, "g1")}, GroupByNames: []string{"g1"},
			Aggs: []AggSpec{{Func: CountDistinct, Arg: expr.C(s, "i"), Name: "cd"}}}, nil, wordKeys{}},
		{"char agg arg", AggOpSpec{InputSchema: cs,
			GroupBy: []expr.Expr{expr.C(cs, "g1")}, GroupByNames: []string{"g1"},
			Aggs: []AggSpec{{Func: Min, Arg: expr.C(cs, "tag"), Name: "mn"}}}, csBlocks(), wordKeys{}},
	}
	for _, tc := range cases {
		tc.spec.Name = "agg"
		if got, want := fmt.Sprintf("%T", NewAgg(tc.spec).keys), fmt.Sprintf("%T", tc.keys); got != want {
			t.Errorf("%s: resolver %s, want %s", tc.name, got, want)
		}
		if tc.blocks == nil {
			tc.blocks = aggVecBlocks(s, storage.ColumnStore, 3, 150, 8)
		}
		requireAggMatchesOracle(t, tc.spec, tc.blocks)
	}
}

// TestAggFloatKeysGroupByValue: float keys group by their exact value — 0.1
// and 0.1000001 are two groups (a fixed-point key merged them), magnitudes
// past 9.2e12 do not overflow, and -0.0 and +0.0 are one group — on the
// inline resolver (one key) and the byte resolver (with a char key beside).
func TestAggFloatKeysGroupByValue(t *testing.T) {
	s := storage.NewSchema(
		storage.Column{Name: "f", Type: types.Float64},
		storage.Column{Name: "tag", Type: types.Char, Width: 2},
	)
	b := storage.NewBlock(s, storage.ColumnStore, 4<<10)
	negZero := math.Copysign(0, -1)
	for _, f := range []float64{0.1, 0.1000001, 0.1, 1e13, 2e13, 1e13, 0, negZero} {
		b.AppendRow(types.NewFloat64(f), types.NewString("x"))
	}
	for _, keys := range [][]string{{"f"}, {"f", "tag"}} {
		spec := AggOpSpec{Name: "agg", InputSchema: s, GroupByNames: keys, Aggs: []AggSpec{{Func: Count, Name: "c"}}}
		for _, k := range keys {
			spec.GroupBy = append(spec.GroupBy, expr.C(s, k))
		}
		got := requireAggMatchesOracle(t, spec, []*storage.Block{b})
		counts := map[float64]int64{}
		for _, r := range got {
			counts[r[0].F] = r[len(keys)].I
		}
		want := map[float64]int64{0.1: 2, 0.1000001: 1, 1e13: 2, 2e13: 1, 0: 2}
		if len(got) != len(want) || !reflect.DeepEqual(counts, want) {
			t.Errorf("keys %v: groups = %v, want %v", keys, counts, want)
		}
	}
}

// TestAggVecConcurrent runs the kernel with many concurrent work orders (run
// under -race): thread-local partials on the free-list, then the 16 radix
// merge work orders concurrently, and compares against the oracle.
func TestAggVecConcurrent(t *testing.T) {
	s := aggVecSchema()
	const nBlocks, rowsPer, workers = 32, 256, 8
	blocks := aggVecBlocks(s, storage.ColumnStore, nBlocks, rowsPer, 99)
	spec := AggOpSpec{
		Name: "agg", InputSchema: s,
		GroupBy:      []expr.Expr{expr.C(s, "g1"), expr.C(s, "g2")},
		GroupByNames: []string{"g1", "g2"},
		Aggs:         allAggSpecs(s),
	}
	op := NewAgg(spec)
	op.setID(20)
	ctx := execCtx()
	ctx.Workers = workers
	emitted, outs := runOpConcurrent(t, ctx, op, 20, blocks, workers)

	var fastRows, partials, fanout int64
	for _, o := range outs {
		fastRows += o.AggFastRows
		partials += o.AggPartials
		fanout += o.AggMergeFanout
	}

	if fastRows != nBlocks*rowsPer {
		t.Errorf("AggFastRows = %d, want %d", fastRows, nBlocks*rowsPer)
	}
	if partials < 1 || partials > workers {
		t.Errorf("AggPartials = %d, want 1..%d (free-list reuse)", partials, workers)
	}
	if fanout != aggParts {
		t.Errorf("AggMergeFanout = %d, want %d", fanout, aggParts)
	}
	if op.MemBytes() <= 0 {
		t.Error("kernel did not account partial-table memory")
	}
	requireSameRows(t, allRows(emitted), oracleAgg(spec, blocks), 2)

	// Cleanup must release exactly what was accounted.
	op.Cleanup(ctx)
	if live := ctx.Run.HashTables.Live(); live != 0 {
		t.Errorf("hash-table gauge after Cleanup = %d, want 0", live)
	}
}

// TestAggSideStateMemAccounting: distinct sets and char min/max values live
// outside the fixed-width cells, and the operator gauge must count them.
func TestAggSideStateMemAccounting(t *testing.T) {
	s := aggVecSchema()
	mem := func(agg AggSpec) int64 {
		op := NewAgg(AggOpSpec{
			Name: "agg", InputSchema: s,
			GroupBy: []expr.Expr{expr.C(s, "g1")}, GroupByNames: []string{"g1"},
			Aggs: []AggSpec{agg},
		})
		op.setID(23)
		runOp(t, execCtx(), op, 23, aggVecBlocks(s, storage.ColumnStore, 4, 250, 17)...)
		return op.MemBytes()
	}
	plain := mem(AggSpec{Func: Count, Name: "c"})
	// ~1000 rows over 1000 values of i: several hundred distinct entries, at
	// 9 serialized bytes plus per-entry overhead each.
	if distinct := mem(AggSpec{Func: CountDistinct, Arg: expr.C(s, "i"), Name: "cd"}); distinct < plain+300*9 {
		t.Errorf("distinct sets not accounted: distinct %d, plain %d", distinct, plain)
	}
}
