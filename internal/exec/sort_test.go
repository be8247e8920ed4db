package exec

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

// sortTestBlocks builds nblocks blocks of rows each over a schema covering
// every normalized-key type, with narrow value domains so every term has
// plenty of duplicates (ties exercise stability).
func sortTestBlocks(seed int64, nblocks, rows int) (*storage.Schema, []*storage.Block) {
	s := storage.NewSchema(
		storage.Column{Name: "i", Type: types.Int64},
		storage.Column{Name: "d", Type: types.Date},
		storage.Column{Name: "f", Type: types.Float64},
		storage.Column{Name: "c4", Type: types.Char, Width: 4},
		storage.Column{Name: "c12", Type: types.Char, Width: 12},
		storage.Column{Name: "seq", Type: types.Int64},
	)
	r := rand.New(rand.NewSource(seed))
	prefixes := []string{"alpha", "beta", "gamma", "alphb"}
	var blocks []*storage.Block
	seq := int64(0)
	for bi := 0; bi < nblocks; bi++ {
		b := storage.NewBlock(s, storage.ColumnStore, 64<<10)
		for ri := 0; ri < rows; ri++ {
			// c12 values share 5-byte prefixes and differ past the 8-byte
			// normalized prefix, forcing the approximate tie-break path.
			c12 := prefixes[r.Intn(len(prefixes))] + string(rune('a'+r.Intn(3))) + "xy" + string(rune('a'+r.Intn(4)))
			b.AppendRow(
				types.NewInt64(int64(r.Intn(17))-8),
				types.NewDate(int32(r.Intn(30))),
				types.NewFloat64(float64(r.Intn(9))/4),
				types.NewString(string(rune('a'+r.Intn(5)))),
				types.NewString(c12),
				types.NewInt64(seq),
			)
			seq++
		}
		blocks = append(blocks, b)
	}
	return s, blocks
}

func rowsEqual(a, b [][]types.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].Ty != b[i][j].Ty || !types.Equal(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestSortMatchesOracle is the order-sensitive equivalence matrix: for every
// term combination and limit, the normalized-key kernel must produce
// bit-identical output to the oracle's row sort — including tie order (both
// stable on arrival order).
func TestSortMatchesOracle(t *testing.T) {
	s, blocks := sortTestBlocks(42, 3, 301)
	total := 3 * 301
	cases := []struct {
		name  string
		terms []SortTerm
	}{
		{"int_asc", []SortTerm{{Key: expr.C(s, "i")}}},
		{"int_desc", []SortTerm{{Key: expr.C(s, "i"), Desc: true}}},
		{"date_asc", []SortTerm{{Key: expr.C(s, "d")}}},
		{"float_desc", []SortTerm{{Key: expr.C(s, "f"), Desc: true}}},
		{"char4_asc", []SortTerm{{Key: expr.C(s, "c4")}}},
		{"char12_asc", []SortTerm{{Key: expr.C(s, "c12")}}},
		{"char12_desc", []SortTerm{{Key: expr.C(s, "c12"), Desc: true}}},
		{"int_float", []SortTerm{{Key: expr.C(s, "i")}, {Key: expr.C(s, "f"), Desc: true}}},
		{"date_char12_int", []SortTerm{
			{Key: expr.C(s, "d"), Desc: true},
			{Key: expr.C(s, "c12")},
			{Key: expr.C(s, "i")},
		}},
		{"computed_float_desc", []SortTerm{{Key: expr.MulE(expr.C(s, "f"), expr.Float(-1)), Desc: true}}},
		{"year_substr", []SortTerm{
			{Key: expr.Year(expr.C(s, "d"))},
			{Key: expr.Substr(expr.C(s, "c12"), 2, 7), Desc: true},
		}},
	}
	limits := []int{0, 1, 7, total, total + 10}
	for _, tc := range cases {
		for _, limit := range limits {
			op := NewSort(SortSpec{Name: "sort", InputSchema: s, Terms: tc.terms, Limit: limit})
			op.setID(1)
			got := allRows(runOp(t, execCtx(), op, 1, blocks...))
			ref := oracleSort(tc.terms, limit, blocks)
			want := total
			if limit > 0 && limit < total {
				want = limit
			}
			if len(ref) != want {
				t.Fatalf("%s limit=%d: oracle rows = %d, want %d", tc.name, limit, len(ref), want)
			}
			if !rowsEqual(got, ref) {
				t.Fatalf("%s limit=%d: kernel diverges from the oracle (%d vs %d rows)",
					tc.name, limit, len(got), len(ref))
			}
		}
	}
}

// TestSortParallelMatchesSequential runs enough rows to fan the merge out
// into several range partitions, races all work orders under -race, and
// requires output identical to the oracle's single sort.
func TestSortParallelMatchesSequential(t *testing.T) {
	s, blocks := sortTestBlocks(99, 20, 1024) // 20480 rows: multi-partition merge
	terms := []SortTerm{{Key: expr.C(s, "i")}, {Key: expr.C(s, "seq"), Desc: true}}

	ctx := execCtx()
	ctx.Workers = 8
	op := NewSort(SortSpec{Name: "sort", InputSchema: s, Terms: terms})
	op.setID(1)
	emitted, _ := runOpConcurrent(t, ctx, op, 1, blocks, 8)
	if got, ref := allRows(emitted), oracleSort(terms, 0, blocks); !rowsEqual(got, ref) {
		t.Fatalf("parallel sort diverges from the oracle (%d vs %d rows)", len(got), len(ref))
	}
}

// TestSortTopKParallel races the top-k path (per-run bounded heaps, single
// merge partition) and checks the limit semantics against the oracle.
func TestSortTopKParallel(t *testing.T) {
	s, blocks := sortTestBlocks(123, 12, 512)
	terms := []SortTerm{{Key: expr.C(s, "f"), Desc: true}, {Key: expr.C(s, "d")}}
	limit := 37

	ctx := execCtx()
	ctx.Workers = 8
	op := NewSort(SortSpec{Name: "sort", InputSchema: s, Terms: terms, Limit: limit})
	op.setID(1)
	emitted, _ := runOpConcurrent(t, ctx, op, 1, blocks, 8)
	if got, ref := allRows(emitted), oracleSort(terms, limit, blocks); !rowsEqual(got, ref) {
		t.Fatalf("parallel top-k diverges from the oracle (%d vs %d rows)", len(got), len(ref))
	}
}

// TestSortFaultedRunRetriesOnFastPath: a fault at the SortRun site fails the
// attempt before any run state exists. Re-running the same work order after
// the rollback — what the scheduler's retry does — changes nothing: Final
// still fans out merge work orders and the output is bit-identical to an
// unfaulted sort, for column terms and computed terms alike.
func TestSortFaultedRunRetriesOnFastPath(t *testing.T) {
	s, blocks := sortTestBlocks(5, 8, 1024) // 8192 rows: multi-partition merge at 4 workers
	for name, terms := range map[string][]SortTerm{
		"columns":  {{Key: expr.C(s, "d")}, {Key: expr.C(s, "i"), Desc: true}},
		"computed": {{Key: expr.Year(expr.C(s, "d"))}, {Key: expr.MulE(expr.C(s, "f"), expr.Float(-1)), Desc: true}},
	} {
		t.Run(name, func(t *testing.T) { testSortFaultedRunRetries(t, s, blocks, terms) })
	}
}

func testSortFaultedRunRetries(t *testing.T, s *storage.Schema, blocks []*storage.Block, terms []SortTerm) {
	cleanCtx := execCtx()
	cleanCtx.Workers = 4
	cleanOp := NewSort(SortSpec{Name: "clean", InputSchema: s, Terms: terms})
	cleanOp.setID(2)
	want := allRows(runOp(t, cleanCtx, cleanOp, 2, blocks...))

	ctx := execCtx()
	ctx.Workers = 4
	// Fire exactly once, at the third run-generation work order.
	ctx.Faults = faults.Replay([]faults.Event{{Site: faults.SortRun, Seq: 2, Kind: faults.KindError}})
	op := NewSort(SortSpec{Name: "fast", InputSchema: s, Terms: terms})
	op.setID(1)
	faulted := 0
	for _, wo := range op.Feed(ctx, 0, blocks) {
		out := &core.Output{}
		err := wo.Run(ctx, out)
		out.Finish(err)
		if err != nil {
			faulted++
			if out.Kernel != (stats.Kernel{}) {
				t.Fatalf("rolled-back attempt reported counters: %+v", out.Kernel)
			}
			out = &core.Output{}
			if err := wo.Run(ctx, out); err != nil {
				t.Fatalf("retried work order failed: %v", err)
			}
			out.Finish(nil)
		}
		if out.SortRuns != 1 || out.SortFastRows != 1024 {
			t.Fatalf("run work order reported runs=%d fast rows=%d, want 1/1024", out.SortRuns, out.SortFastRows)
		}
	}
	if faulted != 1 {
		t.Fatalf("%d work orders faulted, want 1", faulted)
	}
	var emitted []*storage.Block
	runAll := func(wos []core.WorkOrder) {
		for _, wo := range wos {
			out := &core.Output{}
			if err := wo.Run(ctx, out); err != nil {
				t.Fatalf("work order failed: %v", err)
			}
			out.Finish(nil)
			emitted = append(emitted, out.Blocks...)
		}
	}
	finals := op.Final(ctx)
	if len(finals) < 2 {
		t.Fatalf("Final issued %d work orders, want a merge fan-out", len(finals))
	}
	for _, wo := range finals {
		if _, ok := wo.(*sortMergeWO); !ok {
			t.Fatalf("Final issued %T, want *sortMergeWO", wo)
		}
	}
	runAll(finals)
	if !rowsEqual(allRows(emitted), want) {
		t.Fatal("retried sort diverges from the unfaulted sort")
	}
}

// TestSortCounters checks the sort kernel counters the work orders report.
func TestSortCounters(t *testing.T) {
	s, blocks := sortTestBlocks(11, 3, 64)
	op := NewSort(SortSpec{
		Name: "sort", InputSchema: s,
		Terms: []SortTerm{{Key: expr.C(s, "i")}},
		Limit: 10,
	})
	op.setID(4)
	ctx := execCtx()
	var runs, fastRows, pruned, fanout, rowsOut int64
	drive := func(wos []core.WorkOrder) {
		for _, wo := range wos {
			out := &core.Output{}
			if err := wo.Run(ctx, out); err != nil {
				t.Fatalf("work order failed: %v", err)
			}
			out.Finish(nil)
			runs += out.SortRuns
			fastRows += out.SortFastRows
			pruned += out.TopKPruned
			fanout += out.SortMergeFanout
			rowsOut += out.RowsOut
			for _, b := range out.Blocks {
				ctx.Pool.Release(b)
			}
		}
	}
	for _, b := range blocks {
		drive(op.Feed(ctx, 0, []*storage.Block{b}))
	}
	drive(op.Final(ctx))
	if runs != 3 {
		t.Fatalf("SortRuns = %d, want 3", runs)
	}
	if fastRows != 3*64 {
		t.Fatalf("SortFastRows = %d, want %d", fastRows, 3*64)
	}
	// Each 64-row run keeps at most 10 rows; rows rejected at Offer time are
	// pruned (heap evictions are not, so the exact count is data-dependent).
	if pruned <= 0 || pruned > 3*(64-10) {
		t.Fatalf("TopKPruned = %d, want in (0, %d]", pruned, 3*(64-10))
	}
	if fanout != 1 {
		t.Fatalf("SortMergeFanout = %d, want 1 (limited sort merges in one partition)", fanout)
	}
	if rowsOut != 10 {
		t.Fatalf("RowsOut = %d, want 10", rowsOut)
	}
}
