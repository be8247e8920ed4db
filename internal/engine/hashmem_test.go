package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// hashTablesHigh pins HashTables.High() in bytes — join tables (their
// indexes and the input blocks they hold) plus aggregation tables — of every
// TPC-H query at SF 0.05, Workers 1, for UoT 1 and UoT = table. Workers 1
// makes each run deterministic, so any change to the tables' layout or
// sizing moves a cell. After an intended change,
// replace the cells with the values the failures print and say why in the
// change's notes.
var hashTablesHigh = map[int][2]int64{
	1:  {4512, 4512},
	2:  {239672, 239672},
	3:  {222436, 222436},
	4:  {1059276, 1059276},
	5:  {95940, 95940},
	6:  {4120, 4120},
	7:  {619524, 619524},
	8:  {121512, 121512},
	9:  {951888, 951888},
	10: {1057504, 1057504},
	11: {63512, 63512},
	12: {600004, 600004},
	13: {188416, 188416},
	14: {80004, 80004},
	15: {20480, 20480},
	16: {342841, 342841},
	17: {4608, 4608},
	18: {3162112, 3162112}, // one float SUM column: 8 B slots, keys, hashes and sums at 8 B a group each
	19: {34620, 34620},
	20: {62072, 62072}, // typed agg columns, plus 2 560 B: build(part) counts until its second probe, probe(part2), ends
	21: {3621028, 3621028},
	22: {30000, 30000},
}

// q21Ceiling is the bound on Q21's hash-table peak: its one-key lineitem
// tables, each a dense index over 1..N order keys and the lineitem views
// it indexes. The filtered l1 and l3 views cost 4 bytes a row; the
// unfiltered l2 select emits dense views, which cost none.
const q21Ceiling = 4 << 20

// TestHashTablesHighIsPinned runs the 22 queries × UoT {1, table} and
// checks each run's hash-table high-water against hashTablesHigh.
func TestHashTablesHighIsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned at SF 0.05")
	}
	d := tpch.Load(goldenSF, 128<<10, storage.ColumnStore)
	for _, q := range tpch.Numbers() {
		want, ok := hashTablesHigh[q]
		if !ok {
			t.Errorf("Q%02d: no pinned cell", q)
			continue
		}
		var got [2]int64
		for i, uot := range []int{1, core.UoTTable} {
			b, err := tpch.Build(d, q, tpch.QueryOpts{})
			if err != nil {
				t.Fatalf("Q%02d: build: %v", q, err)
			}
			res, err := engine.Execute(b, engine.Options{Workers: 1, UoTBlocks: uot, TempBlockBytes: 128 << 10})
			if err != nil {
				t.Fatalf("Q%02d uot=%d: execute: %v", q, uot, err)
			}
			got[i] = res.Run.HashTables.High()
		}
		if got != want {
			t.Errorf("Q%02d: HashTables.High() {uot 1, table} = %v, pinned %v; new cell: %d: {%d, %d},", q, got, want, q, got[0], got[1])
		}
		if q == 21 && max(got[0], got[1]) > q21Ceiling {
			t.Errorf("Q21: hash tables peak at %.2f MiB, above %d MiB", float64(max(got[0], got[1]))/(1<<20), q21Ceiling>>20)
		}
	}
}

// buildSpy stands in for a join build in its plan and counts the blocks fed
// to it: rows, views, and the bytes they hold when delivered. Feed runs
// under the run's lock.
type buildSpy struct {
	*exec.BuildHashOp
	rows, views, bytes int
}

func (s *buildSpy) Feed(ctx *core.ExecCtx, input int, blocks []*storage.Block) []core.WorkOrder {
	for _, b := range blocks {
		s.rows += b.NumRows()
		s.bytes += b.AllocBytes()
		if b.IsView() {
			s.views++
		}
	}
	return s.BuildHashOp.Feed(ctx, input, blocks)
}

// TestQ21HoldsDenseViews: Q21's build(l2) indexes select(lineitem) with no
// predicate, so it holds dense views of every lineitem row, which charge no
// byte, while build(l3), behind a filter, holds listed views at 4 bytes a
// row.
func TestQ21HoldsDenseViews(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Q21 at SF 0.05")
	}
	d := tpch.Load(goldenSF, 128<<10, storage.ColumnStore)
	for _, uot := range []int{1, core.UoTTable} {
		b, err := tpch.Build(d, 21, tpch.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		spies := map[string]*buildSpy{}
		for i, op := range b.Plan().Ops {
			if bop, ok := op.(*exec.BuildHashOp); ok && (op.Name() == "build(l2)" || op.Name() == "build(l3)") {
				spies[op.Name()] = &buildSpy{BuildHashOp: bop}
				b.Plan().Ops[i] = spies[op.Name()]
			}
		}
		res, err := engine.Execute(b, engine.Options{Workers: 1, UoTBlocks: uot, TempBlockBytes: 128 << 10})
		if err != nil {
			t.Fatal(err)
		}
		l2, l3 := spies["build(l2)"], spies["build(l3)"]
		if l2 == nil || l3 == nil {
			t.Fatal("Q21 has no build(l2) or build(l3)")
		}
		if int64(l2.rows) != d.Lineitem.NumRows() || l2.views == 0 || l2.bytes != 0 {
			t.Errorf("uot %d: build(l2) was fed %d of %d lineitem rows in %d views holding %d B, want every row in views of 0 B", uot, l2.rows, d.Lineitem.NumRows(), l2.views, l2.bytes)
		}
		if l3.views == 0 || l3.bytes != 4*l3.rows {
			t.Errorf("uot %d: build(l3) was fed %d rows in %d views holding %d B, want 4 B a row", uot, l3.rows, l3.views, l3.bytes)
		}
		if r := res.Run.Robust(); res.Run.HashTables.Live() != 0 || r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
			t.Errorf("uot %d: %d live hash-table bytes, leaks %+v", uot, res.Run.HashTables.Live(), r)
		}
	}
}
