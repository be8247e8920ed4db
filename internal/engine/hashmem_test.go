package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
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
	5:  {97940, 97940},
	6:  {4120, 4120},
	7:  {919524, 919524},
	8:  {121512, 121512},
	9:  {1411888, 1411888},
	10: {1057504, 1057504},
	11: {63512, 63512},
	12: {900004, 900004},
	13: {188416, 188416},
	14: {120004, 120004},
	15: {20480, 20480},
	16: {342841, 342841},
	17: {4608, 4608},
	18: {3162112, 3162112}, // one float SUM column: 8 B slots, keys, hashes and sums at 8 B a group each
	19: {34620, 34620},
	20: {62072, 62072}, // typed agg columns, plus 2 560 B: build(part) counts until its second probe, probe(part2), ends
	21: {4822192, 4822192},
	22: {330000, 330000},
}

// q21Ceiling is the bound on Q21's hash-table peak: its one-key lineitem
// tables, each a dense index over 1..N order keys and the lineitem views
// it indexes, 4 bytes a row.
const q21Ceiling = 5 << 20

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
