package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// hashTablesHigh pins HashTables.High() in bytes — join tables plus
// aggregation tables — of every TPC-H query at SF 0.05, Workers 1, for UoT 1
// and UoT = table. Workers 1 makes each run deterministic, so any change to
// the tables' layout or sizing moves a cell. After an intended change,
// replace the cells with the values the failures print and say why in the
// change's notes.
var hashTablesHigh = map[int][2]int64{
	1:  {9792, 9792},
	2:  {779142, 779142},
	3:  {397824, 397824},
	4:  {1901540, 1901540},
	5:  {328072, 328072},
	6:  {8256, 8256},
	7:  {3082844, 3082844},
	8:  {636132, 636132},
	9:  {5664816, 5664816},
	10: {1822617, 1436068},
	11: {135216, 135216},
	12: {2696836, 2696836},
	13: {458752, 458752},
	14: {733876, 733876},
	15: {49152, 49152},
	16: {518410, 510785},
	17: {38376, 38376},
	18: {7790560, 7790560},
	19: {315840, 315840},
	20: {296856, 296856},
	21: {10022934, 10022934},
	22: {783664, 783664},
}

// q21Ceiling is the bound on Q21's hash-table peak, the largest of any
// query: its one-key lineitem tables, each a dense index over 1..N order
// keys (the keys freed once it is filled) and its payload blocks.
const q21Ceiling = 10 << 20

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
