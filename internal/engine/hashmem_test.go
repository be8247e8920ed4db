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
	2:  {588686, 588686},
	3:  {229092, 229092},
	4:  {1819620, 1819620},
	5:  {104812, 104812},
	6:  {8256, 8256},
	7:  {1851448, 1851448},
	8:  {125916, 125916},
	9:  {2862760, 2862760},
	10: {1123333, 1123333},
	11: {135216, 135216},
	12: {2336431, 2336431},
	13: {458752, 458752},
	14: {427999, 427999},
	15: {49152, 49152},
	16: {510785, 510785},
	17: {9216, 9216},
	18: {7790560, 7790560},
	19: {132004, 132004},
	20: {129008, 129008},
	21: {8325430, 8325430},
	22: {632112, 632112},
}

// q21Ceiling is the bound on Q21's hash-table peak, the largest of any
// query: its one-key lineitem tables, each a dense index over 1..N order
// keys (the keys freed once it is filled) and its payload blocks, all in
// one writer shard at Workers 1.
const q21Ceiling = 8 << 20

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
