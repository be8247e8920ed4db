package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// intermediatesHigh pins Intermediates.High() in bytes — the temp blocks and
// views a run's edges carry — of every TPC-H query at SF 0.05, Workers 1, for
// UoT 1 and UoT = table. A select over a base table emits views, 4 bytes a
// row, so the copy of its projection no longer sets any cell; one with no
// predicate and no LIP filter emits dense views, which cost none. After an
// intended change, replace the cells with the values the failures print and
// say why in the change's notes.
var intermediatesHigh = map[int][2]int64{
	1:  {262020, 1187340},
	2:  {273762, 273762},
	3:  {299568, 786360},
	4:  {262108, 786432},
	5:  {393132, 655196},
	6:  {131072, 131072},
	7:  {553272, 3407040},
	8:  {262144, 262144},
	9:  {393120, 1310400},
	10: {556724, 1048040},
	11: {262144, 262144},
	12: {262132, 262132},
	13: {262144, 327680},
	14: {283916, 283916},
	15: {262144, 262144},
	16: {524284, 786430},
	17: {262144, 262144},
	18: {393216, 1310720},
	19: {163840, 229376},
	20: {262136, 327660},
	21: {458746, 917502},
	22: {262128, 262128},
}

// q09TempCeiling bounds Q09's temp peak at UoT = table, where the whole
// six-column select(lineitem) output waits for probe(part): 13.87 MiB as
// copied rows, about 1.3 MiB as views.
const q09TempCeiling = 2 << 20

// TestIntermediatesHighIsPinned runs the 22 queries × UoT {1, table} and
// checks each run's temp high-water against intermediatesHigh.
func TestIntermediatesHighIsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned at SF 0.05")
	}
	d := tpch.Load(goldenSF, 128<<10, storage.ColumnStore)
	for _, q := range tpch.Numbers() {
		want, ok := intermediatesHigh[q]
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
			got[i] = res.Run.Intermediates.High()
		}
		if got != want {
			t.Errorf("Q%02d: Intermediates.High() {uot 1, table} = %v, pinned %v; new cell: %d: {%d, %d},", q, got, want, q, got[0], got[1])
		}
		if q == 9 && got[1] > q09TempCeiling {
			t.Errorf("Q09: temp blocks peak at %.2f MiB at UoT = table, above %d MiB", float64(got[1])/(1<<20), q09TempCeiling>>20)
		}
	}
}
