package engine_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/types"
)

// TestDirtyBuffersMatchGolden runs the TPC-H queries at UoT 1 and UoT = table
// in one process, forward and then reversed, so that every temp block of the
// second pass is laid over an allocation another query's blocks left dirty
// on the freelist. UoT 1 must reproduce the golden checksums exactly; UoT =
// table, which has no golden cell, must return the golden row counts, agree
// with UoT 1 within the golden harness's float tolerance, and hash the same
// in both passes.
func TestDirtyBuffersMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("SF 0.05 golden run")
	}
	golden := loadGolden(t)
	d := tpch.Load(goldenSF, 128<<10, storage.ColumnStore)
	run := func(q, uot int) [][]types.Datum {
		b, err := tpch.Build(d, q, tpch.QueryOpts{})
		if err != nil {
			t.Fatalf("Q%d: build: %v", q, err)
		}
		res, err := engine.Execute(b, engine.Options{Workers: 1, UoTBlocks: uot, TempBlockBytes: 128 << 10})
		if err != nil {
			t.Fatalf("Q%d uot=%d: execute: %v", q, uot, err)
		}
		return engine.Rows(res.Table)
	}
	tableSums := map[int]string{}
	qs := tpch.Numbers()
	rev := slices.Clone(qs)
	slices.Reverse(rev)
	for pass, order := range [][]int{qs, rev} {
		for _, q := range order {
			ref := run(q, 1)
			want := golden[goldenKey(q, 1, "row")]
			if got := checksum(ref); got != want.Checksum {
				t.Errorf("pass %d Q%02d uot=1: checksum %s, golden %s", pass, q, got[:12], want.Checksum[:12])
			}
			rows := run(q, core.UoTTable)
			if len(rows) != want.Rows {
				t.Errorf("pass %d Q%02d uot=table: %d rows, golden %d", pass, q, len(rows), want.Rows)
			} else if err := approxEqualRows(ref, rows); err != nil {
				t.Errorf("pass %d Q%02d uot=table: disagrees with uot=1: %v", pass, q, err)
			}
			sum := checksum(rows)
			if pass == 0 {
				tableSums[q] = sum
			} else if sum != tableSums[q] {
				t.Errorf("Q%02d uot=table: pass 1 hashes %s, pass 0 %s", q, sum[:12], tableSums[q][:12])
			}
		}
	}
}

// TestWarmRoundHeapAlloc pins the heap one warm round of the TPC-H queries
// allocates at SF 0.05, UoT 1, Workers 1 — plan building, execution and
// result rows together. Temp blocks recycled through the freelist keep it
// well under what one fresh 128 KiB block per checkout costs.
func TestWarmRoundHeapAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("SF 0.05 round")
	}
	const limitMiB = 160
	d := tpch.Load(goldenSF, 128<<10, storage.ColumnStore)
	round := func() {
		for _, q := range tpch.Numbers() {
			b, err := tpch.Build(d, q, tpch.QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := engine.Execute(b, engine.Options{Workers: 1, UoTBlocks: 1, TempBlockBytes: 128 << 10}); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("warm round allocates %.1f MiB", mib)
	if mib > limitMiB {
		t.Fatalf("warm round allocates %.1f MiB, want <= %d", mib, limitMiB)
	}
}
