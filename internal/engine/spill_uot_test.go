package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// TestSpillTierKeepsEdgeUoTsTPCH: every query run at Workers 2 over a pool
// whose spill tier evicts every cooled block (threshold 1 B) returns the rows
// of its Workers 1 in-RAM run, with every edge at its resolved UoT and no
// leaked block. The tier spills for real, and each run leaves it with no live
// extent bytes and no tracked block.
func TestSpillTierKeepsEdgeUoTsTPCH(t *testing.T) {
	d := tpch.Load(0.05, 128<<10, storage.ColumnStore)
	pool := storage.NewPool(new(stats.MemGauge), nil)
	if err := pool.EnableSpill(storage.SpillConfig{Dir: t.TempDir(), Threshold: 1}); err != nil {
		t.Fatal(err)
	}
	defer pool.CloseSpill()
	for _, q := range tpch.Numbers() {
		run := func(opts engine.Options) *engine.Result {
			t.Helper()
			b, err := tpch.Build(d, q, tpch.QueryOpts{})
			if err != nil {
				t.Fatalf("Q%02d: build: %v", q, err)
			}
			opts.UoTBlocks, opts.TempBlockBytes = 1, 128<<10
			res, err := engine.Execute(b, opts)
			if err != nil {
				t.Fatalf("Q%02d: %+v: %v", q, opts, err)
			}
			return res
		}
		ref := run(engine.Options{Workers: 1})
		res := run(engine.Options{Workers: 2, Pool: pool})
		for _, e := range res.Run.EdgeUoTs() {
			start := max(e.Declared, 1) // UoTBlocks is 1
			if e.UoT != start {
				t.Errorf("Q%02d: edge %s->%s ended at UoT %d, want its resolved start %d: %+v",
					q, e.FromName, e.ToName, e.UoT, start, e)
			}
		}
		if err := approxEqualRows(engine.Rows(ref.Table), engine.Rows(res.Table)); err != nil {
			t.Errorf("Q%02d: spilled Workers 2 rows differ from the in-RAM Workers 1 run: %v", q, err)
		}
		if rb := res.Run.Robust(); rb.LeakedBlocks != 0 || rb.LeakedBytes != 0 {
			t.Errorf("Q%02d: %d leaked blocks, %d leaked bytes", q, rb.LeakedBlocks, rb.LeakedBytes)
		}
		if sp := pool.SpillCounters(); sp.DiskLive != 0 || sp.Outstanding != 0 {
			t.Errorf("Q%02d: spill tier not drained: %d B on disk, %d blocks tracked", q, sp.DiskLive, sp.Outstanding)
		}
	}
	sp := pool.SpillCounters()
	t.Logf("spill tier: %d blocks (%.1f MiB) out, %d blocks in", sp.BlocksOut, float64(sp.BytesOut)/(1<<20), sp.BlocksIn)
	if sp.BlocksOut == 0 {
		t.Fatal("nothing spilled at threshold 1 B: the check is vacuous")
	}
}
