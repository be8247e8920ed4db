package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// TestMemoryBudgetKeepsEdgeUoTsTPCH: under a 1-byte MemoryBudget at Workers 2
// every block-producing work order is held while another job is in flight,
// on every query. Holding is the budget's only mechanism: every edge ends the
// run at its resolved UoT, the rows equal the unbudgeted Workers 1 run, and
// the suite's summed intermediate high-water is no higher than the
// unbudgeted Workers 2 run's.
func TestMemoryBudgetKeepsEdgeUoTsTPCH(t *testing.T) {
	d := tpch.Load(0.05, 128<<10, storage.ColumnStore)
	var budgetedHigh, freeHigh int64
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
		free := run(engine.Options{Workers: 2})
		res := run(engine.Options{Workers: 2, MemoryBudget: 1})
		for _, e := range res.Run.EdgeUoTs() {
			start := max(e.Declared, 1) // UoTBlocks is 1
			if e.UoT != start {
				t.Errorf("Q%02d: edge %s->%s ended at UoT %d, want its resolved start %d: %+v",
					q, e.FromName, e.ToName, e.UoT, start, e)
			}
		}
		if err := approxEqualRows(engine.Rows(ref.Table), engine.Rows(res.Table)); err != nil {
			t.Errorf("Q%02d: budgeted Workers 2 rows differ from the unbudgeted Workers 1 run: %v", q, err)
		}
		budgetedHigh += res.Run.Intermediates.High()
		freeHigh += free.Run.Intermediates.High()
	}
	t.Logf("Σ intermediate high-water: %.1f MiB under a 1 B budget, %.1f MiB unbudgeted",
		float64(budgetedHigh)/(1<<20), float64(freeHigh)/(1<<20))
	if budgetedHigh > freeHigh {
		t.Fatalf("Σ intermediate high-water under a 1 B budget is %d B, above the unbudgeted %d B",
			budgetedHigh, freeHigh)
	}
}
