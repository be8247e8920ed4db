package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// TestPressureLadderInvariantTPCH: under a 1-byte MemoryBudget every
// block-producing work order is held, so the memory-pressure ladder moves
// edges mid-run on every query. It is the only thing that may move them:
// each edge ends either Raises doublings above its start or, after one snap,
// at UoTTable; the per-edge counts add up to the run's robustness counters;
// and the rows equal the unbudgeted Workers 1 run, whose edges never leave
// their start.
func TestPressureLadderInvariantTPCH(t *testing.T) {
	d := tpch.Load(0.01, 128<<10, storage.ColumnStore)
	var suiteRaises int64
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
		for _, e := range ref.Run.EdgeUoTs() {
			start := e.Declared
			if start == 0 {
				start = 1
			}
			if e.Start != start || e.Final != start || e.Raises+e.Snaps != 0 {
				t.Errorf("Q%02d: unbudgeted edge moved: %+v", q, e)
			}
		}

		res := run(engine.Options{Workers: 2, MemoryBudget: 1})
		var raises, snaps int64
		for _, e := range res.Run.EdgeUoTs() {
			raises += e.Raises
			snaps += e.Snaps
			doubled := e.Snaps == 0 && e.Final == e.Start<<e.Raises
			snapped := e.Snaps == 1 && e.Final == core.UoTTable
			if !doubled && !snapped {
				t.Errorf("Q%02d: edge %s->%s is off the ladder: %+v", q, e.FromName, e.ToName, e)
			}
		}
		suiteRaises += raises
		if r := res.Run.Robust(); raises != r.UoTRaises || snaps != r.UoTSnaps {
			t.Errorf("Q%02d: edges sum to %d raises / %d snaps, run counted %d / %d",
				q, raises, snaps, r.UoTRaises, r.UoTSnaps)
		}
		if err := approxEqualRows(engine.Rows(ref.Table), engine.Rows(res.Table)); err != nil {
			t.Errorf("Q%02d: budgeted Workers 2 rows differ from the unbudgeted Workers 1 run: %v", q, err)
		}
	}
	t.Logf("%d pressure raises across the suite", suiteRaises)
	if suiteRaises == 0 {
		t.Fatal("the 1-byte budget never moved an edge: the invariant went unexercised")
	}
}
