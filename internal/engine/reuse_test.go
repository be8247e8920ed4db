// Cross-query reuse equivalence tests: a warm run served (wholly or partly)
// from the result cache must be bit-identical to the cold run that filled it
// — the same SHA-256 over the canonicalized rows, not merely tolerably
// close. This lives in package engine_test next to the golden harness whose
// encoding helpers it shares.
package engine_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/reuse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/types"
)

// TestReuseWarmGoldenTPCH runs every TPC-H query cold and then warm through
// one shared cache. Every warm run must hit (the root result was captured
// for free on the cold run), checksum identically to its cold result, and
// leak nothing.
func TestReuseWarmGoldenTPCH(t *testing.T) {
	d := tpch.Load(0.01, 128<<10, storage.ColumnStore)
	cache := reuse.New(reuse.Config{Budget: 64 << 20})
	opts := engine.Options{Workers: 1, UoTBlocks: 4, TempBlockBytes: 128 << 10, Reuse: cache}

	cold := map[int]string{}
	for _, q := range tpch.Numbers() {
		b := tpch.MustBuild(d, q, tpch.QueryOpts{})
		res, err := engine.Execute(b, opts)
		if err != nil {
			t.Fatalf("Q%02d cold: %v", q, err)
		}
		if res.Run.Reuse().Hit {
			t.Fatalf("Q%02d cold: hit an empty cache", q)
		}
		if rb := res.Run.Robust(); rb.LeakedBlocks != 0 {
			t.Fatalf("Q%02d cold: %d leaked blocks", q, rb.LeakedBlocks)
		}
		cold[q] = checksum(engine.Rows(res.Table))
	}

	for _, q := range tpch.Numbers() {
		b := tpch.MustBuild(d, q, tpch.QueryOpts{})
		res, err := engine.Execute(b, opts)
		if err != nil {
			t.Fatalf("Q%02d warm: %v", q, err)
		}
		u := res.Run.Reuse()
		if !u.Hit || u.SplicedOps == 0 {
			t.Errorf("Q%02d warm: no cache hit (reuse = %+v)", q, u)
		}
		if got := checksum(engine.Rows(res.Table)); got != cold[q] {
			t.Errorf("Q%02d warm: result not bit-identical: %s vs %s", q, got[:12], cold[q][:12])
		}
		if rb := res.Run.Robust(); rb.LeakedBlocks != 0 {
			t.Errorf("Q%02d warm: %d leaked blocks", q, rb.LeakedBlocks)
		}
	}

	ctr := cache.Counters()
	if ctr.Hits < int64(len(tpch.Numbers())) {
		t.Errorf("cache hits = %d, want >= %d", ctr.Hits, len(tpch.Numbers()))
	}
	if ctr.Pins != 0 {
		t.Errorf("%d pins outstanding after drain", ctr.Pins)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
}

func reuseBaseTable(rows int) *storage.Table {
	const format, blockBytes = storage.ColumnStore, 4 << 10
	db := engine.NewDB(blockBytes, format)
	tab := db.CreateTable("t", storage.NewSchema(
		storage.Column{Name: "a", Type: types.Int64},
		storage.Column{Name: "b", Type: types.Int64},
	))
	blk := storage.NewBlock(tab.Schema(), format, blockBytes)
	for i := 0; i < rows; i++ {
		if !blk.AppendRow(types.NewInt64(int64(i%13)), types.NewInt64(int64(i))) {
			tab.Append(blk)
			blk = storage.NewBlock(tab.Schema(), format, blockBytes)
			blk.AppendRow(types.NewInt64(int64(i%13)), types.NewInt64(int64(i)))
		}
	}
	if blk.NumRows() > 0 {
		tab.Append(blk)
	}
	return tab
}

// buildAggPlan builds scan -> agg -> sort(limit) -> collect. Two plans with
// different limits share the scan+agg subtree fingerprint while their roots
// differ — the shape the interior capture/splice path exists for.
func buildAggPlan(tab *storage.Table, limit int) *engine.Builder {
	b := engine.NewBuilder()
	sch := tab.Schema()
	scan := b.ScanSelect(exec.SelectSpec{
		Name: "scan", Base: tab,
		Pred:      expr.Lt(expr.C(sch, "b"), expr.Int(9_000)),
		Proj:      []expr.Expr{expr.C(sch, "a"), expr.C(sch, "b")},
		ProjNames: []string{"a", "b"},
	})
	agg := b.Agg(scan, exec.AggOpSpec{
		Name:         "agg",
		GroupBy:      []expr.Expr{expr.C(scan.Schema, "a")},
		GroupByNames: []string{"a"},
		Aggs:         []exec.AggSpec{{Func: exec.Sum, Arg: expr.C(scan.Schema, "b"), Name: "v"}},
	})
	srt := b.Sort(agg, exec.SortSpec{
		Name:        "sort",
		InputSchema: agg.Schema,
		Terms:       []exec.SortTerm{{Key: expr.C(agg.Schema, "a")}},
		Limit:       limit,
	})
	b.Collect(srt)
	return b
}

// TestReuseInteriorSpliceAndCapture drives the interior path end to end: a
// cold query's capture tap admits its aggregation subtree, and a different
// query sharing that subtree (but not the root) splices the cached result in
// place of the scan+agg pair.
func TestReuseInteriorSpliceAndCapture(t *testing.T) {
	tab := reuseBaseTable(10_000)
	cache := reuse.New(reuse.Config{Budget: 16 << 20})
	opts := engine.Options{Workers: 1, UoTBlocks: 4, TempBlockBytes: 4 << 10, Reuse: cache}

	// Reference result for the second query, computed with no cache at all.
	ref, err := engine.Execute(buildAggPlan(tab, 5), engine.Options{
		Workers: 1, UoTBlocks: 4, TempBlockBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := checksum(engine.Rows(ref.Table))

	res1, err := engine.Execute(buildAggPlan(tab, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	u1 := res1.Run.Reuse()
	if u1.Hit {
		t.Fatal("cold run hit an empty cache")
	}
	if u1.Captured == 0 {
		t.Fatalf("cold run captured nothing (reuse = %+v)", u1)
	}

	res2, err := engine.Execute(buildAggPlan(tab, 5), opts)
	if err != nil {
		t.Fatal(err)
	}
	u2 := res2.Run.Reuse()
	if !u2.Hit {
		t.Fatalf("warm run missed the shared agg subtree (reuse = %+v, cache = %+v)", u2, cache.Counters())
	}
	if u2.SplicedOps != 2 {
		t.Errorf("spliced ops = %d, want 2 (scan+agg)", u2.SplicedOps)
	}
	if got := checksum(engine.Rows(res2.Table)); got != want {
		t.Errorf("warm result not bit-identical to the uncached reference: %s vs %s", got[:12], want[:12])
	}
	if rb := res2.Run.Robust(); rb.LeakedBlocks != 0 {
		t.Errorf("warm run leaked %d blocks", rb.LeakedBlocks)
	}

	if ctr := cache.Counters(); ctr.Pins != 0 {
		t.Errorf("%d pins outstanding after drain", ctr.Pins)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReuseTapAddsNoCheckouts: the interior tap adopts the blocks its
// aggregation emits instead of copying them. A cold run with a cache checks
// out exactly as many pool blocks as a run without one, and the admitted
// interior entry is the block set the aggregation delivered over its tap
// edge.
func TestReuseTapAddsNoCheckouts(t *testing.T) {
	tab := reuseBaseTable(10_000)
	opts := engine.Options{Workers: 1, UoTBlocks: 4, TempBlockBytes: 4 << 10}
	plain, err := engine.Execute(buildAggPlan(tab, 0), opts)
	if err != nil {
		t.Fatal(err)
	}

	cache := reuse.New(reuse.Config{Budget: 16 << 20})
	opts.Reuse = cache
	b := buildAggPlan(tab, 0)
	p := b.Plan()
	aggID := core.OpID(-1)
	for i, op := range p.Ops {
		if _, ok := op.(*exec.AggOp); ok {
			aggID = core.OpID(i)
		}
	}
	fp := reuse.Analyze(p).FP[aggID]
	cold, err := engine.Execute(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cold.Run.Checkouts(), plain.Run.Checkouts(); got != want {
		t.Fatalf("cold run with a cache checked out %d blocks, %d without one", got, want)
	}

	var tap *exec.CollectOp
	for _, e := range p.Edges {
		if c, ok := p.Ops[e.To].(*exec.CollectOp); ok && e.From == aggID && e.Kind == core.Pipelined {
			tap = c
		}
	}
	if tap == nil {
		t.Fatal("no collector taps the aggregation")
	}
	entry := cache.Lookup(fp)
	if entry == nil {
		t.Fatalf("interior entry not admitted (reuse = %+v)", cold.Run.Reuse())
	}
	defer entry.Release()
	got, want := entry.Table().Blocks(), tap.Result().Blocks()
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("entry holds %d blocks, the tap adopted %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry block %d is not the block the aggregation emitted", i)
		}
	}
	rows := int64(-1) // stays -1 if the aggregation recorded no work order
	for _, op := range cold.Run.PerOp() {
		if op.OpID == int(aggID) {
			rows = op.RowsOut
		}
	}
	if entry.Rows() != rows {
		t.Errorf("entry holds %d rows, the aggregation emitted %d", entry.Rows(), rows)
	}
}

// TestReuseTapFaultedRunReleasesAdopted: the sort below the root faults on
// every attempt, after the aggregation's output reached both the sort and the
// interior tap. The failed run must hand every adopted block back to the
// caller's pool and leave no cache entry behind.
func TestReuseTapFaultedRunReleasesAdopted(t *testing.T) {
	tab := reuseBaseTable(10_000)
	var live stats.MemGauge
	pool := storage.NewPool(&live, nil)
	cache := reuse.New(reuse.Config{Budget: 16 << 20})
	tr := trace.New(1 << 12)
	_, err := engine.Execute(buildAggPlan(tab, 0), engine.Options{
		Workers: 1, UoTBlocks: 4, TempBlockBytes: 4 << 10,
		Reuse: cache, Pool: pool, Trace: tr,
		Faults: faults.New(faults.Config{
			Seed:  1,
			Rates: map[faults.Site]float64{faults.SortRun: 1},
			Kinds: []faults.Kind{faults.KindError},
		}),
	})
	if !errors.As(err, new(*faults.Fault)) {
		t.Fatalf("err = %v, want the injected sort fault", err)
	}
	var tapped int64
	for _, run := range tr.Snapshot().Runs {
		for _, e := range run.Edges {
			if e.From == "agg" && e.To == "collect" {
				tapped += e.Blocks
			}
		}
	}
	if tapped == 0 {
		t.Fatal("the tap adopted no blocks before the fault; the test covers nothing")
	}
	if n := pool.Live(); n != 0 {
		t.Errorf("failed run left %d live temp bytes", n)
	}
	if n := pool.PendingPartials(); n != 0 {
		t.Errorf("failed run left %d partial blocks", n)
	}
	if ctr := cache.Counters(); ctr.Entries != 0 || ctr.Pins != 0 {
		t.Errorf("failed run left %d cache entries, %d pins", ctr.Entries, ctr.Pins)
	}
}

// TestReuseDisabledByDefault pins that a nil cache leaves the plan and the
// stats untouched.
func TestReuseDisabledByDefault(t *testing.T) {
	tab := reuseBaseTable(1_000)
	res, err := engine.Execute(buildAggPlan(tab, 0), engine.Options{Workers: 1, UoTBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if u := res.Run.Reuse(); u.Hit || u.Captured != 0 || u.CaptureRej != 0 {
		t.Errorf("reuse stats populated without a cache: %+v", u)
	}
}

// TestReuseHitOnFailedRunReleasesPins: a warm plan whose run fails after the
// reuse probe spliced a cached entry in must not leave that entry pinned (an
// entry pinned forever can never be evicted, and Close reports the leak), and
// the entry keeps serving later runs.
func TestReuseHitOnFailedRunReleasesPins(t *testing.T) {
	tab := reuseBaseTable(10_000)
	cache := reuse.New(reuse.Config{Budget: 16 << 20})
	opts := engine.Options{Workers: 1, UoTBlocks: 4, TempBlockBytes: 4 << 10, Reuse: cache}
	if _, err := engine.Execute(buildAggPlan(tab, 0), opts); err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	bad := opts
	bad.Context = canceled
	if _, err := engine.Execute(buildAggPlan(tab, 0), bad); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute under a canceled context: err = %v, want context.Canceled", err)
	}
	if ctr := cache.Counters(); ctr.Hits == 0 || ctr.Pins != 0 {
		t.Errorf("failed warm run: hits %d, %d pins outstanding (want a hit and no pins)", ctr.Hits, ctr.Pins)
	}

	res, err := engine.Execute(buildAggPlan(tab, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Run.Reuse().Hit {
		t.Errorf("run after the failed one missed the warm root entry (reuse = %+v)", res.Run.Reuse())
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
}
