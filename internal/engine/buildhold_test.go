package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/hashtable"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

// buildInput is what factBuildPlan's select hands its build.
type buildInput string

const (
	listedIn buildInput = "listed" // listed views of the fact rows with v >= 10
	denseIn  buildInput = "dense"  // dense views of every fact row: no predicate
	copiedIn buildInput = "copied" // temp blocks: the select computes v as v * 1
)

// factBuildPlan joins dim (probe side) to fact rows (build side): the
// build's input is a select over fact, of the kind in says. The build keys
// on k and carries (v, grp), which a view holds in base columns 2 and 1; the
// probe keeps the pairs with v >= 20 through a residual over the payload and
// emits (w, v, grp), summed per grp. It returns the builder, the build
// operator and the build's input node.
func factBuildPlan(fact, dim *storage.Table, in buildInput) (*Builder, *exec.BuildHashOp, *Node) {
	b := NewBuilder()
	fs, ds := fact.Schema(), dim.Schema()
	var v expr.Expr = expr.C(fs, "v")
	if in == copiedIn {
		v = expr.MulE(v, expr.Float(1))
	}
	var pred expr.Expr
	if in != denseIn {
		pred = expr.Ge(expr.C(fs, "v"), expr.Float(10))
	}
	selFact := b.ScanSelect(exec.SelectSpec{
		Name: "sel_fact", Base: fact,
		Pred:      pred,
		Proj:      []expr.Expr{expr.C(fs, "grp"), expr.C(fs, "k"), v},
		ProjNames: []string{"grp", "k", "v"},
	})
	bld, bop := b.Build(selFact, exec.BuildSpec{
		Name: "build_fact", KeyCols: []int{1}, Payload: []int{2, 0},
	})
	selDim := b.ScanSelect(exec.SelectSpec{
		Name: "sel_dim", Base: dim,
		Proj:      []expr.Expr{expr.C(ds, "k"), expr.C(ds, "w")},
		ProjNames: []string{"k", "w"},
	})
	probe := b.Probe(selDim, bld, exec.ProbeSpec{
		Name: "probe_fact", KeyCols: []int{0},
		Residual:  expr.Ge(expr.C2(bop.PayloadSchema(), "v"), expr.Float(20)),
		ProbeProj: []int{1}, BuildProj: []int{0, 1},
	})
	agg := b.Agg(probe, exec.AggOpSpec{
		Name:         "agg",
		GroupBy:      []expr.Expr{expr.C(probe.Schema, "grp")},
		GroupByNames: []string{"grp"},
		Aggs: []exec.AggSpec{
			{Func: exec.Count, Name: "cnt"},
			{Func: exec.Sum, Arg: expr.C(probe.Schema, "v"), Name: "sv"},
			{Func: exec.Sum, Arg: expr.C(probe.Schema, "w"), Name: "sw"},
		},
	})
	b.Collect(b.Sort(agg, exec.SortSpec{Name: "sort", Terms: []exec.SortTerm{{Key: expr.C(agg.Schema, "grp")}}}))
	return b, bop, selFact
}

// wantFactBuild is factBuildPlan's result, per grp: count, sum(v), sum(w).
func wantFactBuild() string {
	var out [5][3]float64
	for i := 200; i < 1000; i++ { // v = i/10 >= 20
		if k := i % 100; k < 50 {
			e := &out[i%5]
			e[0]++
			e[1] += float64(i) / 10
			e[2] += float64(2 * k)
		}
	}
	return fmt.Sprintf("%.6f", out)
}

// gotFactBuild renders a factBuildPlan result like wantFactBuild.
func gotFactBuild(t *testing.T, res *storage.Table) string {
	t.Helper()
	var out [5][3]float64
	for _, r := range Rows(res) {
		out[r[0].I] = [3]float64{r[1].Float(), r[2].Float(), r[3].Float()}
	}
	return fmt.Sprintf("%.6f", out)
}

// checkResolvesTo probes the build's table with every fact key and checks
// there are n matches, each resolving to a row of one of the given blocks
// holding that key (fact's column 0 in a base block, column 1 in a temp
// block).
func checkResolvesTo(t *testing.T, bop *exec.BuildHashOp, blocks []*storage.Block, keyCol, n int) {
	t.Helper()
	ht := bop.HT()
	keys := make([]int64, 100)
	for k := range keys {
		keys[k] = int64(k)
	}
	var m hashtable.Matches
	ht.Match(keys, nil, false, &m)
	if len(m.Ref) != n {
		t.Fatalf("%d matches, want the %d build rows", len(m.Ref), n)
	}
	for i, ref := range m.Ref {
		pb, row := ht.Payload(ref)
		if !slices.Contains(blocks, pb) || pb.Int64At(keyCol, row) != keys[m.Probe[i]] {
			t.Fatalf("match %d (key %d) resolves to row %d of a block that is not its input, or holds another key", i, keys[m.Probe[i]], row)
		}
	}
}

// TestBuildHoldsBaseSelectViews: a build fed by a base-table select keeps
// the select's views, listed or dense. Nothing on that edge is
// materialized: every entry of the table resolves to its base row in a fact
// block, and the payload and residual columns are read there through the
// view's projection. The join is right, and the run ends with no live pool
// or hash-table bytes and no leaks.
func TestBuildHoldsBaseSelectViews(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 4<<10)
	for _, in := range []buildInput{listedIn, denseIn} {
		for _, workers := range []int{1, 4} {
			for _, uot := range []int{1, core.UoTTable} {
				testBuildHoldsViews(t, fact, dim, in, workers, uot)
			}
		}
	}
}

func testBuildHoldsViews(t *testing.T, fact, dim *storage.Table, in buildInput, workers, uot int) {
	var live stats.MemGauge
	b, bop, _ := factBuildPlan(fact, dim, in)
	res, err := Execute(b, Options{Workers: workers, UoTBlocks: uot, TempBlockBytes: 4 << 10, Pool: storage.NewPool(&live, nil)})
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%s views, workers %d, uot %d", in, workers, uot)
	if got, want := gotFactBuild(t, res.Table), wantFactBuild(); got != want {
		t.Fatalf("%s: result %s, want %s", name, got, want)
	}
	rows := 900
	if in == denseIn {
		rows = 1000
	}
	checkResolvesTo(t, bop, fact.Blocks(), 0, rows)
	if r := res.Run.Robust(); live.Live() != 0 || res.Run.HashTables.Live() != 0 || r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
		t.Fatalf("%s: %d live pool bytes, %d live hash-table bytes, leaks %+v", name, live.Live(), res.Run.HashTables.Live(), r)
	}
	held := int64(4 * rows) // a listed view's rows, cut to its rows; none in a dense view
	if in == denseIn {
		held = 0
	}
	if high, index := res.Run.HashTables.High(), bop.HT().TotalBytes(); high < index+held {
		t.Fatalf("%s: HashTables peaked at %d B, below the index's %d B and the held views' %d B", name, high, index, held)
	}
}

// TestTappedBuildInputIsMaterialized: a build input a collector also adopts
// (a reuse tap) is materialized for the collector, so the table indexes the
// tapped temp blocks, not the fact blocks. The join is right, and after the
// build released its refs the tap still holds every row, while the pool
// counts no live bytes: the run handed the tap's blocks out of it.
func TestTappedBuildInputIsMaterialized(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 4<<10)
	for _, uot := range []int{1, core.UoTTable} {
		var live stats.MemGauge
		b, bop, sel := factBuildPlan(fact, dim, listedIn)
		tap := exec.NewCollect(sel.Schema, 4<<10, storage.ColumnStore)
		b.plan.Pipe(sel.ID, exec.AddOp(b.plan, tap), 0, 1)
		res, err := Execute(b, Options{Workers: 1, UoTBlocks: uot, TempBlockBytes: 4 << 10, Pool: storage.NewPool(&live, nil)})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := gotFactBuild(t, res.Table), wantFactBuild(); got != want {
			t.Fatalf("uot %d: result %s, want %s", uot, got, want)
		}
		tapped := tap.Result().Blocks()
		checkResolvesTo(t, bop, tapped, 1, 900)
		n := 0
		for _, blk := range tapped {
			if blk.IsView() {
				t.Fatalf("uot %d: the tap holds a view", uot)
			}
			for r := range blk.NumRows() {
				i := 100 + n
				if blk.Int64At(0, r) != int64(i%5) || blk.Int64At(1, r) != int64(i%100) || blk.Float64At(2, r) != float64(i)/10 {
					t.Fatalf("uot %d: tapped row %d is (%v, %v, %v)", uot, n, blk.Int64At(0, r), blk.Int64At(1, r), blk.Float64At(2, r))
				}
				n++
			}
		}
		if n != 900 || live.Live() != 0 {
			t.Fatalf("uot %d: the tap holds %d rows; %d live pool bytes after the run handed it over", uot, n, live.Live())
		}
	}
}

// cancelAfterPolls is a context canceled by the n-th poll of its Done
// channel: the scheduler polls at every dispatch step, work-order start and
// block checkout, so sweeping n cancels a run at each of those points.
type cancelAfterPolls struct {
	context.Context
	polls  atomic.Int64
	n      int64
	cancel context.CancelFunc
}

func (c *cancelAfterPolls) Done() <-chan struct{} {
	if c.polls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Done()
}

// TestHeldBuildInputsLeakNothing: the zero-leak invariant holds while builds
// hold their inputs until their probes end, over listed and dense views and
// over temp blocks: under HashInsert faults at rate 0.25 the join is right;
// a cancellation at every point of the run, mid-probe included, ends with no
// live pool or hash-table bytes and no leaked block; and with a RAM tier at
// 1/8 of the temp peak the spill tier evicts and faults blocks in but never
// a block a reader holds.
func TestHeldBuildInputsLeakNothing(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 4<<10)
	want := wantFactBuild()
	clean := func(t *testing.T, name string, live *stats.MemGauge, run *stats.Run) {
		t.Helper()
		if r := run.Robust(); live.Live() != 0 || run.HashTables.Live() != 0 || r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
			t.Fatalf("%s: %d live pool bytes, %d live hash-table bytes, leaks %+v", name, live.Live(), run.HashTables.Live(), r)
		}
	}
	t.Run("HashInsert faults", func(t *testing.T) {
		var injected int64
		for _, in := range []buildInput{listedIn, denseIn, copiedIn} {
			for _, workers := range []int{1, 4} {
				for _, uot := range []int{1, core.UoTTable} {
					for seed := uint64(1); seed <= 3; seed++ {
						var live stats.MemGauge
						inj := faults.New(faults.Config{Seed: seed, Rates: map[faults.Site]float64{faults.HashInsert: 0.25}})
						b, _, _ := factBuildPlan(fact, dim, in)
						res, err := Execute(b, Options{Workers: workers, UoTBlocks: uot, TempBlockBytes: 4 << 10, Faults: inj, Pool: storage.NewPool(&live, nil)})
						name := fmt.Sprintf("%s input, workers %d, uot %d, seed %d", in, workers, uot, seed)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if got := gotFactBuild(t, res.Table); got != want {
							t.Fatalf("%s: result %s, want %s", name, got, want)
						}
						clean(t, name, &live, res.Run)
						injected += inj.Injected()
					}
				}
			}
		}
		if injected == 0 {
			t.Fatal("no fault fired; the test is vacuous")
		}
	})
	t.Run("cancel", func(t *testing.T) {
		for _, in := range []buildInput{listedIn, denseIn, copiedIn} {
			midProbe := 0
			for n := int64(1); ; n++ {
				var live stats.MemGauge
				cx, cancel := context.WithCancel(context.Background())
				b, _, _ := factBuildPlan(fact, dim, in)
				res, err := Execute(b, Options{Workers: 1, UoTBlocks: 1, TempBlockBytes: 4 << 10, TempFormat: storage.ColumnStore,
					Context: &cancelAfterPolls{Context: cx, n: n, cancel: cancel}, Pool: storage.NewPool(&live, nil)})
				cancel()
				name := fmt.Sprintf("%s input, canceled at poll %d", in, n)
				clean(t, name, &live, res.Run)
				if err == nil {
					break // the run finished before the n-th poll
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: %v, want a cancellation", name, err)
				}
				probed, built := false, false
				for _, o := range res.Run.PerOp() {
					probed = probed || o.Name == "probe_fact" && o.Count > 0
					built = built || o.Name == "build_fact" && o.Count > 0
				}
				if built && probed {
					midProbe++
				}
			}
			if midProbe == 0 {
				t.Fatalf("%s input: no cancellation landed while the probe ran", in)
			}
		}
	})
	t.Run("RAM tier at 1/8", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			var live stats.MemGauge
			b, _, _ := factBuildPlan(fact, dim, copiedIn)
			base, err := Execute(b, Options{Workers: 1, UoTBlocks: core.UoTTable, TempBlockBytes: 4 << 10, Pool: storage.NewPool(&live, nil)})
			if err != nil {
				t.Fatal(err)
			}
			pool, dir := spillPool(t, nil)
			if err := pool.CloseSpill(); err != nil {
				t.Fatal(err)
			}
			if err := pool.EnableSpill(storage.SpillConfig{Dir: dir, Threshold: base.Run.Intermediates.High() / 8}); err != nil {
				t.Fatal(err)
			}
			b, _, _ = factBuildPlan(fact, dim, copiedIn)
			res, err := Execute(b, Options{Workers: workers, UoTBlocks: core.UoTTable, TempBlockBytes: 4 << 10, TempFormat: storage.ColumnStore, Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("workers %d", workers)
			sp := pool.SpillCounters()
			if got := gotFactBuild(t, res.Table); got != want {
				t.Fatalf("%s: result %s, want %s", name, got, want)
			}
			if sp.BadEvicts != 0 || sp.BlocksOut == 0 || sp.BlocksIn == 0 || sp.Outstanding != 0 {
				t.Fatalf("%s: spill counters %+v: want traffic both ways, no bad evict, nothing tracked after", name, sp)
			}
			if r := res.Run.Robust(); pool.Live() != 0 || r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
				t.Fatalf("%s: %d live pool bytes, leaks %+v", name, pool.Live(), r)
			}
			closeTier(t, pool, dir)
		}
	})
}

// gaugeOp is an operator with no input and no work: its Start reads the
// run's live hash-table bytes.
type gaugeOp struct {
	core.Base
	live int64
}

func (g *gaugeOp) Name() string { return "gauge" }
func (g *gaugeOp) Start(ctx *core.ExecCtx) []core.WorkOrder {
	g.live = ctx.Run.HashTables.Live()
	return nil
}

// TestSharedTableCountsUntilLastProbe: two probes read one join table (Q20's
// build(part) does), the second starting only once the first has finished.
// Between them the table still counts in HashTables, index and held inputs
// both, at the build's peak; it leaves the gauge when the second ends.
func TestSharedTableCountsUntilLastProbe(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 4<<10)
	b := NewBuilder()
	fs, ds := fact.Schema(), dim.Schema()
	bld, bop := b.Build(b.ScanSelect(exec.SelectSpec{
		Name: "sel_fact", Base: fact,
		Proj:      []expr.Expr{expr.C(fs, "grp"), expr.C(fs, "k")},
		ProjNames: []string{"grp", "k"},
	}), exec.BuildSpec{Name: "build_fact", KeyCols: []int{1}, Payload: []int{0}})
	probe := func(name string) (*Node, *Node) {
		sel := b.ScanSelect(exec.SelectSpec{Name: "sel_" + name, Base: dim,
			Proj: []expr.Expr{expr.C(ds, "k")}, ProjNames: []string{"k"}})
		return sel, b.Probe(sel, bld, exec.ProbeSpec{Name: name, KeyCols: []int{0}, ProbeProj: []int{0}, BuildProj: []int{0}})
	}
	// The first probe's rows end in a sort, which keeps no hash table, so
	// the table and its held inputs are all HashTables ever holds.
	_, first := probe("probe1")
	sorted := b.Sort(first, exec.SortSpec{Name: "sort", Terms: []exec.SortTerm{{Key: expr.C(first.Schema, "k")}}})
	gauge := &gaugeOp{}
	between := &Node{ID: exec.AddOp(b.plan, gauge)}
	b.Gate(sorted, between)
	sel2, second := probe("probe2")
	b.Gate(between, sel2)
	b.Collect(second)
	res, err := Execute(b, Options{Workers: 1, UoTBlocks: 1, TempBlockBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Rows(res.Table)); got != 500 {
		t.Fatalf("second probe: %d rows, want 500", got)
	}
	index := bop.HT().TotalBytes()
	if high := res.Run.HashTables.High(); gauge.live != high || index == 0 {
		t.Fatalf("between the probes HashTables holds %d bytes, want the build's peak %d (its index is %d)", gauge.live, high, index)
	}
	if r := res.Run.Robust(); res.Run.HashTables.Live() != 0 || r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
		t.Fatalf("after the run: %d live hash-table bytes, leaks %+v", res.Run.HashTables.Live(), r)
	}
}

// viewSpy stands in for a sort in its plan and counts the views fed to it.
type viewSpy struct {
	*exec.SortOp
	views atomic.Int64
}

func (v *viewSpy) Feed(ctx *core.ExecCtx, input int, blocks []*storage.Block) []core.WorkOrder {
	for _, b := range blocks {
		if b.IsView() {
			v.views.Add(1)
		}
	}
	return v.SortOp.Feed(ctx, input, blocks)
}

// selectFact adds the base-table select of the fact rows with v >= 10,
// which emits views of the fact blocks.
func selectFact(b *Builder, fact *storage.Table) *Node {
	fs := fact.Schema()
	return b.ScanSelect(exec.SelectSpec{
		Name: "sel_fact", Base: fact,
		Pred:      expr.Ge(expr.C(fs, "v"), expr.Float(10)),
		Proj:      []expr.Expr{expr.C(fs, "grp"), expr.C(fs, "k"), expr.C(fs, "v")},
		ProjNames: []string{"grp", "k", "v"},
	})
}

// selectSortPlan sorts selectFact's rows by k, then by v descending,
// straight out of the select. A viewSpy stands in for the sort.
func selectSortPlan(fact *storage.Table) (*Builder, *viewSpy) {
	b := NewBuilder()
	sel := selectFact(b, fact)
	srt := b.Sort(sel, exec.SortSpec{Name: "sort", Terms: []exec.SortTerm{
		{Key: expr.C(sel.Schema, "k")}, {Key: expr.C(sel.Schema, "v"), Desc: true},
	}})
	spy := &viewSpy{SortOp: srt.op.(*exec.SortOp)}
	b.plan.Ops[srt.ID] = spy
	b.Collect(srt)
	return b, spy
}

// TestSortHoldsMaterializedSelectViews: a sort keeps its fed blocks until it
// finishes and merges out of them in place, so the views a base-table
// select emits reach it materialized. Its rows are the select's own rows
// sorted, no block fed to it is a view, and the run ends with no live pool
// bytes and no leaks, at Workers 1 and 4, UoT 1 and table, in RAM and with a
// RAM tier at 1/8 of the run's temp peak, where the tier evicts the
// materialized blocks but never one a reader holds.
func TestSortHoldsMaterializedSelectViews(t *testing.T) {
	_, fact, _ := fixture(t, storage.ColumnStore, 4<<10)
	ref := NewBuilder()
	ref.Collect(selectFact(ref, fact))
	res, err := Execute(ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res.Table)
	slices.SortFunc(rows, func(a, b []types.Datum) int {
		if c := cmp.Compare(a[1].I, b[1].I); c != 0 {
			return c
		}
		return cmp.Compare(b[2].Float(), a[2].Float())
	})
	var want []string
	for _, r := range rows {
		want = append(want, FormatRow(r))
	}
	if len(want) != 900 {
		t.Fatalf("the select finds %d rows, want 900", len(want))
	}
	var evicted int64
	for _, workers := range []int{1, 4} {
		for _, uot := range []int{1, core.UoTTable} {
			var peak int64
			for _, tier := range []bool{false, true} {
				name := fmt.Sprintf("workers %d, uot %d, tier %v", workers, uot, tier)
				pool, dir := storage.NewPool(new(stats.MemGauge), nil), ""
				if tier {
					pool, dir = spillPool(t, nil)
					if err := pool.CloseSpill(); err != nil {
						t.Fatal(err)
					}
					if err := pool.EnableSpill(storage.SpillConfig{Dir: dir, Threshold: peak / 8}); err != nil {
						t.Fatal(err)
					}
				}
				b, spy := selectSortPlan(fact)
				res, err := Execute(b, Options{Workers: workers, UoTBlocks: uot, TempBlockBytes: 4 << 10, Pool: pool})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var got []string
				for _, r := range Rows(res.Table) {
					got = append(got, FormatRow(r))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %d rows, not the select's %d rows sorted", name, len(got), len(want))
				}
				if n := spy.views.Load(); n != 0 {
					t.Fatalf("%s: the sort was fed %d views", name, n)
				}
				if r := res.Run.Robust(); pool.Live() != 0 || r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
					t.Fatalf("%s: %d live pool bytes, leaks %+v", name, pool.Live(), r)
				}
				if !tier {
					peak = res.Run.Intermediates.High()
					continue
				}
				sp := pool.SpillCounters()
				if sp.BadEvicts != 0 || sp.Outstanding != 0 {
					t.Fatalf("%s: spill counters %+v: want no bad evict, nothing tracked after", name, sp)
				}
				evicted += sp.BlocksOut
				closeTier(t, pool, dir)
			}
		}
	}
	if evicted == 0 {
		t.Fatal("the RAM tier never evicted a block; the tier runs are vacuous")
	}
}
