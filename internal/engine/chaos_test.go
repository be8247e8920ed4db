package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/types"
)

// chaosOpts returns execution options with the given injector; the
// scheduler's 8-attempt retry bound keeps transient injected faults at
// chaos rates from failing the query.
func chaosOpts(inj *faults.Injector, workers int) Options {
	return Options{
		Workers:        workers,
		UoTBlocks:      1,
		TempBlockBytes: 4 << 10,
		Faults:         inj,
	}
}

func allSiteRates(rate float64) map[faults.Site]float64 {
	m := map[faults.Site]float64{}
	for _, s := range faults.Sites() {
		m[s] = rate
	}
	return m
}

// mustRows executes the plan and returns its sorted rows.
func mustRows(t *testing.T, b *Builder, opts Options, label string) ([][]types.Datum, *Result) {
	t.Helper()
	res, err := Execute(b, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rows := Rows(res.Table)
	SortRows(rows)
	return rows, res
}

// sameRows compares result sets exactly, except Float64 columns, which get a
// small relative tolerance: retried runs may legitimately sum float
// aggregates in a different order than the fault-free baseline.
func sameRows(a, b [][]types.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Ty == types.Float64 && y.Ty == types.Float64 {
				diff, scale := x.F-y.F, 1.0
				if ax := x.F; ax < 0 {
					ax = -ax
					if ax > scale {
						scale = ax
					}
				} else if ax > scale {
					scale = ax
				}
				if diff < 0 {
					diff = -diff
				}
				if diff > 1e-6*scale {
					return false
				}
				continue
			}
			if types.Compare(x, y) != 0 {
				return false
			}
		}
	}
	return true
}

func buildSelectPlan(fact *storage.Table) *Builder {
	b := NewBuilder()
	fs := fact.Schema()
	sel := b.ScanSelect(exec.SelectSpec{
		Name: "sel_fact", Base: fact,
		Pred:      expr.Lt(expr.C(fs, "v"), expr.Float(50)),
		Proj:      []expr.Expr{expr.C(fs, "k"), expr.C(fs, "v")},
		ProjNames: []string{"k", "v"},
	})
	b.Collect(sel)
	return b
}

// TestRetryIdempotence is the satellite-4 contract: a plan executed under
// injected faults — work orders failing, rolling back, and retrying —
// produces results identical to the fault-free run, for a pure select, a
// build+probe join with aggregation, and across several seeds. Nothing may
// leak.
func TestRetryIdempotence(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 4<<10)

	plans := []struct {
		name  string
		build func() *Builder
	}{
		{"select", func() *Builder { return buildSelectPlan(fact) }},
		{"join-probe-agg", func() *Builder { return buildJoinAggPlan(fact, dim) }},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			base, _ := mustRows(t, p.build(), Options{
				Workers: 2, UoTBlocks: 1, TempBlockBytes: 4 << 10,
			}, "fault-free")
			if len(base) == 0 {
				t.Fatal("fault-free baseline is empty")
			}
			var injected int64
			for seed := uint64(1); seed <= 5; seed++ {
				inj := faults.New(faults.Config{
					Seed:       seed,
					Rates:      allSiteRates(0.05),
					MaxLatency: 50 * time.Microsecond,
				})
				rows, res := mustRows(t, p.build(), chaosOpts(inj, 2), "chaos")
				if !sameRows(base, rows) {
					t.Fatalf("seed %d: chaos result differs from fault-free baseline", seed)
				}
				r := res.Run.Robust()
				if r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
					t.Fatalf("seed %d: leaks after chaos run: %+v", seed, r)
				}
				if r.FaultsInjected != int64(inj.Injected()) {
					t.Fatalf("seed %d: stats faults=%d, injector=%d", seed, r.FaultsInjected, inj.Injected())
				}
				injected += r.FaultsInjected
			}
			if injected == 0 {
				t.Fatal("no faults injected across all seeds; chaos rates too low to test anything")
			}
		})
	}
}

// sitePlan is a fault site and a plan that consults it.
type sitePlan struct {
	name  string
	site  faults.Site
	build func() *Builder
}

// preMutationSites pairs every operator fault site that fires before the
// first shared-state mutation with a plan that consults it from dozens of
// work orders (512-byte blocks; a 2000-row build side), so a 25 % rate is
// certain to fire. The aggregation and sort sites are paired with both key
// shapes their kernels resolve: inline int keys and a serialized char key,
// a column term and a computed term.
func preMutationSites(t *testing.T) []sitePlan {
	db, fact, _ := fixture(t, storage.ColumnStore, 512)
	dim := db.CreateTable("dim_wide", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "w", Type: types.Int64},
	))
	ld := storage.NewLoader(dim)
	for i := 0; i < 2000; i++ {
		ld.Append(types.NewInt64(int64(i%50)), types.NewInt64(int64(i)))
	}
	ld.Close()
	joinAgg := func() *Builder { return buildJoinAggPlanLIP(fact, dim, true) }
	scanFact := func(b *Builder) *Node {
		fs := fact.Schema()
		return b.ScanSelect(exec.SelectSpec{
			Name: "sel_fact", Base: fact,
			Proj:      []expr.Expr{expr.C(fs, "k"), expr.C(fs, "grp"), expr.C(fs, "v")},
			ProjNames: []string{"k", "grp", "v"},
		})
	}
	charAgg := func() *Builder {
		b := NewBuilder()
		sel := scanFact(b)
		band := expr.Case(expr.Str("high"), expr.When{Cond: expr.Lt(expr.C(sel.Schema, "grp"), expr.Int(2)), Then: expr.Str("low")})
		b.Collect(b.Agg(sel, exec.AggOpSpec{
			Name:    "agg",
			GroupBy: []expr.Expr{band}, GroupByNames: []string{"band"},
			Aggs: []exec.AggSpec{
				{Func: exec.Sum, Arg: expr.C(sel.Schema, "v"), Name: "sv"},
				{Func: exec.CountDistinct, Arg: expr.C(sel.Schema, "k"), Name: "dk"},
			},
		}))
		return b
	}
	orderBy := func(key func(*storage.Schema) expr.Expr) func() *Builder {
		return func() *Builder {
			b := NewBuilder()
			sel := scanFact(b)
			b.Collect(b.Sort(sel, exec.SortSpec{
				Name:  "sort",
				Terms: []exec.SortTerm{{Key: key(sel.Schema), Desc: true}},
			}))
			return b
		}
	}
	return []sitePlan{
		{"HashInsert", faults.HashInsert, joinAgg},
		{"AggUpsert/int-key", faults.AggUpsert, joinAgg},
		{"AggUpsert/char-key", faults.AggUpsert, charAgg},
		{"SortRun/column", faults.SortRun, orderBy(func(s *storage.Schema) expr.Expr { return expr.C(s, "v") })},
		{"SortRun/computed", faults.SortRun, orderBy(func(s *storage.Schema) expr.Expr {
			return expr.SubE(expr.C(s, "v"), expr.MulE(expr.C(s, "k"), expr.Float(0.5)))
		})},
	}
}

// preMutationOpts is chaosOpts at the 512-byte block size of
// preMutationSites, faulting one site at the given rate.
func preMutationOpts(site faults.Site, rate float64, kind faults.Kind) Options {
	opts := chaosOpts(faults.New(faults.Config{
		Seed:  7,
		Rates: map[faults.Site]float64{site: rate},
		Kinds: []faults.Kind{kind},
	}), 2)
	opts.TempBlockBytes = 512
	return opts
}

// TestRetryRecoversPreMutationFaults: a fault at a pre-mutation site — as an
// error, a panic, or an allocation failure — is recovered by rollback and
// retry alone, on the same kernel: the rows equal the fault-free run and
// nothing leaks. At rate 0.25 a work order exhausts its 8 attempts with
// probability ~1.5e-5.
func TestRetryRecoversPreMutationFaults(t *testing.T) {
	for _, sp := range preMutationSites(t) {
		base, _ := mustRows(t, sp.build(), Options{
			Workers: 2, UoTBlocks: 1, TempBlockBytes: 512,
		}, "fault-free")
		for _, kind := range []faults.Kind{faults.KindError, faults.KindPanic, faults.KindAlloc} {
			t.Run(sp.name+"/"+kind.String(), func(t *testing.T) {
				rows, res := mustRows(t, sp.build(), preMutationOpts(sp.site, 0.25, kind), "faulted")
				if !sameRows(base, rows) {
					t.Fatal("retried run result differs from fault-free baseline")
				}
				r := res.Run.Robust()
				if r.Retries == 0 {
					t.Fatal("no work order was retried; the site never fired")
				}
				if r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
					t.Fatalf("leaks after retried run: %+v", r)
				}
			})
		}
	}
}

// TestSortMergeRecoversBlockMaterializeFaults: the sort's merge writes its
// output through an emitter, so it consults the block_materialize site and
// a faulted merge — error, panic or allocation failure — is rolled back and
// retried on the sort operator itself. Workers 1 and a fixed seed make the
// schedule deterministic; 8 KiB blocks keep the merge to three of them, so
// an attempt survives with probability 0.75^3 at rate 0.25.
func TestSortMergeRecoversBlockMaterializeFaults(t *testing.T) {
	_, fact, _ := fixture(t, storage.ColumnStore, 512)
	build := func() *Builder {
		b := NewBuilder()
		fs := fact.Schema()
		sel := b.ScanSelect(exec.SelectSpec{
			Name: "sel_fact", Base: fact,
			Proj:      []expr.Expr{expr.C(fs, "k"), expr.C(fs, "grp"), expr.C(fs, "v")},
			ProjNames: []string{"k", "grp", "v"},
		})
		b.Collect(b.Sort(sel, exec.SortSpec{
			Name:  "sort",
			Terms: []exec.SortTerm{{Key: expr.C(sel.Schema, "v"), Desc: true}},
		}))
		return b
	}
	opts := func(inj *faults.Injector, live *stats.MemGauge) Options {
		return Options{
			Workers: 1, UoTBlocks: 1, TempBlockBytes: 8 << 10,
			Faults: inj, Pool: storage.NewPool(live, nil),
		}
	}
	base, err := Execute(build(), opts(nil, new(stats.MemGauge)))
	if err != nil {
		t.Fatalf("fault-free: %v", err)
	}
	want := Rows(base.Table) // v is distinct, so the order is total
	for _, kind := range []faults.Kind{faults.KindError, faults.KindPanic, faults.KindAlloc} {
		t.Run(kind.String(), func(t *testing.T) {
			var live stats.MemGauge
			res, err := Execute(build(), opts(faults.New(faults.Config{
				Seed:  11,
				Rates: map[faults.Site]float64{faults.BlockMaterialize: 0.25},
				Kinds: []faults.Kind{kind},
			}), &live))
			if err != nil {
				t.Fatalf("faulted: %v", err)
			}
			if !reflect.DeepEqual(Rows(res.Table), want) {
				t.Fatal("retried run's rows differ from the fault-free run's")
			}
			if r := res.Run.Robust(); r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
				t.Fatalf("leaks after retried run: %+v", r)
			}
			if live.Live() != 0 {
				t.Fatalf("retried run left %d live temp bytes", live.Live())
			}
			failed := 0
			for _, op := range res.Run.PerOp() {
				if op.Name == "sort" {
					failed = op.FailedAttempts
				}
			}
			if failed == 0 {
				t.Fatal("the sort operator shows no failed attempt: the merge consults no fault site")
			}
		})
	}
}

// TestPersistentFaultFailsTyped: a site that always faults fails the query
// with the typed exhaustion error after exactly 8 attempts — there
// is no second kernel to finish on. Retries are read from the tracer, and
// leaks from a caller-owned pool's root gauge (which counts every block the
// failed run still owns) and the failed run's HashTables (which count every
// table it still holds).
func TestPersistentFaultFailsTyped(t *testing.T) {
	for _, sp := range preMutationSites(t) {
		t.Run(sp.name, func(t *testing.T) {
			var live stats.MemGauge
			tr := trace.New(1 << 12)
			opts := preMutationOpts(sp.site, 1, faults.KindError)
			opts.Pool, opts.Trace = storage.NewPool(&live, nil), tr
			res, err := Execute(sp.build(), opts)
			if err == nil {
				t.Fatal("query completed although the site faults on every attempt")
			}
			if !errors.As(err, new(*faults.Fault)) {
				t.Fatalf("error does not wrap *faults.Fault: %v", err)
			}
			if !strings.Contains(err.Error(), "after 8 attempts") {
				t.Fatalf("error does not report the attempt bound: %v", err)
			}
			var retries int64
			for _, run := range tr.Snapshot().Runs {
				for _, op := range run.Ops {
					retries += op.Retries
				}
			}
			if retries < 7 {
				t.Fatalf("retries = %d, want >= 7 before giving up", retries)
			}
			if live.Live() != 0 || res.Run.HashTables.Live() != 0 {
				t.Fatalf("failed run left %d live temp bytes, %d live hash-table bytes", live.Live(), res.Run.HashTables.Live())
			}
		})
	}
}

// TestFaultScheduleReplay: at one worker the execution order is
// deterministic, so the same seed must consult the injector in the same
// order and fire the identical fault schedule — the replayability the chaos
// harness depends on.
func TestFaultScheduleReplay(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 4<<10)
	run := func(seed uint64) []faults.Event {
		inj := faults.New(faults.Config{
			Seed:  seed,
			Rates: allSiteRates(0.1),
			Kinds: []faults.Kind{faults.KindError},
		})
		if _, err := Execute(buildJoinAggPlan(fact, dim), chaosOpts(inj, 1)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return inj.Schedule()
	}
	s1, s2 := run(42), run(42)
	if len(s1) == 0 {
		t.Fatal("seed 42 fired no faults; schedule comparison is vacuous")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed fired different schedules:\n  first:  %v\n  second: %v", s1, s2)
	}
	if s3 := run(43); reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds fired identical schedules")
	}
}

// TestSealFillRetryAtWorkers4: at Workers 4, a join whose build seals a
// dense index (keys 0..299) and one whose keys lie 2³³ apart (a hash index,
// its fill split over four work orders) return the rows of a fault-free
// Workers 1 run while HashInsert faults at every even, then every odd,
// consultation. A build's fills consult the site only after all of its
// build work orders have, so one of the two schedules faults a fill's first
// attempt; the trace must show it. A faulted fill has touched nothing, so
// its retry leaks no block and no table byte.
func TestSealFillRetryAtWorkers4(t *testing.T) {
	for _, scale := range []int64{1, 1 << 33} {
		db := NewDB(1<<10, storage.ColumnStore)
		sch := storage.NewSchema(
			storage.Column{Name: "k", Type: types.Int64},
			storage.Column{Name: "v", Type: types.Int64},
		)
		load := func(name string, rows, keys int) *storage.Table {
			tbl := db.CreateTable(name, sch)
			ld := storage.NewLoader(tbl)
			for i := 0; i < rows; i++ {
				ld.Append(types.NewInt64(int64(i%keys)*scale), types.NewInt64(int64(i)))
			}
			ld.Close()
			return tbl
		}
		buildTbl, probeTbl := load("b", 3000, 300), load("p", 5000, 400)
		var buildID core.OpID
		plan := func() *Builder {
			b := NewBuilder()
			scan := func(tbl *storage.Table) *Node {
				return b.ScanSelect(exec.SelectSpec{
					Name: "sel_" + tbl.Name(), Base: tbl,
					Proj: []expr.Expr{expr.C(sch, "k"), expr.C(sch, "v")}, ProjNames: []string{"k", "v"},
				})
			}
			bld, _ := b.Build(scan(buildTbl), exec.BuildSpec{Name: "build", KeyCols: []int{0}, Payload: []int{1}})
			buildID = bld.ID
			b.Collect(b.Probe(scan(probeTbl), bld, exec.ProbeSpec{
				Name: "probe", KeyCols: []int{0}, ProbeProj: []int{1}, BuildProj: []int{0}, Rename: []string{"pv", "bv"},
			}))
			return b
		}
		base, _ := mustRows(t, plan(), Options{Workers: 1, UoTBlocks: 1, TempBlockBytes: 4 << 10}, "fault-free")
		// Probe keys 0..199 occur 13 times, 200..299 12 times; each has 10
		// build rows.
		if len(base) != (200*13+100*12)*10 {
			t.Fatalf("scale %d: fault-free join has %d rows", scale, len(base))
		}
		failedFills := 0
		for parity := uint64(0); parity < 2; parity++ {
			var schedule []faults.Event
			for seq := parity; seq < 1<<13; seq += 2 {
				schedule = append(schedule, faults.Event{Site: faults.HashInsert, Seq: seq, Kind: faults.KindError})
			}
			opts := chaosOpts(faults.Replay(schedule), 4)
			tr := trace.New(1 << 14)
			opts.Trace = tr
			rows, res := mustRows(t, plan(), opts, "faulted")
			if !sameRows(base, rows) {
				t.Fatalf("scale %d, parity %d: Workers 4 rows differ from the fault-free Workers 1 run", scale, parity)
			}
			if r := res.Run.Robust(); r.LeakedBlocks != 0 || r.LeakedBytes != 0 || r.Retries == 0 {
				t.Fatalf("scale %d, parity %d: %+v", scale, parity, r)
			}
			if live := res.Run.HashTables.Live(); live != 0 {
				t.Fatalf("scale %d, parity %d: %d table bytes live after the run", scale, parity, live)
			}
			for _, ev := range tr.Events() {
				if ev.Kind == trace.KindSpan && ev.Op == int32(buildID) && ev.Batch == -1 && ev.Flags&trace.FlagFailed != 0 {
					failedFills++
				}
			}
		}
		if failedFills == 0 {
			t.Fatalf("scale %d: no fill attempt failed; the test exercised no fill retry", scale)
		}
	}
}
