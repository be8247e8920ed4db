package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

// fixture builds fact(k, grp, v) with 1000 rows and dim(k, w) with 50 rows.
// fact.k cycles 0..99, so half the fact keys join; grp cycles 0..4.
func fixture(t *testing.T, format storage.Format, blockBytes int) (*DB, *storage.Table, *storage.Table) {
	t.Helper()
	db := NewDB(blockBytes, format)
	fact := db.CreateTable("fact", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "grp", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Float64},
	))
	lf := storage.NewLoader(fact)
	for i := 0; i < 1000; i++ {
		lf.Append(types.NewInt64(int64(i%100)), types.NewInt64(int64(i%5)), types.NewFloat64(float64(i)/10))
	}
	lf.Close()
	dim := db.CreateTable("dim", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "w", Type: types.Int64},
	))
	ld := storage.NewLoader(dim)
	for i := 0; i < 50; i++ {
		ld.Append(types.NewInt64(int64(i)), types.NewInt64(int64(i*2)))
	}
	ld.Close()
	return db, fact, dim
}

// expectedJoinAgg computes the reference result: for fact rows with v >= 10
// joined to dim (k < 50), per grp: count and sum(v).
func expectedJoinAgg() map[int64][2]float64 {
	out := map[int64][2]float64{}
	for i := 0; i < 1000; i++ {
		k, grp, v := int64(i%100), int64(i%5), float64(i)/10
		if v < 10 || k >= 50 {
			continue
		}
		e := out[grp]
		e[0]++
		e[1] += v
		out[grp] = e
	}
	return out
}

func buildJoinAggPlan(fact, dim *storage.Table) *Builder {
	return buildJoinAggPlanLIP(fact, dim, false)
}

// buildJoinAggPlanLIP is buildJoinAggPlan with sel_fact optionally reading
// build_dim's table as a LIP filter, so the table has two readers.
func buildJoinAggPlanLIP(fact, dim *storage.Table, lip bool) *Builder {
	return joinAggPlan(fact, dim, lip, expr.C(fact.Schema(), "v"))
}

// buildJoinAggPlanCopied is buildJoinAggPlan with the fact scan computing its
// v projection (v * 1), so that it emits temp blocks, not views of the fact
// table: the spill tier then has the scan's output to evict.
func buildJoinAggPlanCopied(fact, dim *storage.Table) *Builder {
	return joinAggPlan(fact, dim, false, expr.MulE(expr.C(fact.Schema(), "v"), expr.Float(1)))
}

func joinAggPlan(fact, dim *storage.Table, lip bool, v expr.Expr) *Builder {
	b := NewBuilder()
	fs, ds := fact.Schema(), dim.Schema()

	selDim := b.ScanSelect(exec.SelectSpec{
		Name: "sel_dim", Base: dim,
		Proj:      []expr.Expr{expr.C(ds, "k"), expr.C(ds, "w")},
		ProjNames: []string{"k", "w"},
	})
	bld, bop := b.Build(selDim, exec.BuildSpec{
		Name: "build_dim", KeyCols: []int{0}, Payload: []int{1},
	})
	factSpec := exec.SelectSpec{
		Name: "sel_fact", Base: fact,
		Pred:      expr.Ge(expr.C(fs, "v"), expr.Float(10)),
		Proj:      []expr.Expr{expr.C(fs, "k"), expr.C(fs, "grp"), v},
		ProjNames: []string{"k", "grp", "v"},
	}
	if lip {
		factSpec.LIPs = []exec.LIPRef{{Build: bop, KeyCol: fs.MustColIndex("k")}}
	}
	selFact := b.ScanSelect(factSpec)
	probe := b.Probe(selFact, bld, exec.ProbeSpec{
		Name: "probe_dim", KeyCols: []int{0},
		ProbeProj: []int{1, 2}, BuildProj: []int{0},
		Rename: []string{"grp", "v", "w"},
	})
	agg := b.Agg(probe, exec.AggOpSpec{
		Name:         "agg",
		GroupBy:      []expr.Expr{expr.C(probe.Schema, "grp")},
		GroupByNames: []string{"grp"},
		Aggs: []exec.AggSpec{
			{Func: exec.Count, Name: "cnt"},
			{Func: exec.Sum, Arg: expr.C(probe.Schema, "v"), Name: "sv"},
		},
	})
	srt := b.Sort(agg, exec.SortSpec{
		Name:  "sort",
		Terms: []exec.SortTerm{{Key: expr.C(agg.Schema, "grp")}},
	})
	b.Collect(srt)
	return b
}

func checkJoinAgg(t *testing.T, res *Result, label string) {
	t.Helper()
	want := expectedJoinAgg()
	rows := Rows(res.Table)
	if len(rows) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(rows), len(want))
	}
	for _, r := range rows {
		grp := r[0].I
		w := want[grp]
		if r[1].I != int64(w[0]) {
			t.Errorf("%s: grp %d count = %d, want %v", label, grp, r[1].I, w[0])
		}
		if diff := r[2].F - w[1]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: grp %d sum = %v, want %v", label, grp, r[2].F, w[1])
		}
	}
}

// TestJoinAggAcrossConfigurations is the central invariant: results are
// identical across the whole UoT spectrum, worker counts, temp formats, and
// block sizes.
func TestJoinAggAcrossConfigurations(t *testing.T) {
	for _, baseFormat := range []storage.Format{storage.ColumnStore, storage.RowStore} {
		_, fact, dim := fixture(t, baseFormat, 512)
		for _, uot := range []int{1, 2, 7, core.UoTTable} {
			for _, workers := range []int{1, 4} {
				for _, tempBytes := range []int{256, 4096} {
					label := fmt.Sprintf("base=%v uot=%d T=%d temp=%d", baseFormat, uot, workers, tempBytes)
					res, err := Execute(buildJoinAggPlan(fact, dim), Options{
						Workers: workers, UoTBlocks: uot, TempBlockBytes: tempBytes,
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkJoinAgg(t, res, label)
				}
			}
		}
	}
}

func joinTypePlan(fact, dim *storage.Table, jt exec.JoinType) *Builder {
	b := NewBuilder()
	fs, ds := fact.Schema(), dim.Schema()
	selDim := b.ScanSelect(exec.SelectSpec{
		Name: "sel_dim", Base: dim,
		Proj:      []expr.Expr{expr.C(ds, "k")},
		ProjNames: []string{"k"},
	})
	var payload []int
	var buildProj []int
	rename := []string{"k", "grp"}
	if jt == exec.Inner || jt == exec.LeftOuter {
		payload = []int{0}
		buildProj = []int{0}
		rename = []string{"k", "grp", "dk"}
	}
	bld, _ := b.Build(selDim, exec.BuildSpec{
		Name: "build_dim", KeyCols: []int{0}, Payload: payload,
	})
	selFact := b.ScanSelect(exec.SelectSpec{
		Name: "sel_fact", Base: fact,
		Pred:      expr.Lt(expr.C(fs, "k"), expr.Int(10)), // keep it small
		Proj:      []expr.Expr{expr.C(fs, "k"), expr.C(fs, "grp")},
		ProjNames: []string{"k", "grp"},
	})
	probe := b.Probe(selFact, bld, exec.ProbeSpec{
		Name: "probe", KeyCols: []int{0}, JoinType: jt,
		ProbeProj: []int{0, 1}, BuildProj: buildProj, Rename: rename,
	})
	b.Collect(probe)
	return b
}

func TestJoinTypes(t *testing.T) {
	_, fact, dimAll := fixture(t, storage.ColumnStore, 512)
	_ = dimAll
	// Rebuild a dim with keys 5..14 so some fact keys (0..9) miss.
	db2 := NewDB(512, storage.ColumnStore)
	dim := db2.CreateTable("dim2", storage.NewSchema(storage.Column{Name: "k", Type: types.Int64}))
	ld := storage.NewLoader(dim)
	for i := 5; i < 15; i++ {
		ld.Append(types.NewInt64(int64(i)))
	}
	ld.Close()

	// fact rows with k<10: k in 0..9, 10 rows each (1000/100).
	counts := map[string]int{
		"inner": 10 * 5, "semi": 10 * 5, "anti": 10 * 5, "outer": 10 * 10,
	}
	for jt, name := range map[exec.JoinType]string{
		exec.Inner: "inner", exec.LeftSemi: "semi", exec.LeftAnti: "anti", exec.LeftOuter: "outer",
	} {
		res, err := Execute(joinTypePlan(fact, dim, jt), Options{Workers: 2, UoTBlocks: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := int(res.Table.NumRows())
		if got != counts[name] {
			t.Errorf("%s join rows = %d, want %d", name, got, counts[name])
		}
		// Semantics spot checks.
		rows := Rows(res.Table)
		for _, r := range rows {
			k := r[0].I
			inDim := k >= 5
			switch jt {
			case exec.LeftSemi:
				if !inDim {
					t.Errorf("semi emitted non-matching key %d", k)
				}
			case exec.LeftAnti:
				if inDim {
					t.Errorf("anti emitted matching key %d", k)
				}
			case exec.LeftOuter:
				if !inDim && r[2].I != 0 {
					t.Errorf("outer padding for key %d = %d", k, r[2].I)
				}
				if inDim && r[2].I != k {
					t.Errorf("outer matched key %d carries dk %d", k, r[2].I)
				}
			}
		}
	}
}

func TestResidualPredicate(t *testing.T) {
	// Join dim to itself: k = k AND build.w <> probe.k*2 (never true since
	// w == 2k on the build side) — residual must kill every match.
	_, _, dim := fixture(t, storage.ColumnStore, 512)
	b := NewBuilder()
	ds := dim.Schema()
	sel1 := b.ScanSelect(exec.SelectSpec{
		Name: "s1", Base: dim,
		Proj: []expr.Expr{expr.C(ds, "k"), expr.C(ds, "w")}, ProjNames: []string{"k", "w"},
	})
	bld, bop := b.Build(sel1, exec.BuildSpec{Name: "b1", KeyCols: []int{0}, Payload: []int{1}})
	sel2 := b.ScanSelect(exec.SelectSpec{
		Name: "s2", Base: dim,
		Proj: []expr.Expr{expr.C(ds, "k")}, ProjNames: []string{"k"},
	})
	probe := b.Probe(sel2, bld, exec.ProbeSpec{
		Name: "p", KeyCols: []int{0},
		Residual:  expr.Ne(expr.C2(bop.PayloadSchema(), "w"), expr.MulE(expr.C(sel2.Schema, "k"), expr.Int(2))),
		ProbeProj: []int{0}, BuildProj: []int{0}, Rename: []string{"k", "w"},
	})
	b.Collect(probe)
	res, err := Execute(b, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 0 {
		t.Fatalf("residual should eliminate all %d rows", res.Table.NumRows())
	}
}

func TestScalarSubquery(t *testing.T) {
	// SELECT count(*) FROM fact WHERE v > (SELECT avg(v) FROM fact)
	_, fact, _ := fixture(t, storage.ColumnStore, 512)
	fs := fact.Schema()
	b := NewBuilder()

	selAll := b.ScanSelect(exec.SelectSpec{
		Name: "scan_all", Base: fact,
		Proj: []expr.Expr{expr.C(fs, "v")}, ProjNames: []string{"v"},
	})
	avg := b.Agg(selAll, exec.AggOpSpec{
		Name: "avg_v",
		Aggs: []exec.AggSpec{{Func: exec.Avg, Arg: expr.C(selAll.Schema, "v"), Name: "a"}},
	})
	slot := b.Scalar(avg)

	selBig := b.ScanSelect(exec.SelectSpec{
		Name: "scan_big", Base: fact,
		Pred: expr.Gt(expr.C(fs, "v"), expr.Param(slot, types.Float64)),
		Proj: []expr.Expr{expr.C(fs, "k")}, ProjNames: []string{"k"},
	})
	b.Gate(avg, selBig)
	cnt := b.Agg(selBig, exec.AggOpSpec{
		Name: "cnt",
		Aggs: []exec.AggSpec{{Func: exec.Count, Name: "c"}},
	})
	b.Collect(cnt)

	res, err := Execute(b, Options{Workers: 3, UoTBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res.Table)
	// avg(v) over 0..99.9 step .1 = 49.95; rows with v > 49.95: v=50.0..99.9 -> 500.
	if len(rows) != 1 || rows[0][0].I != 500 {
		t.Fatalf("scalar subquery count = %v, want 500", rows)
	}
}

// lipJoinPlan joins fact to dim on k, sel_fact optionally reading
// build_dim's LIP filter. The build's spec says nothing of a filter: the
// select's reference alone makes the build keep one.
func lipJoinPlan(fact, dim *storage.Table, useLIP bool) *Builder {
	fs, ds := fact.Schema(), dim.Schema()
	b := NewBuilder()
	selDim := b.ScanSelect(exec.SelectSpec{
		Name: "sel_dim", Base: dim,
		Proj: []expr.Expr{expr.C(ds, "k"), expr.C(ds, "w")}, ProjNames: []string{"k", "w"},
	})
	bld, bop := b.Build(selDim, exec.BuildSpec{Name: "build_dim", KeyCols: []int{0}, Payload: []int{1}})
	spec := exec.SelectSpec{
		Name: "sel_fact", Base: fact,
		Proj: []expr.Expr{expr.C(fs, "k"), expr.C(fs, "v")}, ProjNames: []string{"k", "v"},
	}
	if useLIP {
		spec.LIPs = []exec.LIPRef{{Build: bop, KeyCol: fs.MustColIndex("k")}}
	}
	selFact := b.ScanSelect(spec)
	probe := b.Probe(selFact, bld, exec.ProbeSpec{
		Name: "probe", KeyCols: []int{0},
		ProbeProj: []int{0, 1}, BuildProj: []int{0}, Rename: []string{"k", "v", "w"},
	})
	b.Collect(probe)
	return b
}

// opRowsOut returns the rows the named operator emitted, -1 if the run has
// no such operator.
func opRowsOut(r *Result, name string) int64 {
	for _, op := range r.Run.PerOp() {
		if op.Name == name {
			return op.RowsOut
		}
	}
	return -1
}

func TestLIPFilterPrunesBeforeMaterialization(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 512)
	plain, err := Execute(lipJoinPlan(fact, dim, false), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	lip, err := Execute(lipJoinPlan(fact, dim, true), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Table.NumRows() != lip.Table.NumRows() {
		t.Fatalf("LIP changed the result: %d vs %d rows", plain.Table.NumRows(), lip.Table.NumRows())
	}
	// The select feeding the probe must emit ~half the rows with LIP on
	// (keys 50..99 dropped).
	if plainOut, lipOut := opRowsOut(plain, "sel_fact"), opRowsOut(lip, "sel_fact"); lipOut > plainOut*6/10 {
		t.Fatalf("LIP select emitted %d rows, plain %d — filter not pruning", lipOut, plainOut)
	}
}

// TestLIPFilterFromUndeclaredBuild: a select's LIP reference to a build
// whose spec declares nothing about it makes the select read the build's
// table, at every worker count and unit of transfer: the rows equal the plan
// without LIP, the select emits fewer rows, and nothing leaks.
func TestLIPFilterFromUndeclaredBuild(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 512)
	for _, workers := range []int{1, 4} {
		for _, uot := range []int{1, core.UoTTable} {
			name := fmt.Sprintf("workers=%d/uot=%d", workers, uot)
			if uot == core.UoTTable {
				name = fmt.Sprintf("workers=%d/uot=table", workers)
			}
			t.Run(name, func(t *testing.T) {
				opts := Options{Workers: workers, UoTBlocks: uot, TempBlockBytes: 512}
				want, plain := mustRows(t, lipJoinPlan(fact, dim, false), opts, "plain")
				got, lip := mustRows(t, lipJoinPlan(fact, dim, true), opts, "lip")
				if !sameRows(want, got) {
					t.Fatalf("LIP changed the result: %d rows, want %d", len(got), len(want))
				}
				if plainOut, lipOut := opRowsOut(plain, "sel_fact"), opRowsOut(lip, "sel_fact"); lipOut >= plainOut {
					t.Fatalf("LIP select emitted %d rows, plain %d", lipOut, plainOut)
				}
				if r := lip.Run.Robust(); r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
					t.Fatalf("leaks after LIP run: %+v", r)
				}
			})
		}
	}
}

// lipAfterProbePlan joins the fact rows with k < 30 to a semi join of dim
// with itself: build_dim's only probe, probe_dim, feeds build_small, and
// with useLIP sel_fact reads both tables as LIPs. sel_fact then starts only
// once build_small is done, so probe_dim has finished before sel_fact reads
// build_dim's table.
func lipAfterProbePlan(fact, dim *storage.Table, useLIP bool) *Builder {
	fs, ds := fact.Schema(), dim.Schema()
	b := NewBuilder()
	selDim := b.ScanSelect(exec.SelectSpec{
		Name: "sel_dim", Base: dim,
		Proj: []expr.Expr{expr.C(ds, "k"), expr.C(ds, "w")}, ProjNames: []string{"k", "w"},
	})
	bld, bop := b.Build(selDim, exec.BuildSpec{Name: "build_dim", KeyCols: []int{0}, Payload: []int{1}})
	selSmall := b.ScanSelect(exec.SelectSpec{
		Name: "sel_small", Base: dim, Pred: expr.Lt(expr.C(ds, "k"), expr.Int(30)),
		Proj: []expr.Expr{expr.C(ds, "k")}, ProjNames: []string{"k"},
	})
	probeDim := b.Probe(selSmall, bld, exec.ProbeSpec{
		Name: "probe_dim", KeyCols: []int{0}, JoinType: exec.LeftSemi, ProbeProj: []int{0},
	})
	small, sop := b.Build(probeDim, exec.BuildSpec{Name: "build_small", KeyCols: []int{0}})
	spec := exec.SelectSpec{
		Name: "sel_fact", Base: fact,
		Proj: []expr.Expr{expr.C(fs, "k"), expr.C(fs, "v")}, ProjNames: []string{"k", "v"},
	}
	if useLIP {
		k := fs.MustColIndex("k")
		spec.LIPs = []exec.LIPRef{{Build: bop, KeyCol: k}, {Build: sop, KeyCol: k}}
	}
	b.Collect(b.Probe(b.ScanSelect(spec), small, exec.ProbeSpec{
		Name: "probe_small", KeyCols: []int{0}, ProbeProj: []int{0, 1},
	}))
	return b
}

// TestLIPSelectOutlivesTheBuildsProbe: a LIP select whose build's only
// probe finishes first still reads the build's table, at every worker count
// and unit of transfer: the rows equal the plan without LIP, the select
// prunes, and the run ends with no temp block and no table on its gauges.
func TestLIPSelectOutlivesTheBuildsProbe(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 512)
	for _, workers := range []int{1, 4} {
		for _, uot := range []int{1, core.UoTTable} {
			name := fmt.Sprintf("workers=%d/uot=%d", workers, uot)
			if uot == core.UoTTable {
				name = fmt.Sprintf("workers=%d/uot=table", workers)
			}
			t.Run(name, func(t *testing.T) {
				opts := Options{Workers: workers, UoTBlocks: uot, TempBlockBytes: 512}
				want, plain := mustRows(t, lipAfterProbePlan(fact, dim, false), opts, "plain")
				got, lip := mustRows(t, lipAfterProbePlan(fact, dim, true), opts, "lip")
				if len(want) != 300 || !sameRows(want, got) {
					t.Fatalf("LIP changed the result: %d rows, want %d (300)", len(got), len(want))
				}
				if plainOut, lipOut := opRowsOut(plain, "sel_fact"), opRowsOut(lip, "sel_fact"); lipOut != 300 || plainOut != 1000 {
					t.Fatalf("LIP select emitted %d rows, plain %d", lipOut, plainOut)
				}
				if i, h := lip.Run.Intermediates.Live(), lip.Run.HashTables.Live(); i != 0 || h != 0 {
					t.Fatalf("LIP run left %d temp bytes, %d table bytes live", i, h)
				}
			})
		}
	}
}

func TestMemoryGaugesTrackHashTablesAndIntermediates(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 512)
	res, err := Execute(buildJoinAggPlan(fact, dim), Options{Workers: 2, UoTBlocks: 1, TempBlockBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.HashTables.High() <= 0 {
		t.Error("hash-table high water should be positive")
	}
	if res.Run.Intermediates.High() <= 0 {
		t.Error("intermediates high water should be positive")
	}
	if res.Run.HashTables.Live() != 0 {
		t.Errorf("hash-table live after run = %d, want 0 (all released)", res.Run.HashTables.Live())
	}
	if res.Run.Checkouts() <= 0 {
		t.Error("pool checkouts should be counted")
	}
}

func TestSortLimitAndOrder(t *testing.T) {
	_, fact, _ := fixture(t, storage.ColumnStore, 512)
	fs := fact.Schema()
	b := NewBuilder()
	sel := b.ScanSelect(exec.SelectSpec{
		Name: "scan", Base: fact,
		Proj: []expr.Expr{expr.C(fs, "k"), expr.C(fs, "v")}, ProjNames: []string{"k", "v"},
	})
	srt := b.Sort(sel, exec.SortSpec{
		Name:  "top",
		Terms: []exec.SortTerm{{Key: expr.C(sel.Schema, "v"), Desc: true}, {Key: expr.C(sel.Schema, "k")}},
		Limit: 7,
	})
	b.Collect(srt)
	res, err := Execute(b, Options{Workers: 4, UoTBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res.Table)
	if len(rows) != 7 {
		t.Fatalf("limit: got %d rows", len(rows))
	}
	for i := 0; i < len(rows)-1; i++ {
		if rows[i][1].F < rows[i+1][1].F {
			t.Fatalf("sort order violated at %d: %v then %v", i, rows[i][1].F, rows[i+1][1].F)
		}
	}
	if rows[0][1].F != 99.9 {
		t.Fatalf("top value = %v, want 99.9", rows[0][1].F)
	}
}

func TestHighUoTSchedulesProbesAfterSelects(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 512)
	res, err := Execute(buildJoinAggPlan(fact, dim), Options{
		Workers: 4, UoTBlocks: core.UoTTable, TempBlockBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lastSelEnd, firstProbeStart int64
	for _, w := range res.Run.Orders() {
		switch w.OpName {
		case "sel_fact":
			if e := w.End.UnixNano(); e > lastSelEnd {
				lastSelEnd = e
			}
		case "probe_dim":
			if s := w.Start.UnixNano(); firstProbeStart == 0 || s < firstProbeStart {
				firstProbeStart = s
			}
		}
	}
	if firstProbeStart == 0 || lastSelEnd == 0 {
		t.Fatal("missing work orders in stats")
	}
	if firstProbeStart < lastSelEnd {
		t.Fatal("with UoT=table, probe work orders must start after the select finishes")
	}
}

func TestEmptyInputsProduceEmptyOrZeroResults(t *testing.T) {
	db := NewDB(512, storage.ColumnStore)
	empty := db.CreateTable("empty", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Float64},
	))
	es := empty.Schema()
	b := NewBuilder()
	sel := b.ScanSelect(exec.SelectSpec{
		Name: "scan", Base: empty,
		Proj: []expr.Expr{expr.C(es, "v")}, ProjNames: []string{"v"},
	})
	agg := b.Agg(sel, exec.AggOpSpec{
		Name: "agg",
		Aggs: []exec.AggSpec{{Func: exec.Count, Name: "c"}, {Func: exec.Sum, Arg: expr.C(sel.Schema, "v"), Name: "s"}},
	})
	b.Collect(agg)
	res, err := Execute(b, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res.Table)
	if len(rows) != 1 || rows[0][0].I != 0 {
		t.Fatalf("scalar agg over empty input = %v, want one zero row", rows)
	}
}

// TestCollectedScanIsMaterialized collects a scan that only renames base
// columns. The scan emits views; the result sink adopts its blocks past the
// run, so they leave it materialized, holding the rows themselves.
func TestCollectedScanIsMaterialized(t *testing.T) {
	_, fact, _ := fixture(t, storage.ColumnStore, 4<<10)
	fs := fact.Schema()
	for _, uot := range []int{1, core.UoTTable} {
		b := NewBuilder()
		b.Collect(b.ScanSelect(exec.SelectSpec{
			Name: "sel_fact", Base: fact,
			Pred:      expr.Ge(expr.C(fs, "v"), expr.Float(10)),
			Proj:      []expr.Expr{expr.C(fs, "v"), expr.C(fs, "k")},
			ProjNames: []string{"v", "k"},
		}))
		res, err := Execute(b, Options{Workers: 1, UoTBlocks: uot, TempBlockBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, blk := range res.Table.Blocks() {
			if blk.IsView() {
				t.Fatalf("uot=%d: a result block is a view", uot)
			}
			for r := range blk.NumRows() {
				i := 100 + n
				if blk.Float64At(0, r) != float64(i)/10 || blk.Int64At(1, r) != int64(i%100) {
					t.Fatalf("uot=%d: result row %d = (%v, %v)", uot, n, blk.Float64At(0, r), blk.Int64At(1, r))
				}
				n++
			}
		}
		if n != 900 {
			t.Fatalf("uot=%d: %d result rows, want 900", uot, n)
		}
	}
}

// TestCanceledExecuteReturnsItsRun: a run canceled midway returns its error
// with a Result that has no table but does have the run's stats, and those
// show the canceled run released every block and table: no leaked block
// and no live pool or hash-table bytes.
func TestCanceledExecuteReturnsItsRun(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 4<<10)
	var live stats.MemGauge
	cx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Execute(buildJoinAggPlan(fact, dim), Options{Workers: 1, UoTBlocks: 1, TempBlockBytes: 512,
		Context: &cancelAfterPolls{Context: cx, n: 20, cancel: cancel}, Pool: storage.NewPool(&live, nil)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	if res == nil || res.Run == nil || res.Table != nil {
		t.Fatalf("a canceled run returned %+v, want its Run and no Table", res)
	}
	if len(res.Run.PerOp()) == 0 || res.Run.Intermediates.High() == 0 {
		t.Fatal("the run was canceled before it made a block; the test is vacuous")
	}
	if r := res.Run.Robust(); r.LeakedBlocks != 0 || r.LeakedBytes != 0 || live.Live() != 0 || res.Run.HashTables.Live() != 0 {
		t.Fatalf("canceled run: %d live pool bytes, %d live hash-table bytes, leaks %+v", live.Live(), res.Run.HashTables.Live(), r)
	}
}
