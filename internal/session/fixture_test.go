package session

import (
	"strings"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
)

// serveFixture builds fact(k, grp, v) with 1000 rows and dim(k, w) with 50
// rows (the engine package's standard join-agg shapes, rebuilt here because
// test fixtures don't export).
func serveFixture() (fact, dim *storage.Table) {
	db := engine.NewDB(512, storage.ColumnStore)
	fact = db.CreateTable("fact", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "grp", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Float64},
	))
	lf := storage.NewLoader(fact)
	for i := 0; i < 1000; i++ {
		lf.Append(types.NewInt64(int64(i%100)), types.NewInt64(int64(i%5)), types.NewFloat64(float64(i)/10))
	}
	lf.Close()
	dim = db.CreateTable("dim", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "w", Type: types.Int64},
	))
	ld := storage.NewLoader(dim)
	for i := 0; i < 50; i++ {
		ld.Append(types.NewInt64(int64(i)), types.NewInt64(int64(i*2)))
	}
	ld.Close()
	return fact, dim
}

// joinAggPlan is select(fact) ⋈ build(dim) → group-by(grp) → sort: the
// engine package's reference plan, exercising a build, an agg, and a sort
// through the shared pool.
func joinAggPlan(fact, dim *storage.Table) *engine.Builder {
	b := engine.NewBuilder()
	fs, ds := fact.Schema(), dim.Schema()
	selDim := b.ScanSelect(exec.SelectSpec{
		Name: "sel_dim", Base: dim,
		Proj:      []expr.Expr{expr.C(ds, "k"), expr.C(ds, "w")},
		ProjNames: []string{"k", "w"},
	})
	bld, _ := b.Build(selDim, exec.BuildSpec{
		Name: "build_dim", KeyCols: []int{0}, Payload: []int{1},
	})
	selFact := b.ScanSelect(exec.SelectSpec{
		Name: "sel_fact", Base: fact,
		Pred:      expr.Ge(expr.C(fs, "v"), expr.Float(10)),
		Proj:      []expr.Expr{expr.C(fs, "k"), expr.C(fs, "grp"), expr.C(fs, "v")},
		ProjNames: []string{"k", "grp", "v"},
	})
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

// tableKey fingerprints a result table order-insensitively.
func tableKey(t *storage.Table) string {
	rows := engine.Rows(t)
	engine.SortRows(rows)
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(engine.FormatRow(r))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// gateExpr is a predicate that blocks until its channel closes — it turns a
// scan into a query that deterministically occupies its admission slot until
// the test releases it.
type gateExpr struct{ ch chan struct{} }

func (g gateExpr) Type() types.TypeID         { return types.Int64 }
func (g gateExpr) Eval(*expr.Ctx) types.Datum { <-g.ch; return types.NewInt64(1) }
func (g gateExpr) String() string             { return "gate" }
func (g gateExpr) EvalBlock(_ *expr.Ctx, dst []int64) {
	<-g.ch
	for r := range dst {
		dst[r] = 1
	}
}

// gatedPlan scans fact under a gate predicate and collects the result.
func gatedPlan(fact *storage.Table, gate chan struct{}) *engine.Builder {
	b := engine.NewBuilder()
	fs := fact.Schema()
	sel := b.ScanSelect(exec.SelectSpec{
		Name: "sel_gate", Base: fact,
		Pred:      gateExpr{ch: gate},
		Proj:      []expr.Expr{expr.C(fs, "k")},
		ProjNames: []string{"k"},
	})
	b.Collect(sel)
	return b
}
