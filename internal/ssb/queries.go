package ssb

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
)

// Flights returns the implemented SSB query names.
func Flights() []string {
	out := make([]string, 0, len(queryRegistry))
	for n := range queryRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

type buildFunc func(d *Dataset) *engine.Builder

var queryRegistry = map[string]buildFunc{
	"q1.1": q11,
	"q2.1": q21,
	"q3.1": q31,
	"q4.1": q41,
}

// Build constructs the physical plan for the named SSB query.
func Build(d *Dataset, name string) (*engine.Builder, error) {
	f, ok := queryRegistry[name]
	if !ok {
		return nil, fmt.Errorf("ssb: query %q not implemented (have %v)", name, Flights())
	}
	return f(d), nil
}

func proj(s *storage.Schema, names ...string) ([]expr.Expr, []string) {
	es := make([]expr.Expr, len(names))
	for i, n := range names {
		es[i] = expr.C(s, n)
	}
	return es, names
}

func scan(b *engine.Builder, t *storage.Table, pred expr.Expr, cols ...string) *engine.Node {
	es, names := proj(t.Schema(), cols...)
	return b.ScanSelect(exec.SelectSpec{
		Name: "select(" + t.Name() + ")", Base: t, Pred: pred, Proj: es, ProjNames: names,
	})
}

func idx(n *engine.Node, names ...string) []int {
	out := make([]int, len(names))
	for i, name := range names {
		out[i] = n.Schema.MustColIndex(name)
	}
	return out
}

// q11 is SSB Q1.1: revenue change from eliminating discounts in one year.
func q11(d *Dataset) *engine.Builder {
	b := engine.NewBuilder()
	ds := d.Date.Schema()
	selDate := scan(b, d.Date, expr.Eq(expr.C(ds, "d_year"), expr.Int(1993)), "d_datekey")
	buildD, _ := b.Build(selDate, exec.BuildSpec{Name: "build(date)", KeyCols: idx(selDate, "d_datekey")})

	ls := d.Lineorder.Schema()
	selLO := scan(b, d.Lineorder,
		expr.And(
			expr.Between(expr.C(ls, "lo_discount"), expr.Float(1), expr.Float(3)),
			expr.Lt(expr.C(ls, "lo_quantity"), expr.Float(25)),
		),
		"lo_orderdate", "lo_extendedprice", "lo_discount")
	probe := b.Probe(selLO, buildD, exec.ProbeSpec{
		Name: "probe(date)", KeyCols: idx(selLO, "lo_orderdate"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selLO, "lo_extendedprice", "lo_discount"),
	})
	agg := b.Agg(probe, exec.AggOpSpec{
		Name: "agg(q1.1)",
		Aggs: []exec.AggSpec{{
			Func: exec.Sum, Name: "revenue",
			Arg: expr.MulE(expr.C(probe.Schema, "lo_extendedprice"),
				expr.DivE(expr.C(probe.Schema, "lo_discount"), expr.Float(100))),
		}},
	})
	b.Collect(agg)
	return b
}

// q21 is SSB Q2.1: revenue by year and brand for one part category and one
// supplier region.
func q21(d *Dataset) *engine.Builder {
	b := engine.NewBuilder()

	ps := d.Part.Schema()
	selPart := scan(b, d.Part,
		expr.Eq(expr.C(ps, "p_category"), expr.Str("MFGR#12")), "p_partkey", "p_brand1")
	buildP, _ := b.Build(selPart, exec.BuildSpec{
		Name: "build(part)", KeyCols: idx(selPart, "p_partkey"),
		Payload: idx(selPart, "p_brand1"),
	})
	ss := d.Supplier.Schema()
	selSupp := scan(b, d.Supplier,
		expr.Eq(expr.C(ss, "s_region"), expr.Str("AMERICA")), "s_suppkey")
	buildS, _ := b.Build(selSupp, exec.BuildSpec{
		Name: "build(supplier)", KeyCols: idx(selSupp, "s_suppkey"),
	})
	selDate := scan(b, d.Date, nil, "d_datekey", "d_year")
	buildD, _ := b.Build(selDate, exec.BuildSpec{
		Name: "build(date)", KeyCols: idx(selDate, "d_datekey"),
		Payload: idx(selDate, "d_year"),
	})

	ls := d.Lineorder.Schema()
	selLO := scan(b, d.Lineorder, nil, "lo_partkey", "lo_suppkey", "lo_orderdate", "lo_revenue")
	_ = ls
	onPart := b.Probe(selLO, buildP, exec.ProbeSpec{
		Name: "probe(part)", KeyCols: idx(selLO, "lo_partkey"),
		ProbeProj: idx(selLO, "lo_suppkey", "lo_orderdate", "lo_revenue"), BuildProj: []int{0},
	})
	onSupp := b.Probe(onPart, buildS, exec.ProbeSpec{
		Name: "probe(supplier)", KeyCols: idx(onPart, "lo_suppkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(onPart, "lo_orderdate", "lo_revenue", "p_brand1"),
	})
	onDate := b.Probe(onSupp, buildD, exec.ProbeSpec{
		Name: "probe(date)", KeyCols: idx(onSupp, "lo_orderdate"),
		ProbeProj: idx(onSupp, "lo_revenue", "p_brand1"), BuildProj: []int{0},
	})

	agg := b.Agg(onDate, exec.AggOpSpec{
		Name: "agg(q2.1)",
		GroupBy: []expr.Expr{
			expr.C(onDate.Schema, "d_year"), expr.C(onDate.Schema, "p_brand1"),
		},
		GroupByNames: []string{"d_year", "p_brand1"},
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Arg: expr.C(onDate.Schema, "lo_revenue"), Name: "revenue"},
		},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q2.1)", Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "d_year")}, {Key: expr.C(agg.Schema, "p_brand1")},
	}})
	b.Collect(srt)
	return b
}

// q31 is SSB Q3.1: revenue flows between Asian customer and supplier
// nations.
func q31(d *Dataset) *engine.Builder {
	b := engine.NewBuilder()

	cs := d.Customer.Schema()
	selCust := scan(b, d.Customer,
		expr.Eq(expr.C(cs, "c_region"), expr.Str("ASIA")), "c_custkey", "c_nation")
	buildC, _ := b.Build(selCust, exec.BuildSpec{
		Name: "build(customer)", KeyCols: idx(selCust, "c_custkey"),
		Payload: idx(selCust, "c_nation"),
	})
	ss := d.Supplier.Schema()
	selSupp := scan(b, d.Supplier,
		expr.Eq(expr.C(ss, "s_region"), expr.Str("ASIA")), "s_suppkey", "s_nation")
	buildS, _ := b.Build(selSupp, exec.BuildSpec{
		Name: "build(supplier)", KeyCols: idx(selSupp, "s_suppkey"),
		Payload: idx(selSupp, "s_nation"),
	})
	dsch := d.Date.Schema()
	selDate := scan(b, d.Date,
		expr.Between(expr.C(dsch, "d_year"), expr.Int(1992), expr.Int(1997)),
		"d_datekey", "d_year")
	buildD, _ := b.Build(selDate, exec.BuildSpec{
		Name: "build(date)", KeyCols: idx(selDate, "d_datekey"),
		Payload: idx(selDate, "d_year"),
	})

	selLO := scan(b, d.Lineorder, nil, "lo_custkey", "lo_suppkey", "lo_orderdate", "lo_revenue")
	onCust := b.Probe(selLO, buildC, exec.ProbeSpec{
		Name: "probe(customer)", KeyCols: idx(selLO, "lo_custkey"),
		ProbeProj: idx(selLO, "lo_suppkey", "lo_orderdate", "lo_revenue"), BuildProj: []int{0},
	})
	onSupp := b.Probe(onCust, buildS, exec.ProbeSpec{
		Name: "probe(supplier)", KeyCols: idx(onCust, "lo_suppkey"),
		ProbeProj: idx(onCust, "lo_orderdate", "lo_revenue", "c_nation"), BuildProj: []int{0},
	})
	onDate := b.Probe(onSupp, buildD, exec.ProbeSpec{
		Name: "probe(date)", KeyCols: idx(onSupp, "lo_orderdate"),
		ProbeProj: idx(onSupp, "lo_revenue", "c_nation", "s_nation"), BuildProj: []int{0},
	})

	agg := b.Agg(onDate, exec.AggOpSpec{
		Name: "agg(q3.1)",
		GroupBy: []expr.Expr{
			expr.C(onDate.Schema, "c_nation"), expr.C(onDate.Schema, "s_nation"), expr.C(onDate.Schema, "d_year"),
		},
		GroupByNames: []string{"c_nation", "s_nation", "d_year"},
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Arg: expr.C(onDate.Schema, "lo_revenue"), Name: "revenue"},
		},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q3.1)", Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "d_year")},
		{Key: expr.C(agg.Schema, "revenue"), Desc: true},
	}})
	b.Collect(srt)
	return b
}

// q41 is SSB Q4.1: profit by year and customer nation across American
// customers and suppliers.
func q41(d *Dataset) *engine.Builder {
	b := engine.NewBuilder()

	cs := d.Customer.Schema()
	selCust := scan(b, d.Customer,
		expr.Eq(expr.C(cs, "c_region"), expr.Str("AMERICA")), "c_custkey", "c_nation")
	buildC, _ := b.Build(selCust, exec.BuildSpec{
		Name: "build(customer)", KeyCols: idx(selCust, "c_custkey"),
		Payload: idx(selCust, "c_nation"),
	})
	ss := d.Supplier.Schema()
	selSupp := scan(b, d.Supplier,
		expr.Eq(expr.C(ss, "s_region"), expr.Str("AMERICA")), "s_suppkey")
	buildS, _ := b.Build(selSupp, exec.BuildSpec{
		Name: "build(supplier)", KeyCols: idx(selSupp, "s_suppkey"),
	})
	ps := d.Part.Schema()
	selPart := scan(b, d.Part,
		expr.InStrings(expr.C(ps, "p_mfgr"), "MFGR#1", "MFGR#2"), "p_partkey")
	buildP, _ := b.Build(selPart, exec.BuildSpec{Name: "build(part)", KeyCols: idx(selPart, "p_partkey")})
	selDate := scan(b, d.Date, nil, "d_datekey", "d_year")
	buildD, _ := b.Build(selDate, exec.BuildSpec{
		Name: "build(date)", KeyCols: idx(selDate, "d_datekey"),
		Payload: idx(selDate, "d_year"),
	})

	selLO := scan(b, d.Lineorder, nil,
		"lo_custkey", "lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue", "lo_supplycost")
	onSupp := b.Probe(selLO, buildS, exec.ProbeSpec{
		Name: "probe(supplier)", KeyCols: idx(selLO, "lo_suppkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selLO, "lo_custkey", "lo_partkey", "lo_orderdate", "lo_revenue", "lo_supplycost"),
	})
	onPart := b.Probe(onSupp, buildP, exec.ProbeSpec{
		Name: "probe(part)", KeyCols: idx(onSupp, "lo_partkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(onSupp, "lo_custkey", "lo_orderdate", "lo_revenue", "lo_supplycost"),
	})
	onCust := b.Probe(onPart, buildC, exec.ProbeSpec{
		Name: "probe(customer)", KeyCols: idx(onPart, "lo_custkey"),
		ProbeProj: idx(onPart, "lo_orderdate", "lo_revenue", "lo_supplycost"), BuildProj: []int{0},
	})
	onDate := b.Probe(onCust, buildD, exec.ProbeSpec{
		Name: "probe(date)", KeyCols: idx(onCust, "lo_orderdate"),
		ProbeProj: idx(onCust, "lo_revenue", "lo_supplycost", "c_nation"), BuildProj: []int{0},
	})

	agg := b.Agg(onDate, exec.AggOpSpec{
		Name: "agg(q4.1)",
		GroupBy: []expr.Expr{
			expr.C(onDate.Schema, "d_year"), expr.C(onDate.Schema, "c_nation"),
		},
		GroupByNames: []string{"d_year", "c_nation"},
		Aggs: []exec.AggSpec{{
			Func: exec.Sum, Name: "profit",
			Arg: expr.SubE(expr.C(onDate.Schema, "lo_revenue"), expr.C(onDate.Schema, "lo_supplycost")),
		}},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q4.1)", Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "d_year")}, {Key: expr.C(agg.Schema, "c_nation")},
	}})
	b.Collect(srt)
	return b
}
