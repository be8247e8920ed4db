package tpch

import (
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
)

func init() {
	register(1, q01)
	register(3, q03)
	register(4, q04)
	register(5, q05)
	register(6, q06)
	register(7, q07)
	register(8, q08)
}

// q01: pricing summary report — a pure select→aggregate pipeline; the
// dominant operator is the leaf aggregation (Fig. 3 discussion).
func q01(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()
	ls := d.Lineitem.Schema()
	sel := scan(b, d.Lineitem,
		expr.Le(expr.C(ls, "l_shipdate"), expr.Date(1998, 9, 2)),
		"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax")
	s := sel.Schema
	discPrice := revenue(s, "l_extendedprice", "l_discount")
	charge := expr.MulE(discPrice, expr.AddE(expr.Float(1), expr.C(s, "l_tax")))
	agg := b.Agg(sel, exec.AggOpSpec{
		Name:         "agg(q1)",
		GroupBy:      []expr.Expr{expr.C(s, "l_returnflag"), expr.C(s, "l_linestatus")},
		GroupByNames: []string{"l_returnflag", "l_linestatus"},
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Arg: expr.C(s, "l_quantity"), Name: "sum_qty"},
			{Func: exec.Sum, Arg: expr.C(s, "l_extendedprice"), Name: "sum_base_price"},
			{Func: exec.Sum, Arg: discPrice, Name: "sum_disc_price"},
			{Func: exec.Sum, Arg: charge, Name: "sum_charge"},
			{Func: exec.Avg, Arg: expr.C(s, "l_quantity"), Name: "avg_qty"},
			{Func: exec.Avg, Arg: expr.C(s, "l_extendedprice"), Name: "avg_price"},
			{Func: exec.Avg, Arg: expr.C(s, "l_discount"), Name: "avg_disc"},
			{Func: exec.Count, Name: "count_order"},
		},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q1)", Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "l_returnflag")}, {Key: expr.C(agg.Schema, "l_linestatus")},
	}})
	b.Collect(srt)
	return b
}

// q03: shipping priority — the classic customer⋉orders⋈lineitem chain with
// a select→probe pipeline on lineitem.
func q03(d *Dataset, o QueryOpts) *engine.Builder {
	b := engine.NewBuilder()
	cutoff := expr.Date(1995, 3, 15)

	selCust := scan(b, d.Customer,
		expr.Eq(expr.C(d.Customer.Schema(), "c_mktsegment"), expr.Str("BUILDING")),
		"c_custkey")
	buildC, _ := b.Build(selCust, exec.BuildSpec{
		Name: "build(customer)", KeyCols: idx(selCust, "c_custkey"),
	})

	selOrd := scan(b, d.Orders,
		expr.Lt(expr.C(d.Orders.Schema(), "o_orderdate"), cutoff),
		"o_custkey", "o_orderkey", "o_orderdate", "o_shippriority")
	probeC := b.Probe(selOrd, buildC, exec.ProbeSpec{
		Name: "probe(customer)", KeyCols: idx(selOrd, "o_custkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selOrd, "o_orderkey", "o_orderdate", "o_shippriority"),
	})
	buildO, buildOp := b.Build(probeC, exec.BuildSpec{
		Name: "build(orders)", KeyCols: idx(probeC, "o_orderkey"),
		Payload: idx(probeC, "o_orderdate", "o_shippriority"),
	})

	ls := d.Lineitem.Schema()
	lineSpec := exec.SelectSpec{
		Name: "select(lineitem)", Base: d.Lineitem,
		Pred: expr.Gt(expr.C(ls, "l_shipdate"), cutoff),
	}
	lineSpec.Proj, lineSpec.ProjNames = proj(ls, "l_orderkey", "l_extendedprice", "l_discount")
	if o.LIP {
		lineSpec.LIPs = []exec.LIPRef{{Build: buildOp, KeyCol: ls.MustColIndex("l_orderkey")}}
	}
	selLine := b.ScanSelect(lineSpec)
	probeO := b.Probe(selLine, buildO, exec.ProbeSpec{
		Name: "probe(orders)", KeyCols: idx(selLine, "l_orderkey"),
		ProbeProj: idx(selLine, "l_orderkey", "l_extendedprice", "l_discount"),
		BuildProj: []int{0, 1},
	})

	ps := probeO.Schema
	agg := b.Agg(probeO, exec.AggOpSpec{
		Name: "agg(q3)",
		GroupBy: []expr.Expr{
			expr.C(ps, "l_orderkey"), expr.C(ps, "o_orderdate"), expr.C(ps, "o_shippriority"),
		},
		GroupByNames: []string{"l_orderkey", "o_orderdate", "o_shippriority"},
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Arg: revenue(ps, "l_extendedprice", "l_discount"), Name: "revenue"},
		},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q3)", Limit: 10, Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "revenue"), Desc: true}, {Key: expr.C(agg.Schema, "o_orderdate")},
	}})
	b.Collect(srt)
	return b
}

// q04: order priority checking — EXISTS turned into a semi join against a
// hash table built on (filtered) lineitem.
func q04(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()
	ls := d.Lineitem.Schema()

	selLine := scan(b, d.Lineitem,
		expr.Lt(expr.C(ls, "l_commitdate"), expr.C(ls, "l_receiptdate")),
		"l_orderkey")
	buildL, _ := b.Build(selLine, exec.BuildSpec{
		Name: "build(lineitem)", KeyCols: idx(selLine, "l_orderkey"),
	})

	os := d.Orders.Schema()
	selOrd := scan(b, d.Orders,
		expr.And(
			expr.Ge(expr.C(os, "o_orderdate"), expr.Date(1993, 7, 1)),
			expr.Lt(expr.C(os, "o_orderdate"), expr.Date(1993, 10, 1)),
		),
		"o_orderkey", "o_orderpriority")
	probe := b.Probe(selOrd, buildL, exec.ProbeSpec{
		Name: "probe(lineitem)", KeyCols: idx(selOrd, "o_orderkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selOrd, "o_orderpriority"),
	})

	agg := b.Agg(probe, exec.AggOpSpec{
		Name:         "agg(q4)",
		GroupBy:      []expr.Expr{expr.C(probe.Schema, "o_orderpriority")},
		GroupByNames: []string{"o_orderpriority"},
		Aggs:         []exec.AggSpec{{Func: exec.Count, Name: "order_count"}},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q4)", Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "o_orderpriority")},
	}})
	b.Collect(srt)
	return b
}

// q05: local supplier volume — a five-way join; the nation name travels in
// hash-table payloads, and the supplier join uses a composite key
// (l_suppkey, c_nationkey).
func q05(d *Dataset, o QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	selReg := scan(b, d.Region,
		expr.Eq(expr.C(d.Region.Schema(), "r_name"), expr.Str("ASIA")), "r_regionkey")
	buildR, _ := b.Build(selReg, exec.BuildSpec{Name: "build(region)", KeyCols: idx(selReg, "r_regionkey")})

	selNat := scan(b, d.Nation, nil, "n_regionkey", "n_nationkey", "n_name")
	natAsia := b.Probe(selNat, buildR, exec.ProbeSpec{
		Name: "probe(region)", KeyCols: idx(selNat, "n_regionkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selNat, "n_nationkey", "n_name"),
	})
	buildN, _ := b.Build(natAsia, exec.BuildSpec{
		Name: "build(nation)", KeyCols: idx(natAsia, "n_nationkey"),
		Payload: idx(natAsia, "n_name"),
	})

	selCust := scan(b, d.Customer, nil, "c_custkey", "c_nationkey")
	custAsia := b.Probe(selCust, buildN, exec.ProbeSpec{
		Name: "probe(nation)", KeyCols: idx(selCust, "c_nationkey"),
		ProbeProj: idx(selCust, "c_custkey", "c_nationkey"), BuildProj: []int{0},
	})
	buildC, _ := b.Build(custAsia, exec.BuildSpec{
		Name: "build(customer)", KeyCols: idx(custAsia, "c_custkey"),
		Payload: idx(custAsia, "c_nationkey", "n_name"),
	})

	os := d.Orders.Schema()
	selOrd := scan(b, d.Orders,
		expr.And(
			expr.Ge(expr.C(os, "o_orderdate"), expr.Date(1994, 1, 1)),
			expr.Lt(expr.C(os, "o_orderdate"), expr.Date(1995, 1, 1)),
		),
		"o_orderkey", "o_custkey")
	ordAsia := b.Probe(selOrd, buildC, exec.ProbeSpec{
		Name: "probe(customer)", KeyCols: idx(selOrd, "o_custkey"),
		ProbeProj: idx(selOrd, "o_orderkey"), BuildProj: []int{0, 1},
	})
	buildO, buildOp := b.Build(ordAsia, exec.BuildSpec{
		Name: "build(orders)", KeyCols: idx(ordAsia, "o_orderkey"),
		Payload: idx(ordAsia, "c_nationkey", "n_name"),
	})

	selSupp := scan(b, d.Supplier, nil, "s_suppkey", "s_nationkey")
	buildS, _ := b.Build(selSupp, exec.BuildSpec{
		Name: "build(supplier)", KeyCols: idx(selSupp, "s_suppkey", "s_nationkey"),
	})

	ls := d.Lineitem.Schema()
	lineSpec := exec.SelectSpec{Name: "select(lineitem)", Base: d.Lineitem}
	lineSpec.Proj, lineSpec.ProjNames = proj(ls, "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount")
	if o.LIP {
		lineSpec.LIPs = []exec.LIPRef{{Build: buildOp, KeyCol: ls.MustColIndex("l_orderkey")}}
	}
	selLine := b.ScanSelect(lineSpec)
	lineOrd := b.Probe(selLine, buildO, exec.ProbeSpec{
		Name: "probe(orders)", KeyCols: idx(selLine, "l_orderkey"),
		ProbeProj: idx(selLine, "l_suppkey", "l_extendedprice", "l_discount"),
		BuildProj: []int{0, 1},
	})
	lineSupp := b.Probe(lineOrd, buildS, exec.ProbeSpec{
		Name:    "probe(supplier)",
		KeyCols: idx(lineOrd, "l_suppkey", "c_nationkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(lineOrd, "l_extendedprice", "l_discount", "n_name"),
	})

	agg := b.Agg(lineSupp, exec.AggOpSpec{
		Name:         "agg(q5)",
		GroupBy:      []expr.Expr{expr.C(lineSupp.Schema, "n_name")},
		GroupByNames: []string{"n_name"},
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Arg: revenue(lineSupp.Schema, "l_extendedprice", "l_discount"), Name: "revenue"},
		},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q5)", Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "revenue"), Desc: true},
	}})
	b.Collect(srt)
	return b
}

// q06: forecasting revenue change — a single select→scalar-aggregate; the
// dominant operator is the leaf select (Fig. 3).
func q06(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()
	ls := d.Lineitem.Schema()
	sel := scan(b, d.Lineitem,
		expr.And(
			expr.Ge(expr.C(ls, "l_shipdate"), expr.Date(1994, 1, 1)),
			expr.Lt(expr.C(ls, "l_shipdate"), expr.Date(1995, 1, 1)),
			expr.Between(expr.C(ls, "l_discount"), expr.Float(0.05), expr.Float(0.07)),
			expr.Lt(expr.C(ls, "l_quantity"), expr.Float(24)),
		),
		"l_extendedprice", "l_discount")
	agg := b.Agg(sel, exec.AggOpSpec{
		Name: "agg(q6)",
		Aggs: []exec.AggSpec{{
			Func: exec.Sum,
			Arg:  expr.MulE(expr.C(sel.Schema, "l_extendedprice"), expr.C(sel.Schema, "l_discount")),
			Name: "revenue",
		}},
	})
	b.Collect(agg)
	return b
}

// q07: volume shipping — the paper's running example: a select on lineitem
// feeding a cascade of three probes, where the orders hash table is built on
// the entire table (the ~2.4 GB table of Section VI-C) and the supplier hash
// table is small — the two probes of Figs. 9 and 10.
func q07(d *Dataset, o QueryOpts) *engine.Builder {
	b := engine.NewBuilder()
	natPred := expr.InStrings(expr.C(d.Nation.Schema(), "n_name"), "FRANCE", "GERMANY")

	selNat1 := scan(b, d.Nation, natPred, "n_nationkey", "n_name")
	buildN1, _ := b.Build(selNat1, exec.BuildSpec{
		Name: "build(nation1)", KeyCols: idx(selNat1, "n_nationkey"),
		Payload: idx(selNat1, "n_name"),
	})
	selSupp := scan(b, d.Supplier, nil, "s_suppkey", "s_nationkey")
	suppNat := b.Probe(selSupp, buildN1, exec.ProbeSpec{
		Name: "probe(nation1)", KeyCols: idx(selSupp, "s_nationkey"),
		ProbeProj: idx(selSupp, "s_suppkey"), BuildProj: []int{0},
		Rename: []string{"s_suppkey", "supp_nation"},
	})
	buildS, buildSOp := b.Build(suppNat, exec.BuildSpec{
		Name: "build(supplier)", KeyCols: idx(suppNat, "s_suppkey"),
		Payload: idx(suppNat, "supp_nation"),
	})

	selNat2 := scan(b, d.Nation, natPred, "n_nationkey", "n_name")
	buildN2, _ := b.Build(selNat2, exec.BuildSpec{
		Name: "build(nation2)", KeyCols: idx(selNat2, "n_nationkey"),
		Payload: idx(selNat2, "n_name"),
	})
	selCust := scan(b, d.Customer, nil, "c_custkey", "c_nationkey")
	custNat := b.Probe(selCust, buildN2, exec.ProbeSpec{
		Name: "probe(nation2)", KeyCols: idx(selCust, "c_nationkey"),
		ProbeProj: idx(selCust, "c_custkey"), BuildProj: []int{0},
		Rename: []string{"c_custkey", "cust_nation"},
	})
	buildC, buildCOp := b.Build(custNat, exec.BuildSpec{
		Name: "build(customer)", KeyCols: idx(custNat, "c_custkey"),
		Payload: idx(custNat, "cust_nation"),
	})

	// The orders hash table is deliberately built on the ENTIRE table,
	// matching the plan the paper analyzes (its probe is the
	// poor-scalability operator of Fig. 9).
	selOrd := scan(b, d.Orders, nil, "o_orderkey", "o_custkey")
	buildO, _ := b.Build(selOrd, exec.BuildSpec{
		Name: "build(orders)", KeyCols: idx(selOrd, "o_orderkey"),
		Payload: idx(selOrd, "o_custkey"),
	})

	ls := d.Lineitem.Schema()
	lineSpec := exec.SelectSpec{
		Name: "select(lineitem)", Base: d.Lineitem,
		Pred: expr.Between(expr.C(ls, "l_shipdate"), expr.Date(1995, 1, 1), expr.Date(1996, 12, 31)),
	}
	lineSpec.Proj, lineSpec.ProjNames = proj(ls, "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate")
	// LIP needs the supplier hash table before the lineitem scan, but
	// staged execution builds that table only after the first probe — the
	// two are incompatible, so staging wins.
	if o.LIP && !o.Staged {
		lineSpec.LIPs = []exec.LIPRef{{Build: buildSOp, KeyCol: ls.MustColIndex("l_suppkey")}}
	}
	selLine := b.ScanSelect(lineSpec)

	// The cascade probes the whole-table orders hash first (the paper's
	// large, poorly-scaling probe, Section VII-B5), then the small
	// supplier hash, then customer with the nation-pair residual.
	probeOrd := b.Probe(selLine, buildO, exec.ProbeSpec{
		Name: "probe(orders)", KeyCols: idx(selLine, "l_orderkey"),
		ProbeProj: idx(selLine, "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"),
		BuildProj: []int{0},
	})
	probeSupp := b.Probe(probeOrd, buildS, exec.ProbeSpec{
		Name: "probe(supplier)", KeyCols: idx(probeOrd, "l_suppkey"),
		ProbeProj: idx(probeOrd, "l_extendedprice", "l_discount", "l_shipdate", "o_custkey"),
		BuildProj: []int{0},
	})
	custPay := buildCOp.PayloadSchema()
	probeCust := b.Probe(probeSupp, buildC, exec.ProbeSpec{
		Name: "probe(customer)", KeyCols: idx(probeSupp, "o_custkey"),
		Residual: expr.Or(
			expr.And(
				expr.Eq(expr.C(probeSupp.Schema, "supp_nation"), expr.Str("FRANCE")),
				expr.Eq(expr.C2(custPay, "cust_nation"), expr.Str("GERMANY")),
			),
			expr.And(
				expr.Eq(expr.C(probeSupp.Schema, "supp_nation"), expr.Str("GERMANY")),
				expr.Eq(expr.C2(custPay, "cust_nation"), expr.Str("FRANCE")),
			),
		),
		ProbeProj: idx(probeSupp, "l_extendedprice", "l_discount", "l_shipdate", "supp_nation"),
		BuildProj: []int{0},
	})

	if o.Staged {
		// One join at a time (Table II's high-UoT execution): each hash
		// table is built only after the previous probe completed, so at
		// most one cascade hash table is live at any moment.
		b.Gate(probeOrd, buildS)
		b.Gate(probeSupp, buildC)
	}

	ps := probeCust.Schema
	agg := b.Agg(probeCust, exec.AggOpSpec{
		Name: "agg(q7)",
		GroupBy: []expr.Expr{
			expr.C(ps, "supp_nation"), expr.C(ps, "cust_nation"), expr.Year(expr.C(ps, "l_shipdate")),
		},
		GroupByNames: []string{"supp_nation", "cust_nation", "l_year"},
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Arg: revenue(ps, "l_extendedprice", "l_discount"), Name: "revenue"},
		},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q7)", Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "supp_nation")},
		{Key: expr.C(agg.Schema, "cust_nation")},
		{Key: expr.C(agg.Schema, "l_year")},
	}})
	b.Collect(srt)
	return b
}

// q08: national market share — semi-join reductions down to a CASE-based
// two-sum aggregate.
func q08(d *Dataset, o QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	selReg := scan(b, d.Region,
		expr.Eq(expr.C(d.Region.Schema(), "r_name"), expr.Str("AMERICA")), "r_regionkey")
	buildR, _ := b.Build(selReg, exec.BuildSpec{Name: "build(region)", KeyCols: idx(selReg, "r_regionkey")})
	selNatAm := scan(b, d.Nation, nil, "n_regionkey", "n_nationkey")
	natAm := b.Probe(selNatAm, buildR, exec.ProbeSpec{
		Name: "probe(region)", KeyCols: idx(selNatAm, "n_regionkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selNatAm, "n_nationkey"),
	})
	buildNAm, _ := b.Build(natAm, exec.BuildSpec{
		Name: "build(nation_am)", KeyCols: idx(natAm, "n_nationkey"),
	})
	selCust := scan(b, d.Customer, nil, "c_nationkey", "c_custkey")
	custAm := b.Probe(selCust, buildNAm, exec.ProbeSpec{
		Name: "probe(nation_am)", KeyCols: idx(selCust, "c_nationkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selCust, "c_custkey"),
	})
	buildC, _ := b.Build(custAm, exec.BuildSpec{Name: "build(customer)", KeyCols: idx(custAm, "c_custkey")})

	os := d.Orders.Schema()
	selOrd := scan(b, d.Orders,
		expr.Between(expr.C(os, "o_orderdate"), expr.Date(1995, 1, 1), expr.Date(1996, 12, 31)),
		"o_custkey", "o_orderkey", "o_orderdate")
	ordAm := b.Probe(selOrd, buildC, exec.ProbeSpec{
		Name: "probe(customer)", KeyCols: idx(selOrd, "o_custkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selOrd, "o_orderkey", "o_orderdate"),
	})
	buildO, buildOOp := b.Build(ordAm, exec.BuildSpec{
		Name: "build(orders)", KeyCols: idx(ordAm, "o_orderkey"),
		Payload: idx(ordAm, "o_orderdate"),
	})

	selNatAll := scan(b, d.Nation, nil, "n_nationkey", "n_name")
	buildNAll, _ := b.Build(selNatAll, exec.BuildSpec{
		Name: "build(nation_all)", KeyCols: idx(selNatAll, "n_nationkey"),
		Payload: idx(selNatAll, "n_name"),
	})
	selSupp := scan(b, d.Supplier, nil, "s_suppkey", "s_nationkey")
	suppNat := b.Probe(selSupp, buildNAll, exec.ProbeSpec{
		Name: "probe(nation_all)", KeyCols: idx(selSupp, "s_nationkey"),
		ProbeProj: idx(selSupp, "s_suppkey"), BuildProj: []int{0},
	})
	buildS, _ := b.Build(suppNat, exec.BuildSpec{
		Name: "build(supplier)", KeyCols: idx(suppNat, "s_suppkey"),
		Payload: idx(suppNat, "n_name"),
	})

	ps0 := d.Part.Schema()
	selPart := scan(b, d.Part,
		expr.Eq(expr.C(ps0, "p_type"), expr.Str("ECONOMY ANODIZED STEEL")), "p_partkey")
	buildP, buildPOp := b.Build(selPart, exec.BuildSpec{
		Name: "build(part)", KeyCols: idx(selPart, "p_partkey"),
	})

	ls := d.Lineitem.Schema()
	lineSpec := exec.SelectSpec{Name: "select(lineitem)", Base: d.Lineitem}
	lineSpec.Proj, lineSpec.ProjNames = proj(ls, "l_partkey", "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount")
	if o.LIP {
		lineSpec.LIPs = []exec.LIPRef{
			{Build: buildPOp, KeyCol: ls.MustColIndex("l_partkey")},
			{Build: buildOOp, KeyCol: ls.MustColIndex("l_orderkey")},
		}
	}
	selLine := b.ScanSelect(lineSpec)
	linePart := b.Probe(selLine, buildP, exec.ProbeSpec{
		Name: "probe(part)", KeyCols: idx(selLine, "l_partkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selLine, "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"),
	})
	lineOrd := b.Probe(linePart, buildO, exec.ProbeSpec{
		Name: "probe(orders)", KeyCols: idx(linePart, "l_orderkey"),
		ProbeProj: idx(linePart, "l_suppkey", "l_extendedprice", "l_discount"),
		BuildProj: []int{0},
	})
	lineSupp := b.Probe(lineOrd, buildS, exec.ProbeSpec{
		Name: "probe(supplier)", KeyCols: idx(lineOrd, "l_suppkey"),
		ProbeProj: idx(lineOrd, "l_extendedprice", "l_discount", "o_orderdate"),
		BuildProj: []int{0},
		Rename:    []string{"l_extendedprice", "l_discount", "o_orderdate", "nation"},
	})

	s := lineSupp.Schema
	vol := revenue(s, "l_extendedprice", "l_discount")
	agg := b.Agg(lineSupp, exec.AggOpSpec{
		Name:         "agg(q8)",
		GroupBy:      []expr.Expr{expr.Year(expr.C(s, "o_orderdate"))},
		GroupByNames: []string{"o_year"},
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Name: "brazil_volume",
				Arg: expr.Case(expr.Float(0), expr.When{
					Cond: expr.Eq(expr.C(s, "nation"), expr.Str("BRAZIL")), Then: vol,
				})},
			{Func: exec.Sum, Arg: vol, Name: "total_volume"},
		},
	})
	share := b.Select(agg, exec.SelectSpec{
		Name: "compute(mkt_share)",
		Proj: []expr.Expr{
			expr.C(agg.Schema, "o_year"),
			expr.DivE(expr.C(agg.Schema, "brazil_volume"), expr.C(agg.Schema, "total_volume")),
		},
		ProjNames: []string{"o_year", "mkt_share"},
	})
	srt := b.Sort(share, exec.SortSpec{Name: "sort(q8)", Terms: []exec.SortTerm{
		{Key: expr.C(share.Schema, "o_year")},
	}})
	b.Collect(srt)
	return b
}
