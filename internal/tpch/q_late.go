package tpch

import (
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
)

func init() {
	register(10, q10)
	register(13, q13)
	register(14, q14)
	register(15, q15)
	register(19, q19)
	register(21, q21)
	register(22, q22)
}

// q10: returned item reporting — customer attributes travel in hash-table
// payloads down to the lineitem probe.
func q10(d *Dataset, o QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	selNat := scan(b, d.Nation, nil, "n_nationkey", "n_name")
	buildN, _ := b.Build(selNat, exec.BuildSpec{
		Name: "build(nation)", KeyCols: idx(selNat, "n_nationkey"),
		Payload: idx(selNat, "n_name"),
	})
	selCust := scan(b, d.Customer, nil,
		"c_nationkey", "c_custkey", "c_name", "c_acctbal", "c_phone", "c_address", "c_comment")
	custNat := b.Probe(selCust, buildN, exec.ProbeSpec{
		Name:    "probe(nation)",
		KeyCols: idx(selCust, "c_nationkey"),
		ProbeProj: idx(selCust,
			"c_custkey", "c_name", "c_acctbal", "c_phone", "c_address", "c_comment"),
		BuildProj: []int{0},
	})
	buildC, _ := b.Build(custNat, exec.BuildSpec{
		Name:    "build(customer)",
		KeyCols: idx(custNat, "c_custkey"),
		Payload: idx(custNat,
			"c_custkey", "c_name", "c_acctbal", "c_phone", "c_address", "c_comment", "n_name"),
	})

	os := d.Orders.Schema()
	selOrd := scan(b, d.Orders,
		expr.And(
			expr.Ge(expr.C(os, "o_orderdate"), expr.Date(1993, 10, 1)),
			expr.Lt(expr.C(os, "o_orderdate"), expr.Date(1994, 1, 1)),
		),
		"o_custkey", "o_orderkey")
	ordCust := b.Probe(selOrd, buildC, exec.ProbeSpec{
		Name: "probe(customer)", KeyCols: idx(selOrd, "o_custkey"),
		ProbeProj: idx(selOrd, "o_orderkey"),
		BuildProj: []int{0, 1, 2, 3, 4, 5, 6},
	})
	buildO, buildOOp := b.Build(ordCust, exec.BuildSpec{
		Name:    "build(orders)",
		KeyCols: idx(ordCust, "o_orderkey"),
		Payload: idx(ordCust,
			"c_custkey", "c_name", "c_acctbal", "c_phone", "c_address", "c_comment", "n_name"),
	})

	ls := d.Lineitem.Schema()
	lineSpec := exec.SelectSpec{
		Name: "select(lineitem)", Base: d.Lineitem,
		Pred: expr.Eq(expr.C(ls, "l_returnflag"), expr.Str("R")),
	}
	lineSpec.Proj, lineSpec.ProjNames = proj(ls, "l_orderkey", "l_extendedprice", "l_discount")
	if o.LIP {
		lineSpec.LIPs = []exec.LIPRef{{Build: buildOOp, KeyCol: ls.MustColIndex("l_orderkey")}}
	}
	selLine := b.ScanSelect(lineSpec)
	lineOrd := b.Probe(selLine, buildO, exec.ProbeSpec{
		Name: "probe(orders)", KeyCols: idx(selLine, "l_orderkey"),
		ProbeProj: idx(selLine, "l_extendedprice", "l_discount"),
		BuildProj: []int{0, 1, 2, 3, 4, 5, 6},
	})

	s := lineOrd.Schema
	agg := b.Agg(lineOrd, exec.AggOpSpec{
		Name: "agg(q10)",
		GroupBy: []expr.Expr{
			expr.C(s, "c_custkey"), expr.C(s, "c_name"), expr.C(s, "c_acctbal"),
			expr.C(s, "c_phone"), expr.C(s, "n_name"), expr.C(s, "c_address"), expr.C(s, "c_comment"),
		},
		GroupByNames: []string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"},
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Arg: revenue(s, "l_extendedprice", "l_discount"), Name: "revenue"},
		},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q10)", Limit: 20, Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "revenue"), Desc: true},
	}})
	b.Collect(srt)
	return b
}

// q13: customer distribution — an aggregate on orders left-outer-joined back
// to customer; the zero-fill of the outer join supplies the count-0 bucket.
func q13(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()
	os := d.Orders.Schema()

	selOrd := scan(b, d.Orders,
		expr.NotLike(expr.C(os, "o_comment"), "%special%requests%"),
		"o_custkey")
	aggOrd := b.Agg(selOrd, exec.AggOpSpec{
		Name:         "agg(orders)",
		GroupBy:      []expr.Expr{expr.C(selOrd.Schema, "o_custkey")},
		GroupByNames: []string{"o_custkey"},
		Aggs:         []exec.AggSpec{{Func: exec.Count, Name: "c_count"}},
	})
	buildA, _ := b.Build(aggOrd, exec.BuildSpec{
		Name: "build(ordcount)", KeyCols: idx(aggOrd, "o_custkey"),
		Payload: idx(aggOrd, "c_count"),
	})

	selCust := scan(b, d.Customer, nil, "c_custkey")
	probe := b.Probe(selCust, buildA, exec.ProbeSpec{
		Name: "probe(ordcount)", KeyCols: idx(selCust, "c_custkey"), JoinType: exec.LeftOuter,
		ProbeProj: idx(selCust, "c_custkey"), BuildProj: []int{0},
	})

	agg := b.Agg(probe, exec.AggOpSpec{
		Name:         "agg(q13)",
		GroupBy:      []expr.Expr{expr.C(probe.Schema, "c_count")},
		GroupByNames: []string{"c_count"},
		Aggs:         []exec.AggSpec{{Func: exec.Count, Name: "custdist"}},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q13)", Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "custdist"), Desc: true},
		{Key: expr.C(agg.Schema, "c_count"), Desc: true},
	}})
	b.Collect(srt)
	return b
}

// q14: promotion effect — lineitem probes an unfiltered part hash table and
// a CASE splits the revenue sum.
func q14(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	selPart := scan(b, d.Part, nil, "p_partkey", "p_type")
	buildP, _ := b.Build(selPart, exec.BuildSpec{
		Name: "build(part)", KeyCols: idx(selPart, "p_partkey"),
		Payload: idx(selPart, "p_type"),
	})

	ls := d.Lineitem.Schema()
	selLine := scan(b, d.Lineitem,
		expr.And(
			expr.Ge(expr.C(ls, "l_shipdate"), expr.Date(1995, 9, 1)),
			expr.Lt(expr.C(ls, "l_shipdate"), expr.Date(1995, 10, 1)),
		),
		"l_partkey", "l_extendedprice", "l_discount")
	probe := b.Probe(selLine, buildP, exec.ProbeSpec{
		Name: "probe(part)", KeyCols: idx(selLine, "l_partkey"),
		ProbeProj: idx(selLine, "l_extendedprice", "l_discount"),
		BuildProj: []int{0},
	})

	s := probe.Schema
	vol := revenue(s, "l_extendedprice", "l_discount")
	agg := b.Agg(probe, exec.AggOpSpec{
		Name: "agg(q14)",
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Name: "promo",
				Arg: expr.Case(expr.Float(0), expr.When{
					Cond: expr.Like(expr.C(s, "p_type"), "PROMO%"), Then: vol,
				})},
			{Func: exec.Sum, Arg: vol, Name: "total"},
		},
	})
	out := b.Select(agg, exec.SelectSpec{
		Name: "compute(promo_revenue)",
		Proj: []expr.Expr{expr.MulE(expr.Float(100),
			expr.DivE(expr.C(agg.Schema, "promo"), expr.C(agg.Schema, "total")))},
		ProjNames: []string{"promo_revenue"},
	})
	b.Collect(out)
	return b
}

// q15: top supplier — the revenue aggregate fans out to both a scalar MAX
// and the filtered join input (the one plan with an intermediate consumed by
// two operators).
func q15(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()
	ls := d.Lineitem.Schema()

	selLine := scan(b, d.Lineitem,
		expr.And(
			expr.Ge(expr.C(ls, "l_shipdate"), expr.Date(1996, 1, 1)),
			expr.Lt(expr.C(ls, "l_shipdate"), expr.Date(1996, 4, 1)),
		),
		"l_suppkey", "l_extendedprice", "l_discount")
	rev := b.Agg(selLine, exec.AggOpSpec{
		Name:         "agg(revenue)",
		GroupBy:      []expr.Expr{expr.C(selLine.Schema, "l_suppkey")},
		GroupByNames: []string{"supplier_no"},
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Arg: revenue(selLine.Schema, "l_extendedprice", "l_discount"), Name: "total_revenue"},
		},
	})
	maxRev := b.Agg(rev, exec.AggOpSpec{
		Name: "agg(max)",
		Aggs: []exec.AggSpec{{Func: exec.Max, Arg: expr.C(rev.Schema, "total_revenue"), Name: "m"}},
	})
	slot := b.Scalar(maxRev)

	top := b.Select(rev, exec.SelectSpec{
		Name:      "filter(top)",
		Pred:      expr.Eq(expr.C(rev.Schema, "total_revenue"), expr.Param(slot, types.Float64)),
		Proj:      []expr.Expr{expr.C(rev.Schema, "supplier_no"), expr.C(rev.Schema, "total_revenue")},
		ProjNames: []string{"supplier_no", "total_revenue"},
	})
	b.Gate(maxRev, top)
	buildT, _ := b.Build(top, exec.BuildSpec{
		Name: "build(top)", KeyCols: idx(top, "supplier_no"),
		Payload: idx(top, "total_revenue"),
	})

	selSupp := scan(b, d.Supplier, nil, "s_suppkey", "s_name", "s_address", "s_phone")
	probe := b.Probe(selSupp, buildT, exec.ProbeSpec{
		Name: "probe(top)", KeyCols: idx(selSupp, "s_suppkey"),
		ProbeProj: idx(selSupp, "s_suppkey", "s_name", "s_address", "s_phone"),
		BuildProj: []int{0},
	})
	srt := b.Sort(probe, exec.SortSpec{Name: "sort(q15)", Terms: []exec.SortTerm{
		{Key: expr.C(probe.Schema, "s_suppkey")},
	}})
	b.Collect(srt)
	return b
}

// q19: discounted revenue — a disjunctive residual predicate over both join
// sides, the paper's select→probe microbenchmark shape.
func q19(d *Dataset, o QueryOpts) *engine.Builder {
	b := engine.NewBuilder()
	ps := d.Part.Schema()

	selPart := scan(b, d.Part,
		expr.Between(expr.C(ps, "p_size"), expr.Int(1), expr.Int(15)),
		"p_partkey", "p_brand", "p_container", "p_size")
	buildP, buildPOp := b.Build(selPart, exec.BuildSpec{
		Name:    "build(part)",
		KeyCols: idx(selPart, "p_partkey"),
		Payload: idx(selPart, "p_brand", "p_container", "p_size"),
	})

	ls := d.Lineitem.Schema()
	lineSpec := exec.SelectSpec{
		Name: "select(lineitem)", Base: d.Lineitem,
		Pred: expr.And(
			expr.InStrings(expr.C(ls, "l_shipmode"), "AIR", "REG AIR"),
			expr.Eq(expr.C(ls, "l_shipinstruct"), expr.Str("DELIVER IN PERSON")),
		),
	}
	lineSpec.Proj, lineSpec.ProjNames = proj(ls, "l_partkey", "l_quantity", "l_extendedprice", "l_discount")
	if o.LIP {
		lineSpec.LIPs = []exec.LIPRef{{Build: buildPOp, KeyCol: ls.MustColIndex("l_partkey")}}
	}
	selLine := b.ScanSelect(lineSpec)

	pay := buildPOp.PayloadSchema()
	qty := expr.C(selLine.Schema, "l_quantity")
	branch := func(brand string, containers []string, qlo, qhi float64, smax int64) expr.Expr {
		return expr.And(
			expr.Eq(expr.C2(pay, "p_brand"), expr.Str(brand)),
			expr.InStrings(expr.C2(pay, "p_container"), containers...),
			expr.Between(qty, expr.Float(qlo), expr.Float(qhi)),
			expr.Le(expr.C2(pay, "p_size"), expr.Int(smax)),
		)
	}
	probe := b.Probe(selLine, buildP, exec.ProbeSpec{
		Name: "probe(part)", KeyCols: idx(selLine, "l_partkey"),
		Residual: expr.Or(
			branch("Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5),
			branch("Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10),
			branch("Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15),
		),
		ProbeProj: idx(selLine, "l_extendedprice", "l_discount"),
	})

	agg := b.Agg(probe, exec.AggOpSpec{
		Name: "agg(q19)",
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Arg: revenue(probe.Schema, "l_extendedprice", "l_discount"), Name: "revenue"},
		},
	})
	b.Collect(agg)
	return b
}

// q21: suppliers who kept orders waiting — EXISTS and NOT EXISTS over
// lineitem become semi and anti joins with suppkey-inequality residuals.
func q21(d *Dataset, o QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	selNat := scan(b, d.Nation,
		expr.Eq(expr.C(d.Nation.Schema(), "n_name"), expr.Str("SAUDI ARABIA")),
		"n_nationkey")
	buildN, _ := b.Build(selNat, exec.BuildSpec{Name: "build(nation)", KeyCols: idx(selNat, "n_nationkey")})
	selSupp := scan(b, d.Supplier, nil, "s_nationkey", "s_suppkey", "s_name")
	suppSA := b.Probe(selSupp, buildN, exec.ProbeSpec{
		Name: "probe(nation)", KeyCols: idx(selSupp, "s_nationkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selSupp, "s_suppkey", "s_name"),
	})
	buildS, buildSOp := b.Build(suppSA, exec.BuildSpec{
		Name: "build(supplier)", KeyCols: idx(suppSA, "s_suppkey"),
		Payload: idx(suppSA, "s_name"),
	})

	selOrd := scan(b, d.Orders,
		expr.Eq(expr.C(d.Orders.Schema(), "o_orderstatus"), expr.Str("F")),
		"o_orderkey")
	buildO, _ := b.Build(selOrd, exec.BuildSpec{Name: "build(orders)", KeyCols: idx(selOrd, "o_orderkey")})

	ls := d.Lineitem.Schema()
	late := expr.Gt(expr.C(ls, "l_receiptdate"), expr.C(ls, "l_commitdate"))

	l2 := scan(b, d.Lineitem, nil, "l_orderkey", "l_suppkey")
	buildL2, buildL2Op := b.Build(l2, exec.BuildSpec{
		Name: "build(l2)", KeyCols: idx(l2, "l_orderkey"),
		Payload: idx(l2, "l_suppkey"),
	})
	l3 := scan(b, d.Lineitem, late, "l_orderkey", "l_suppkey")
	buildL3, buildL3Op := b.Build(l3, exec.BuildSpec{
		Name: "build(l3)", KeyCols: idx(l3, "l_orderkey"),
		Payload: idx(l3, "l_suppkey"),
	})

	l1Spec := exec.SelectSpec{Name: "select(lineitem)", Base: d.Lineitem, Pred: late}
	l1Spec.Proj, l1Spec.ProjNames = proj(ls, "l_orderkey", "l_suppkey")
	if o.LIP {
		l1Spec.LIPs = []exec.LIPRef{{Build: buildSOp, KeyCol: ls.MustColIndex("l_suppkey")}}
	}
	l1 := b.ScanSelect(l1Spec)

	withName := b.Probe(l1, buildS, exec.ProbeSpec{
		Name: "probe(supplier)", KeyCols: idx(l1, "l_suppkey"),
		ProbeProj: idx(l1, "l_orderkey", "l_suppkey"), BuildProj: []int{0},
	})
	fOrders := b.Probe(withName, buildO, exec.ProbeSpec{
		Name: "probe(orders)", KeyCols: idx(withName, "l_orderkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(withName, "l_orderkey", "l_suppkey", "s_name"),
	})
	exists2 := b.Probe(fOrders, buildL2, exec.ProbeSpec{
		Name: "probe(l2)", KeyCols: idx(fOrders, "l_orderkey"), JoinType: exec.LeftSemi,
		Residual: expr.Ne(expr.C2(buildL2Op.PayloadSchema(), "l_suppkey"),
			expr.C(fOrders.Schema, "l_suppkey")),
		ProbeProj: idx(fOrders, "l_orderkey", "l_suppkey", "s_name"),
	})
	notExists3 := b.Probe(exists2, buildL3, exec.ProbeSpec{
		Name: "probe(l3)", KeyCols: idx(exists2, "l_orderkey"), JoinType: exec.LeftAnti,
		Residual: expr.Ne(expr.C2(buildL3Op.PayloadSchema(), "l_suppkey"),
			expr.C(exists2.Schema, "l_suppkey")),
		ProbeProj: idx(exists2, "s_name"),
	})

	agg := b.Agg(notExists3, exec.AggOpSpec{
		Name:         "agg(q21)",
		GroupBy:      []expr.Expr{expr.C(notExists3.Schema, "s_name")},
		GroupByNames: []string{"s_name"},
		Aggs:         []exec.AggSpec{{Func: exec.Count, Name: "numwait"}},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q21)", Limit: 100, Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "numwait"), Desc: true},
		{Key: expr.C(agg.Schema, "s_name")},
	}})
	b.Collect(srt)
	return b
}

// q22: global sales opportunity — a scalar AVG subquery parameterizes the
// customer select, and NOT EXISTS(orders) is an anti join.
func q22(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()
	cs := d.Customer.Schema()
	codes := []string{"13", "31", "23", "29", "30", "18", "17"}
	inCodes := expr.InStrings(expr.Substr(expr.C(cs, "c_phone"), 1, 2), codes...)

	selAvg := scanCustomerAs(b, d, "select(cust_avg)",
		expr.And(expr.Gt(expr.C(cs, "c_acctbal"), expr.Float(0)), inCodes),
		"c_acctbal")
	avgBal := b.Agg(selAvg, exec.AggOpSpec{
		Name: "agg(avg)",
		Aggs: []exec.AggSpec{{Func: exec.Avg, Arg: expr.C(selAvg.Schema, "c_acctbal"), Name: "a"}},
	})
	slot := b.Scalar(avgBal)

	selOrd := scan(b, d.Orders, nil, "o_custkey")
	buildO, _ := b.Build(selOrd, exec.BuildSpec{Name: "build(orders)", KeyCols: idx(selOrd, "o_custkey")})

	selCust := b.ScanSelect(exec.SelectSpec{
		Name: "select(customer)", Base: d.Customer,
		Pred: expr.And(inCodes, expr.Gt(expr.C(cs, "c_acctbal"), expr.Param(slot, types.Float64))),
		Proj: []expr.Expr{
			expr.C(cs, "c_custkey"),
			expr.Substr(expr.C(cs, "c_phone"), 1, 2),
			expr.C(cs, "c_acctbal"),
		},
		ProjNames: []string{"c_custkey", "cntrycode", "c_acctbal"},
	})
	b.Gate(avgBal, selCust)
	anti := b.Probe(selCust, buildO, exec.ProbeSpec{
		Name: "probe(orders)", KeyCols: idx(selCust, "c_custkey"), JoinType: exec.LeftAnti,
		ProbeProj: idx(selCust, "cntrycode", "c_acctbal"),
	})

	agg := b.Agg(anti, exec.AggOpSpec{
		Name:         "agg(q22)",
		GroupBy:      []expr.Expr{expr.C(anti.Schema, "cntrycode")},
		GroupByNames: []string{"cntrycode"},
		Aggs: []exec.AggSpec{
			{Func: exec.Count, Name: "numcust"},
			{Func: exec.Sum, Arg: expr.C(anti.Schema, "c_acctbal"), Name: "totacctbal"},
		},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q22)", Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "cntrycode")},
	}})
	b.Collect(srt)
	return b
}

// scanCustomerAs is scan over customer with an explicit operator name (q22
// scans the table twice and the stats need distinct names).
func scanCustomerAs(b *engine.Builder, d *Dataset, name string, pred expr.Expr, cols ...string) *engine.Node {
	es, names := proj(d.Customer.Schema(), cols...)
	return b.ScanSelect(exec.SelectSpec{
		Name: name, Base: d.Customer, Pred: pred, Proj: es, ProjNames: names,
	})
}
