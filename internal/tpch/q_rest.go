package tpch

import (
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
)

func init() {
	register(2, q02)
	register(9, q09)
	register(11, q11)
	register(12, q12)
	register(16, q16)
	register(17, q17)
	register(18, q18)
	register(20, q20)
}

// europeanSuppliers wires region(EUROPE)⋉nation⋉supplier and returns the
// stream of European suppliers with the requested columns.
func europeanSuppliers(b *engine.Builder, d *Dataset, cols ...string) *engine.Node {
	selReg := scan(b, d.Region,
		expr.Eq(expr.C(d.Region.Schema(), "r_name"), expr.Str("EUROPE")), "r_regionkey")
	buildR, _ := b.Build(selReg, exec.BuildSpec{Name: "build(region)", KeyCols: idx(selReg, "r_regionkey")})
	selNat := scan(b, d.Nation, nil, append([]string{"n_regionkey", "n_nationkey"}, natCols(cols)...)...)
	natEU := b.Probe(selNat, buildR, exec.ProbeSpec{
		Name: "probe(region)", KeyCols: idx(selNat, "n_regionkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selNat, append([]string{"n_nationkey"}, natCols(cols)...)...),
	})
	buildN, _ := b.Build(natEU, exec.BuildSpec{
		Name: "build(nation_eu)", KeyCols: idx(natEU, "n_nationkey"),
		Payload: idx(natEU, natCols(cols)...),
	})
	suppCols := append([]string{"s_nationkey"}, suppColsOf(cols)...)
	selSupp := scan(b, d.Supplier, nil, suppCols...)
	return b.Probe(selSupp, buildN, exec.ProbeSpec{
		Name: "probe(nation_eu)", KeyCols: idx(selSupp, "s_nationkey"),
		ProbeProj: idx(selSupp, suppColsOf(cols)...),
		BuildProj: seq(len(natCols(cols))),
	})
}

func natCols(cols []string) []string {
	var out []string
	for _, c := range cols {
		if len(c) > 2 && c[:2] == "n_" {
			out = append(out, c)
		}
	}
	return out
}

func suppColsOf(cols []string) []string {
	var out []string
	for _, c := range cols {
		if len(c) > 2 && c[:2] == "s_" {
			out = append(out, c)
		}
	}
	return out
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// q02: minimum cost supplier — the correlated MIN subquery decorrelates into
// a per-part minimum over European partsupp offers, joined back with a
// supplycost-equality residual.
func q02(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	euro := europeanSuppliers(b, d,
		"s_suppkey", "s_name", "s_address", "s_phone", "s_acctbal", "s_comment", "n_name")

	// Two hash tables over the same supplier stream: existence for the
	// subquery's semi join, attributes for the outer join.
	buildSK, _ := b.Build(euro, exec.BuildSpec{Name: "build(supp_keys)", KeyCols: idx(euro, "s_suppkey")})
	buildSA, _ := b.Build(euro, exec.BuildSpec{
		Name:    "build(supp_attrs)",
		KeyCols: idx(euro, "s_suppkey"),
		Payload: idx(euro, "s_name", "s_address", "s_phone", "s_acctbal", "s_comment", "n_name"),
	})

	// Subquery: min supplycost per part among European suppliers.
	pss := d.Partsupp.Schema()
	selPS1 := scan(b, d.Partsupp, nil, "ps_suppkey", "ps_partkey", "ps_supplycost")
	_ = pss
	psEU := b.Probe(selPS1, buildSK, exec.ProbeSpec{
		Name: "probe(supp_keys)", KeyCols: idx(selPS1, "ps_suppkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selPS1, "ps_partkey", "ps_supplycost"),
	})
	minCost := b.Agg(psEU, exec.AggOpSpec{
		Name:         "agg(min_cost)",
		GroupBy:      []expr.Expr{expr.C(psEU.Schema, "ps_partkey")},
		GroupByNames: []string{"ps_partkey"},
		Aggs: []exec.AggSpec{
			{Func: exec.Min, Arg: expr.C(psEU.Schema, "ps_supplycost"), Name: "min_cost"},
		},
	})
	buildMC, buildMCOp := b.Build(minCost, exec.BuildSpec{
		Name: "build(min_cost)", KeyCols: idx(minCost, "ps_partkey"),
		Payload: idx(minCost, "min_cost"),
	})

	// Outer query: brass parts of size 15 joined to the cheapest offers.
	ps0 := d.Part.Schema()
	selPart := scan(b, d.Part,
		expr.And(
			expr.Eq(expr.C(ps0, "p_size"), expr.Int(15)),
			expr.Like(expr.C(ps0, "p_type"), "%BRASS"),
		),
		"p_partkey", "p_mfgr")
	buildP, _ := b.Build(selPart, exec.BuildSpec{
		Name: "build(part)", KeyCols: idx(selPart, "p_partkey"),
		Payload: idx(selPart, "p_mfgr"),
	})

	selPS2 := scan(b, d.Partsupp, nil, "ps_partkey", "ps_suppkey", "ps_supplycost")
	psPart := b.Probe(selPS2, buildP, exec.ProbeSpec{
		Name: "probe(part)", KeyCols: idx(selPS2, "ps_partkey"),
		ProbeProj: idx(selPS2, "ps_partkey", "ps_suppkey", "ps_supplycost"),
		BuildProj: []int{0},
	})
	cheapest := b.Probe(psPart, buildMC, exec.ProbeSpec{
		Name: "probe(min_cost)", KeyCols: idx(psPart, "ps_partkey"),
		Residual: expr.Eq(expr.C(psPart.Schema, "ps_supplycost"),
			expr.C2(buildMCOp.PayloadSchema(), "min_cost")),
		ProbeProj: idx(psPart, "ps_partkey", "ps_suppkey", "p_mfgr"),
	})
	withSupp := b.Probe(cheapest, buildSA, exec.ProbeSpec{
		Name: "probe(supp_attrs)", KeyCols: idx(cheapest, "ps_suppkey"),
		ProbeProj: idx(cheapest, "ps_partkey", "p_mfgr"),
		BuildProj: []int{0, 1, 2, 3, 4, 5},
	})
	srt := b.Sort(withSupp, exec.SortSpec{Name: "sort(q2)", Limit: 100, Terms: []exec.SortTerm{
		{Key: expr.C(withSupp.Schema, "s_acctbal"), Desc: true},
		{Key: expr.C(withSupp.Schema, "n_name")},
		{Key: expr.C(withSupp.Schema, "s_name")},
		{Key: expr.C(withSupp.Schema, "ps_partkey")},
	}})
	b.Collect(srt)
	return b
}

// q09: product type profit — a five-way join with a composite-key partsupp
// lookup and a profit expression mixing both sides.
func q09(d *Dataset, o QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	ps0 := d.Part.Schema()
	selPart := scan(b, d.Part, expr.Like(expr.C(ps0, "p_name"), "%green%"), "p_partkey")
	buildP, buildPOp := b.Build(selPart, exec.BuildSpec{
		Name: "build(part)", KeyCols: idx(selPart, "p_partkey"),
	})

	selPS := scan(b, d.Partsupp, nil, "ps_partkey", "ps_suppkey", "ps_supplycost")
	buildPS, _ := b.Build(selPS, exec.BuildSpec{
		Name: "build(partsupp)", KeyCols: idx(selPS, "ps_partkey", "ps_suppkey"),
		Payload: idx(selPS, "ps_supplycost"),
	})

	selNat := scan(b, d.Nation, nil, "n_nationkey", "n_name")
	buildN, _ := b.Build(selNat, exec.BuildSpec{
		Name: "build(nation)", KeyCols: idx(selNat, "n_nationkey"),
		Payload: idx(selNat, "n_name"),
	})
	selSupp := scan(b, d.Supplier, nil, "s_suppkey", "s_nationkey")
	suppNat := b.Probe(selSupp, buildN, exec.ProbeSpec{
		Name: "probe(nation)", KeyCols: idx(selSupp, "s_nationkey"),
		ProbeProj: idx(selSupp, "s_suppkey"), BuildProj: []int{0},
	})
	buildS, _ := b.Build(suppNat, exec.BuildSpec{
		Name: "build(supplier)", KeyCols: idx(suppNat, "s_suppkey"),
		Payload: idx(suppNat, "n_name"),
	})

	selOrd := scan(b, d.Orders, nil, "o_orderkey", "o_orderdate")
	buildO, _ := b.Build(selOrd, exec.BuildSpec{
		Name: "build(orders)", KeyCols: idx(selOrd, "o_orderkey"),
		Payload: idx(selOrd, "o_orderdate"),
	})

	ls := d.Lineitem.Schema()
	lineSpec := exec.SelectSpec{Name: "select(lineitem)", Base: d.Lineitem}
	lineSpec.Proj, lineSpec.ProjNames = proj(ls,
		"l_partkey", "l_suppkey", "l_orderkey", "l_quantity", "l_extendedprice", "l_discount")
	if o.LIP {
		lineSpec.LIPs = []exec.LIPRef{{Build: buildPOp, KeyCol: ls.MustColIndex("l_partkey")}}
	}
	selLine := b.ScanSelect(lineSpec)

	greenParts := b.Probe(selLine, buildP, exec.ProbeSpec{
		Name: "probe(part)", KeyCols: idx(selLine, "l_partkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selLine, "l_partkey", "l_suppkey", "l_orderkey", "l_quantity", "l_extendedprice", "l_discount"),
	})
	withCost := b.Probe(greenParts, buildPS, exec.ProbeSpec{
		Name: "probe(partsupp)", KeyCols: idx(greenParts, "l_partkey", "l_suppkey"),
		ProbeProj: idx(greenParts, "l_suppkey", "l_orderkey", "l_quantity", "l_extendedprice", "l_discount"),
		BuildProj: []int{0},
	})
	withNat := b.Probe(withCost, buildS, exec.ProbeSpec{
		Name: "probe(supplier)", KeyCols: idx(withCost, "l_suppkey"),
		ProbeProj: idx(withCost, "l_orderkey", "l_quantity", "l_extendedprice", "l_discount", "ps_supplycost"),
		BuildProj: []int{0},
	})
	withDate := b.Probe(withNat, buildO, exec.ProbeSpec{
		Name: "probe(orders)", KeyCols: idx(withNat, "l_orderkey"),
		ProbeProj: idx(withNat, "l_quantity", "l_extendedprice", "l_discount", "ps_supplycost", "n_name"),
		BuildProj: []int{0},
	})

	s := withDate.Schema
	amount := expr.SubE(
		revenue(s, "l_extendedprice", "l_discount"),
		expr.MulE(expr.C(s, "ps_supplycost"), expr.C(s, "l_quantity")),
	)
	agg := b.Agg(withDate, exec.AggOpSpec{
		Name:         "agg(q9)",
		GroupBy:      []expr.Expr{expr.C(s, "n_name"), expr.Year(expr.C(s, "o_orderdate"))},
		GroupByNames: []string{"nation", "o_year"},
		Aggs:         []exec.AggSpec{{Func: exec.Sum, Arg: amount, Name: "sum_profit"}},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q9)", Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "nation")},
		{Key: expr.C(agg.Schema, "o_year"), Desc: true},
	}})
	b.Collect(srt)
	return b
}

// q11: important stock identification — the HAVING threshold is a scalar sum
// over the same German partsupp stream (fan-out plus a scalar parameter).
func q11(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	selNat := scan(b, d.Nation,
		expr.Eq(expr.C(d.Nation.Schema(), "n_name"), expr.Str("GERMANY")), "n_nationkey")
	buildN, _ := b.Build(selNat, exec.BuildSpec{Name: "build(nation)", KeyCols: idx(selNat, "n_nationkey")})
	selSupp := scan(b, d.Supplier, nil, "s_nationkey", "s_suppkey")
	suppDE := b.Probe(selSupp, buildN, exec.ProbeSpec{
		Name: "probe(nation)", KeyCols: idx(selSupp, "s_nationkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selSupp, "s_suppkey"),
	})
	buildS, _ := b.Build(suppDE, exec.BuildSpec{Name: "build(supplier)", KeyCols: idx(suppDE, "s_suppkey")})

	selPS := scan(b, d.Partsupp, nil, "ps_suppkey", "ps_partkey", "ps_supplycost", "ps_availqty")
	psDE := b.Probe(selPS, buildS, exec.ProbeSpec{
		Name: "probe(supplier)", KeyCols: idx(selPS, "ps_suppkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selPS, "ps_partkey", "ps_supplycost", "ps_availqty"),
	})

	value := expr.MulE(expr.C(psDE.Schema, "ps_supplycost"), expr.C(psDE.Schema, "ps_availqty"))
	perPart := b.Agg(psDE, exec.AggOpSpec{
		Name:         "agg(per_part)",
		GroupBy:      []expr.Expr{expr.C(psDE.Schema, "ps_partkey")},
		GroupByNames: []string{"ps_partkey"},
		Aggs:         []exec.AggSpec{{Func: exec.Sum, Arg: value, Name: "value"}},
	})
	total := b.Agg(psDE, exec.AggOpSpec{
		Name: "agg(total)",
		Aggs: []exec.AggSpec{{Func: exec.Sum, Arg: value, Name: "t"}},
	})
	slot := b.Scalar(total)

	// HAVING value > total * fraction; the spec scales the fraction with
	// 1/SF so the threshold stays selective at any scale.
	fraction := 0.0001 / d.SF
	having := b.Select(perPart, exec.SelectSpec{
		Name: "having(q11)",
		Pred: expr.Gt(expr.C(perPart.Schema, "value"),
			expr.MulE(expr.Param(slot, types.Float64), expr.Float(fraction))),
		Proj:      []expr.Expr{expr.C(perPart.Schema, "ps_partkey"), expr.C(perPart.Schema, "value")},
		ProjNames: []string{"ps_partkey", "value"},
	})
	b.Gate(total, having)

	srt := b.Sort(having, exec.SortSpec{Name: "sort(q11)", Terms: []exec.SortTerm{
		{Key: expr.C(having.Schema, "value"), Desc: true},
	}})
	b.Collect(srt)
	return b
}

// q12: shipping modes and order priority — a CASE-split double count.
func q12(d *Dataset, o QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	selOrd := scan(b, d.Orders, nil, "o_orderkey", "o_orderpriority")
	buildO, _ := b.Build(selOrd, exec.BuildSpec{
		Name: "build(orders)", KeyCols: idx(selOrd, "o_orderkey"),
		Payload: idx(selOrd, "o_orderpriority"),
	})

	ls := d.Lineitem.Schema()
	selLine := scan(b, d.Lineitem,
		expr.And(
			expr.InStrings(expr.C(ls, "l_shipmode"), "MAIL", "SHIP"),
			expr.Lt(expr.C(ls, "l_commitdate"), expr.C(ls, "l_receiptdate")),
			expr.Lt(expr.C(ls, "l_shipdate"), expr.C(ls, "l_commitdate")),
			expr.Ge(expr.C(ls, "l_receiptdate"), expr.Date(1994, 1, 1)),
			expr.Lt(expr.C(ls, "l_receiptdate"), expr.Date(1995, 1, 1)),
		),
		"l_orderkey", "l_shipmode")
	probe := b.Probe(selLine, buildO, exec.ProbeSpec{
		Name: "probe(orders)", KeyCols: idx(selLine, "l_orderkey"),
		ProbeProj: idx(selLine, "l_shipmode"), BuildProj: []int{0},
	})

	s := probe.Schema
	isHigh := expr.InStrings(expr.C(s, "o_orderpriority"), "1-URGENT", "2-HIGH")
	agg := b.Agg(probe, exec.AggOpSpec{
		Name:         "agg(q12)",
		GroupBy:      []expr.Expr{expr.C(s, "l_shipmode")},
		GroupByNames: []string{"l_shipmode"},
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Name: "high_line_count",
				Arg: expr.Case(expr.Int(0), expr.When{Cond: isHigh, Then: expr.Int(1)})},
			{Func: exec.Sum, Name: "low_line_count",
				Arg: expr.Case(expr.Int(1), expr.When{Cond: isHigh, Then: expr.Int(0)})},
		},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q12)", Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "l_shipmode")},
	}})
	b.Collect(srt)
	return b
}

// q16: parts/supplier relationship — COUNT(DISTINCT) plus a NOT IN
// subquery turned into an anti join.
func q16(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	ss := d.Supplier.Schema()
	selComplaints := scan(b, d.Supplier,
		expr.Like(expr.C(ss, "s_comment"), "%Customer%Complaints%"), "s_suppkey")
	buildC, _ := b.Build(selComplaints, exec.BuildSpec{
		Name: "build(complaints)", KeyCols: idx(selComplaints, "s_suppkey"),
	})

	ps0 := d.Part.Schema()
	sizes := []types.Datum{
		types.NewInt64(49), types.NewInt64(14), types.NewInt64(23), types.NewInt64(45),
		types.NewInt64(19), types.NewInt64(3), types.NewInt64(36), types.NewInt64(9),
	}
	selPart := scan(b, d.Part,
		expr.And(
			expr.Ne(expr.C(ps0, "p_brand"), expr.Str("Brand#45")),
			expr.NotLike(expr.C(ps0, "p_type"), "MEDIUM POLISHED%"),
			expr.In(expr.C(ps0, "p_size"), sizes...),
		),
		"p_partkey", "p_brand", "p_type", "p_size")
	buildP, _ := b.Build(selPart, exec.BuildSpec{
		Name: "build(part)", KeyCols: idx(selPart, "p_partkey"),
		Payload: idx(selPart, "p_brand", "p_type", "p_size"),
	})

	selPS := scan(b, d.Partsupp, nil, "ps_suppkey", "ps_partkey")
	noComplaints := b.Probe(selPS, buildC, exec.ProbeSpec{
		Name: "probe(complaints)", KeyCols: idx(selPS, "ps_suppkey"), JoinType: exec.LeftAnti,
		ProbeProj: idx(selPS, "ps_partkey", "ps_suppkey"),
	})
	withPart := b.Probe(noComplaints, buildP, exec.ProbeSpec{
		Name: "probe(part)", KeyCols: idx(noComplaints, "ps_partkey"),
		ProbeProj: idx(noComplaints, "ps_suppkey"), BuildProj: []int{0, 1, 2},
	})

	s := withPart.Schema
	agg := b.Agg(withPart, exec.AggOpSpec{
		Name: "agg(q16)",
		GroupBy: []expr.Expr{
			expr.C(s, "p_brand"), expr.C(s, "p_type"), expr.C(s, "p_size"),
		},
		GroupByNames: []string{"p_brand", "p_type", "p_size"},
		Aggs: []exec.AggSpec{
			{Func: exec.CountDistinct, Arg: expr.C(s, "ps_suppkey"), Name: "supplier_cnt"},
		},
	})
	srt := b.Sort(agg, exec.SortSpec{Name: "sort(q16)", Terms: []exec.SortTerm{
		{Key: expr.C(agg.Schema, "supplier_cnt"), Desc: true},
		{Key: expr.C(agg.Schema, "p_brand")},
		{Key: expr.C(agg.Schema, "p_type")},
		{Key: expr.C(agg.Schema, "p_size")},
	}})
	b.Collect(srt)
	return b
}

// q17: small-quantity-order revenue — the correlated AVG becomes a per-part
// aggregate joined back with a quantity residual; the filtered lineitem
// stream fans out to both the aggregate and the final probe.
func q17(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	ps0 := d.Part.Schema()
	selPart := scan(b, d.Part,
		expr.And(
			expr.Eq(expr.C(ps0, "p_brand"), expr.Str("Brand#23")),
			expr.Eq(expr.C(ps0, "p_container"), expr.Str("MED BOX")),
		),
		"p_partkey")
	buildP, _ := b.Build(selPart, exec.BuildSpec{Name: "build(part)", KeyCols: idx(selPart, "p_partkey")})

	selLine := scan(b, d.Lineitem, nil, "l_partkey", "l_quantity", "l_extendedprice")
	onPart := b.Probe(selLine, buildP, exec.ProbeSpec{
		Name: "probe(part)", KeyCols: idx(selLine, "l_partkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selLine, "l_partkey", "l_quantity", "l_extendedprice"),
	})

	avgQty := b.Agg(onPart, exec.AggOpSpec{
		Name:         "agg(avg_qty)",
		GroupBy:      []expr.Expr{expr.C(onPart.Schema, "l_partkey")},
		GroupByNames: []string{"l_partkey"},
		Aggs: []exec.AggSpec{
			{Func: exec.Avg, Arg: expr.C(onPart.Schema, "l_quantity"), Name: "avg_qty"},
		},
	})
	buildA, buildAOp := b.Build(avgQty, exec.BuildSpec{
		Name: "build(avg_qty)", KeyCols: idx(avgQty, "l_partkey"),
		Payload: idx(avgQty, "avg_qty"),
	})

	small := b.Probe(onPart, buildA, exec.ProbeSpec{
		Name: "probe(avg_qty)", KeyCols: idx(onPart, "l_partkey"),
		Residual: expr.Lt(expr.C(onPart.Schema, "l_quantity"),
			expr.MulE(expr.Float(0.2), expr.C2(buildAOp.PayloadSchema(), "avg_qty"))),
		ProbeProj: idx(onPart, "l_extendedprice"),
	})
	agg := b.Agg(small, exec.AggOpSpec{
		Name: "agg(q17)",
		Aggs: []exec.AggSpec{{Func: exec.Sum, Arg: expr.C(small.Schema, "l_extendedprice"), Name: "s"}},
	})
	out := b.Select(agg, exec.SelectSpec{
		Name:      "compute(avg_yearly)",
		Proj:      []expr.Expr{expr.DivE(expr.C(agg.Schema, "s"), expr.Float(7))},
		ProjNames: []string{"avg_yearly"},
	})
	b.Collect(out)
	return b
}

// q18: large volume customers — the HAVING sum(l_quantity) > 300 subquery
// becomes an aggregate-filter-build chain probed by orders.
func q18(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	selLine := scan(b, d.Lineitem, nil, "l_orderkey", "l_quantity")
	perOrder := b.Agg(selLine, exec.AggOpSpec{
		Name:         "agg(per_order)",
		GroupBy:      []expr.Expr{expr.C(selLine.Schema, "l_orderkey")},
		GroupByNames: []string{"l_orderkey"},
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Arg: expr.C(selLine.Schema, "l_quantity"), Name: "sum_qty"},
		},
	})
	big := b.Select(perOrder, exec.SelectSpec{
		Name:      "having(q18)",
		Pred:      expr.Gt(expr.C(perOrder.Schema, "sum_qty"), expr.Float(300)),
		Proj:      []expr.Expr{expr.C(perOrder.Schema, "l_orderkey"), expr.C(perOrder.Schema, "sum_qty")},
		ProjNames: []string{"l_orderkey", "sum_qty"},
	})
	buildB, _ := b.Build(big, exec.BuildSpec{
		Name: "build(big_orders)", KeyCols: idx(big, "l_orderkey"),
		Payload: idx(big, "sum_qty"),
	})

	selCust := scan(b, d.Customer, nil, "c_custkey", "c_name")
	buildC, _ := b.Build(selCust, exec.BuildSpec{
		Name: "build(customer)", KeyCols: idx(selCust, "c_custkey"),
		Payload: idx(selCust, "c_name"),
	})

	selOrd := scan(b, d.Orders, nil, "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice")
	bigOrders := b.Probe(selOrd, buildB, exec.ProbeSpec{
		Name: "probe(big_orders)", KeyCols: idx(selOrd, "o_orderkey"),
		ProbeProj: idx(selOrd, "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"),
		BuildProj: []int{0},
	})
	withCust := b.Probe(bigOrders, buildC, exec.ProbeSpec{
		Name: "probe(customer)", KeyCols: idx(bigOrders, "o_custkey"),
		ProbeProj: idx(bigOrders, "o_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty"),
		BuildProj: []int{0},
	})
	srt := b.Sort(withCust, exec.SortSpec{Name: "sort(q18)", Limit: 100, Terms: []exec.SortTerm{
		{Key: expr.C(withCust.Schema, "o_totalprice"), Desc: true},
		{Key: expr.C(withCust.Schema, "o_orderdate")},
	}})
	b.Collect(srt)
	return b
}

// q20: potential part promotion — nested IN subqueries become a semi-join
// chain with a per-(part,supplier) quantity aggregate and an availability
// residual.
func q20(d *Dataset, _ QueryOpts) *engine.Builder {
	b := engine.NewBuilder()

	ps0 := d.Part.Schema()
	selPart := scan(b, d.Part, expr.Like(expr.C(ps0, "p_name"), "forest%"), "p_partkey")
	buildP, _ := b.Build(selPart, exec.BuildSpec{Name: "build(part)", KeyCols: idx(selPart, "p_partkey")})

	ls := d.Lineitem.Schema()
	selLine := scan(b, d.Lineitem,
		expr.And(
			expr.Ge(expr.C(ls, "l_shipdate"), expr.Date(1994, 1, 1)),
			expr.Lt(expr.C(ls, "l_shipdate"), expr.Date(1995, 1, 1)),
		),
		"l_partkey", "l_suppkey", "l_quantity")
	lineForest := b.Probe(selLine, buildP, exec.ProbeSpec{
		Name: "probe(part)", KeyCols: idx(selLine, "l_partkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selLine, "l_partkey", "l_suppkey", "l_quantity"),
	})
	sumQty := b.Agg(lineForest, exec.AggOpSpec{
		Name: "agg(sum_qty)",
		GroupBy: []expr.Expr{
			expr.C(lineForest.Schema, "l_partkey"), expr.C(lineForest.Schema, "l_suppkey"),
		},
		GroupByNames: []string{"l_partkey", "l_suppkey"},
		Aggs: []exec.AggSpec{
			{Func: exec.Sum, Arg: expr.C(lineForest.Schema, "l_quantity"), Name: "sum_qty"},
		},
	})
	buildQ, buildQOp := b.Build(sumQty, exec.BuildSpec{
		Name: "build(sum_qty)", KeyCols: idx(sumQty, "l_partkey", "l_suppkey"),
		Payload: idx(sumQty, "sum_qty"),
	})

	selPS := scan(b, d.Partsupp, nil, "ps_partkey", "ps_suppkey", "ps_availqty")
	psForest := b.Probe(selPS, buildP, exec.ProbeSpec{
		Name: "probe(part2)", KeyCols: idx(selPS, "ps_partkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selPS, "ps_partkey", "ps_suppkey", "ps_availqty"),
	})
	excess := b.Probe(psForest, buildQ, exec.ProbeSpec{
		Name:    "probe(sum_qty)",
		KeyCols: idx(psForest, "ps_partkey", "ps_suppkey"), JoinType: exec.LeftSemi,
		Residual: expr.Gt(expr.C(psForest.Schema, "ps_availqty"),
			expr.MulE(expr.Float(0.5), expr.C2(buildQOp.PayloadSchema(), "sum_qty"))),
		ProbeProj: idx(psForest, "ps_suppkey"),
	})
	buildSK, _ := b.Build(excess, exec.BuildSpec{
		Name: "build(supp_keys)", KeyCols: idx(excess, "ps_suppkey"),
	})

	selNat := scan(b, d.Nation,
		expr.Eq(expr.C(d.Nation.Schema(), "n_name"), expr.Str("CANADA")), "n_nationkey")
	buildN, _ := b.Build(selNat, exec.BuildSpec{Name: "build(nation)", KeyCols: idx(selNat, "n_nationkey")})
	selSupp := scan(b, d.Supplier, nil, "s_nationkey", "s_suppkey", "s_name", "s_address")
	suppCA := b.Probe(selSupp, buildN, exec.ProbeSpec{
		Name: "probe(nation)", KeyCols: idx(selSupp, "s_nationkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(selSupp, "s_suppkey", "s_name", "s_address"),
	})
	final := b.Probe(suppCA, buildSK, exec.ProbeSpec{
		Name: "probe(supp_keys)", KeyCols: idx(suppCA, "s_suppkey"), JoinType: exec.LeftSemi,
		ProbeProj: idx(suppCA, "s_name", "s_address"),
	})
	srt := b.Sort(final, exec.SortSpec{Name: "sort(q20)", Terms: []exec.SortTerm{
		{Key: expr.C(final.Schema, "s_name")},
	}})
	b.Collect(srt)
	return b
}
