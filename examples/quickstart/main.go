// Quickstart: build a tiny star schema, wire a select→build/probe→aggregate
// plan with the public API, and run it at both ends of the UoT spectrum —
// "pipelining" and "blocking" are the same plan with one knob changed.
package main

import (
	"fmt"
	"log"
	"time"

	uot "repro"
)

func main() {
	// A database of 8 KB column-store blocks (small, so the plan moves
	// many blocks even on toy data).
	db := uot.NewDB(8<<10, uot.ColumnStore)

	sales := db.CreateTable("sales", uot.NewSchema(
		uot.Column{Name: "product_id", Type: uot.TInt64},
		uot.Column{Name: "amount", Type: uot.TFloat64},
		uot.Column{Name: "region", Type: uot.TChar, Width: 8},
	))
	products := db.CreateTable("products", uot.NewSchema(
		uot.Column{Name: "id", Type: uot.TInt64},
		uot.Column{Name: "category", Type: uot.TChar, Width: 12},
	))
	loadData(sales, products)

	for _, cfg := range []struct {
		label string
		uot   int
	}{
		{"low UoT  (pipelining: transfer every block)", 1},
		{"high UoT (blocking: transfer whole tables)", uot.UoTTable},
	} {
		res, err := uot.Execute(buildPlan(sales, products), uot.Options{
			Workers:        4,
			UoTBlocks:      cfg.uot,
			TempBlockBytes: 8 << 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s ---\n", cfg.label)
		for _, row := range uot.Rows(res.Table) {
			fmt.Printf("  category=%-12s revenue=%10.2f  orders=%d\n",
				row[0].Bytes(), row[1].F, row[2].I)
		}
		fmt.Printf("  wall %v | peak temp blocks %d B | peak hash tables %d B | pool checkouts %d\n\n",
			res.Run.WallTime().Round(10*time.Microsecond),
			res.Run.Intermediates.High(), res.Run.HashTables.High(), res.Run.Checkouts())
	}
}

// buildPlan wires:
//
//	SELECT p.category, SUM(s.amount), COUNT(*)
//	FROM   sales s JOIN products p ON s.product_id = p.id
//	WHERE  s.region = 'EMEA' AND s.amount > 10
//	GROUP  BY p.category ORDER BY category
func buildPlan(sales, products *uot.Table) *uot.Builder {
	b := uot.NewBuilder()
	ps, ss := products.Schema(), sales.Schema()

	selProd := b.ScanSelect(uot.SelectSpec{
		Name: "scan(products)", Base: products,
		Proj:      []uot.Expr{uot.Col(ps, "id"), uot.Col(ps, "category")},
		ProjNames: []string{"id", "category"},
	})
	buildProd, _ := b.Build(selProd, uot.BuildSpec{
		Name:    "build(products)",
		KeyCols: []int{0}, Payload: []int{1},
	})

	selSales := b.ScanSelect(uot.SelectSpec{
		Name: "scan(sales)", Base: sales,
		Pred: uot.And(
			uot.Eq(uot.Col(ss, "region"), uot.Str("EMEA")),
			uot.Gt(uot.Col(ss, "amount"), uot.Float(10)),
		),
		Proj:      []uot.Expr{uot.Col(ss, "product_id"), uot.Col(ss, "amount")},
		ProjNames: []string{"product_id", "amount"},
	})
	joined := b.Probe(selSales, buildProd, uot.ProbeSpec{
		Name:      "probe(products)",
		KeyCols:   []int{0},
		ProbeProj: []int{1}, BuildProj: []int{0},
		Rename: []string{"amount", "category"},
	})
	agg := b.Agg(joined, uot.AggOpSpec{
		Name:         "agg",
		GroupBy:      []uot.Expr{uot.Col(joined.Schema, "category")},
		GroupByNames: []string{"category"},
		Aggs: []uot.AggSpec{
			{Func: uot.Sum, Arg: uot.Col(joined.Schema, "amount"), Name: "revenue"},
			{Func: uot.Count, Name: "orders"},
		},
	})
	srt := b.Sort(agg, uot.SortSpec{
		Name:  "sort",
		Terms: []uot.SortTerm{{Key: uot.Col(agg.Schema, "category")}},
	})
	b.Collect(srt)
	return b
}

func loadData(sales, products *uot.Table) {
	categories := []string{"widgets", "gadgets", "gizmos", "sprockets"}
	lp := uot.NewLoader(products)
	for id := 0; id < 256; id++ {
		lp.Append(uot.Int64Val(int64(id)), uot.StringVal(categories[id%len(categories)]))
	}
	lp.Close()

	regions := []string{"EMEA", "APAC", "AMER"}
	ls := uot.NewLoader(sales)
	for i := 0; i < 50000; i++ {
		ls.Append(
			uot.Int64Val(int64(i*31%256)),
			uot.Float64Val(float64(i%500)/3),
			uot.StringVal(regions[i%len(regions)]),
		)
	}
	ls.Close()
}
