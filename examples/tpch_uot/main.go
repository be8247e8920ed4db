// tpch_uot sweeps a TPC-H query across the whole UoT spectrum — not just
// the two extremes the literature names, but the points in between — and
// reports time, memory, and the realized schedule profile at each point.
//
//	go run ./examples/tpch_uot -q 3 -sf 0.02 -workers 8
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	uot "repro"
)

func main() {
	q := flag.Int("q", 3, "TPC-H query number")
	sf := flag.Float64("sf", 0.02, "scale factor")
	workers := flag.Int("workers", 8, "worker threads")
	blockKB := flag.Int("block", 128, "block size in KiB")
	lip := flag.Bool("lip", false, "enable LIP: a scan probes its downstream join tables")
	flag.Parse()

	fmt.Printf("loading TPC-H SF %.3g (%d KiB column-store blocks)...\n", *sf, *blockKB)
	d := uot.LoadTPCH(*sf, *blockKB<<10, uot.ColumnStore)
	fmt.Printf("lineitem: %d rows in %d blocks\n\n", d.Lineitem.NumRows(), d.Lineitem.NumBlocks())

	fmt.Printf("%-12s %10s %14s %14s %12s\n",
		"UoT(blocks)", "wall(ms)", "peak_temp(B)", "peak_hash(B)", "work_orders")
	for _, u := range []int{1, 2, 4, 8, 16, 64, uot.UoTTable} {
		plan, err := uot.BuildTPCH(d, *q, *lip)
		if err != nil {
			log.Fatal(err)
		}
		res, err := uot.Execute(plan, uot.Options{
			Workers:        *workers,
			UoTBlocks:      u,
			TempBlockBytes: *blockKB << 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		var wos int
		for _, op := range res.Run.PerOp() {
			wos += op.Count
		}
		label := fmt.Sprintf("%d", u)
		if u == uot.UoTTable {
			label = "table"
		}
		fmt.Printf("%-12s %10.2f %14d %14d %12d\n",
			label,
			float64(res.Run.WallTime())/float64(time.Millisecond),
			res.Run.Intermediates.High(),
			res.Run.HashTables.High(),
			wos)
	}

	// Print the result rows once (they are identical at every UoT — run
	// the test suite if you doubt it).
	plan, _ := uot.BuildTPCH(d, *q, *lip)
	res, err := uot.Execute(plan, uot.Options{Workers: *workers, UoTBlocks: 1, TempBlockBytes: *blockKB << 10})
	if err != nil {
		log.Fatal(err)
	}
	rows := uot.Rows(res.Table)
	fmt.Printf("\nQ%d result (%d rows):\n", *q, len(rows))
	for i, row := range rows {
		if i == 10 {
			fmt.Printf("  ... %d more\n", len(rows)-10)
			break
		}
		fmt.Print("  ")
		for j, dd := range row {
			if j > 0 {
				fmt.Print(" | ")
			}
			fmt.Print(dd.String())
		}
		fmt.Println()
	}
}
