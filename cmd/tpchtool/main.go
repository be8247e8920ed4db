// Command tpchtool generates a TPC-H (or SSB) dataset and either summarizes
// it or runs one query with full per-operator statistics — the interactive
// companion to cmd/uotbench.
//
//	tpchtool -sf 0.05 -summary
//	tpchtool -sf 0.05 -q 7 -uot 1 -workers 8 -lip
//	tpchtool -ssb -sf 0.05 -ssbq q3.1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ssb"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.02, "scale factor")
	blockKB := flag.Int("block", 128, "block size (KiB)")
	format := flag.String("format", "column", "base-table format: column|row")
	summary := flag.Bool("summary", false, "print dataset summary and exit")
	q := flag.Int("q", 0, "TPC-H query to run (1-22)")
	ssbMode := flag.Bool("ssb", false, "use the Star Schema Benchmark instead of TPC-H")
	ssbQ := flag.String("ssbq", "", "SSB query to run (q1.1, q2.1, q3.1, q4.1)")
	uotFlag := flag.Int("uot", 1, "unit of transfer in blocks (0 = whole table)")
	workers := flag.Int("workers", 8, "worker threads")
	lip := flag.Bool("lip", false, "enable LIP: a scan probes its downstream join tables (TPC-H)")
	staged := flag.Bool("staged", false, "staged one-join-at-a-time execution (TPC-H Q7)")
	rows := flag.Int("rows", 10, "result rows to print")
	flag.Parse()

	f := storage.ColumnStore
	if *format == "row" {
		f = storage.RowStore
	}
	uot := *uotFlag
	if uot == 0 {
		uot = core.UoTTable
	}
	opts := engine.Options{Workers: *workers, UoTBlocks: uot, TempBlockBytes: *blockKB << 10}

	if *ssbMode {
		d := ssb.Load(*sf, *blockKB<<10, f)
		if *summary || *ssbQ == "" {
			fmt.Printf("SSB SF %.3g (%s store, %d KiB blocks)\n", *sf, f, *blockKB)
			for _, name := range []string{"lineorder", "date", "customer", "supplier", "part"} {
				printTable(d.DB.Catalog.MustGet(name))
			}
			fmt.Println("queries:", ssb.Flights())
			return
		}
		b, err := ssb.Build(d, *ssbQ)
		if err != nil {
			log.Fatal(err)
		}
		runAndReport(b, opts, *rows)
		return
	}

	d := tpch.Load(*sf, *blockKB<<10, f)
	if *summary || *q == 0 {
		fmt.Printf("TPC-H SF %.3g (%s store, %d KiB blocks)\n", *sf, f, *blockKB)
		for _, name := range []string{"lineitem", "orders", "customer", "part", "partsupp", "supplier", "nation", "region"} {
			printTable(d.Table(name))
		}
		fmt.Println("queries:", tpch.Numbers())
		return
	}
	b, err := tpch.Build(d, *q, tpch.QueryOpts{LIP: *lip, Staged: *staged})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	runAndReport(b, opts, *rows)
}

func printTable(t *storage.Table) {
	fmt.Printf("  %-10s %9d rows %6d blocks %8.2f MiB (%d B/row)\n",
		t.Name(), t.NumRows(), t.NumBlocks(),
		float64(t.UsedBytes())/(1<<20), t.Schema().RowWidth())
}

func runAndReport(b *engine.Builder, opts engine.Options, maxRows int) {
	res, err := engine.Execute(b, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wall %v | peak temp %.2f MiB | peak hash %.2f MiB | pool checkouts %d\n\n",
		res.Run.WallTime().Round(10*time.Microsecond),
		float64(res.Run.Intermediates.High())/(1<<20),
		float64(res.Run.HashTables.High())/(1<<20),
		res.Run.Checkouts())

	fmt.Printf("%-24s %6s %10s %10s %12s %12s\n", "operator", "tasks", "rows_in", "rows_out", "total_ms", "avg_task_us")
	for _, op := range res.Run.PerOp() {
		fmt.Printf("%-24s %6d %10d %10d %12.2f %12.1f\n",
			op.Name, op.Count, op.Rows, op.RowsOut,
			float64(op.WallTotal.Microseconds())/1000,
			avgUs(op))
	}

	all := engine.Rows(res.Table)
	fmt.Printf("\nresult: %d rows\n", len(all))
	for i, row := range all {
		if i >= maxRows {
			fmt.Printf("  ... %d more\n", len(all)-maxRows)
			break
		}
		fmt.Println("  " + engine.FormatRow(row))
	}
}

func avgUs(op stats.OpTotals) float64 {
	if op.Count == 0 {
		return 0
	}
	return float64(op.WallTotal.Microseconds()) / float64(op.Count)
}
