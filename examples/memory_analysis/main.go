// memory_analysis walks through the paper's Section VI memory story on
// TPC-H Q7: the pipelining strategy must keep every hash table of the probe
// cascade live at once, the blocking strategy materializes the selection
// output instead, and LIP pruning can make the blocking strategy's overhead
// the smaller of the two — contrary to the usual intuition that pipelining
// always saves memory.
package main

import (
	"flag"
	"fmt"
	"log"

	uot "repro"
)

func main() {
	sf := flag.Float64("sf", 0.02, "scale factor")
	flag.Parse()

	d := uot.LoadTPCH(*sf, 2<<20, uot.ColumnStore)
	fmt.Printf("TPC-H SF %.3g | lineitem %.1f MiB | orders %.1f MiB\n\n",
		*sf, mib(d.Lineitem.UsedBytes()), mib(d.Orders.UsedBytes()))

	type cell struct {
		label        string
		uotBlocks    int
		opts         uot.TPCHOpts
		hash, interm int64
	}
	cells := []cell{
		{label: "low UoT", uotBlocks: 1},
		{label: "high UoT", uotBlocks: uot.UoTTable},
		{label: "high UoT, staged", uotBlocks: uot.UoTTable, opts: uot.TPCHOpts{Staged: true}},
		{label: "low UoT, LIP", uotBlocks: 1, opts: uot.TPCHOpts{LIP: true}},
	}
	for i := range cells {
		plan, err := uot.BuildTPCHWith(d, 7, cells[i].opts)
		if err != nil {
			log.Fatal(err)
		}
		res, err := uot.Execute(plan, uot.Options{
			Workers: 1, UoTBlocks: cells[i].uotBlocks, TempBlockBytes: 128 << 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		cells[i].hash = res.Run.HashTables.High()
		cells[i].interm = res.Run.Intermediates.High()
	}

	fmt.Printf("%-22s %16s %20s\n", "strategy (Q7)", "peak hash (MiB)", "peak temp (MiB)")
	for _, c := range cells {
		fmt.Printf("%-22s %16.2f %20.2f\n", c.label, mib(c.hash), mib(c.interm))
	}

	// The closed-form side of the same story (Section VI-B): the hash-table
	// size model (M/w)(c/f) and the Table II overheads.
	fmt.Println("\nmodel check (Section VI-B):")
	// c = 25 B and f = 7/8 are the engine join table's bucket size and
	// maximum load.
	ordersHT := uot.HashTableSize(d.Orders.UsedBytes(), d.Orders.Schema().RowWidth(), 25, 0.875)
	fmt.Printf("  (M/w)(c/f) for a hash table on all of orders: %.2f MiB\n", mib(ordersHT))
	fmt.Printf("  Table II low-UoT overhead for tables of 1, %.0f, 2 MiB: %.2f MiB (all but the first stay live)\n",
		mib(ordersHT), mib(uot.LowUoTOverhead([]int64{1 << 20, ordersHT, 2 << 20})))
	fmt.Printf("  Table II high-UoT overhead for a 3 MiB selection output: %.2f MiB\n",
		mib(uot.HighUoTOverhead(3<<20)))
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
