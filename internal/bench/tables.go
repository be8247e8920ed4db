package bench

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/hashtable"
	"repro/internal/memmodel"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Eq1RatioSweep regenerates the Section V-A analysis: the Eq. 1 cost ratio
// (non-pipelining extra work over pipelining extra work) across UoT sizes
// and thread counts, under the paper's high-UoT and low-UoT probability
// regimes. Values near 1 are the paper's headline: the strategies barely
// differ in memory-resident settings.
func (h *Harness) Eq1RatioSweep() (*Report, error) {
	r := &Report{
		ID:     "EQ1",
		Title:  "Analytical model: Eq. 1 ratio of non-pipelining to pipelining extra cost",
		Header: []string{"B", "T", "p1'", "ratio(high regime)", "ratio(low regime)"},
	}
	for _, b := range []int64{64 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20} {
		for _, t := range []int{1, 10, 20} {
			p := costmodel.Default(b, t)
			r.AddRow(
				blockLabel(int(b)),
				fmt.Sprintf("%d", t),
				fmt.Sprintf("%.3f", p.P1Prime()),
				ratio2(p.HighRegime().Ratio()),
				ratio2(p.LowRegime().Ratio()),
			)
		}
	}
	r.Note("ratio > 1 favors pipelining (low UoT); the paper argues both regimes land near 1")
	return r, nil
}

// Sec5CPersistentStore regenerates the Section V-C numbers: with a
// persistent store under the buffer pool, non-pipelining pays device
// reads/writes per UoT (seconds across thousands of UoTs) while pipelining
// pays only instruction-cache switches (microseconds).
func (h *Harness) Sec5CPersistentStore() (*Report, error) {
	r := &Report{
		ID:     "SEC5C",
		Title:  "Analytical model in the persistent-store setting",
		Header: []string{"n_uots", "high_uot_extra_ms", "low_uot_extra_ms", "advantage"},
	}
	for _, n := range []int64{100, 1000, 10000} {
		s := costmodel.DefaultStore(n)
		r.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", s.HighUoTExtra()/1e6),
			fmt.Sprintf("%.3f", s.LowUoTExtra()/1e6),
			fmt.Sprintf("%.0fx", s.Advantage()),
		)
	}
	r.Note("this is why 'pipelining' mattered so much for disk-based systems — and why the in-memory case differs")
	return r, nil
}

// findOp locates an operator in a built plan by display name.
func findOp[T any](b *engine.Builder, name string) (T, bool) {
	var zero T
	for _, op := range b.Plan().Ops {
		if n, ok := op.(interface{ Name() string }); ok && n.Name() == name {
			if t, ok := op.(T); ok {
				return t, true
			}
		}
	}
	return zero, false
}

// selectStats runs query num once and measures the named select operator:
// selectivity from row counts, projectivity from schema widths.
func (h *Harness) selectStats(d *tpch.Dataset, num int, opName string, baseWidth int) (memmodel.SelectStats, int64, error) {
	b, err := tpch.Build(d, num, tpch.QueryOpts{})
	if err != nil {
		return memmodel.SelectStats{}, 0, err
	}
	sel, ok := findOp[*exec.SelectOp](b, opName)
	if !ok {
		return memmodel.SelectStats{}, 0, fmt.Errorf("q%d has no operator %q", num, opName)
	}
	outWidth := sel.OutSchema().RowWidth()
	res, err := engine.Execute(b, engine.Options{
		Workers: h.cfg.Workers, UoTBlocks: core.UoTTable, TempBlockBytes: 2 << 20,
	})
	if err != nil {
		return memmodel.SelectStats{}, 0, err
	}
	t, ok := opTotals(res.Run, opName)
	if !ok {
		return memmodel.SelectStats{}, 0, fmt.Errorf("q%d: %q produced no stats", num, opName)
	}
	st := memmodel.Measure(t.Rows, t.RowsOut, baseWidth, outWidth)
	return st, t.RowsOut * int64(outWidth), nil
}

// Tab3Lineitem regenerates Table III: selectivity, projectivity, and total
// memory fraction of the lineitem selection in the queries whose plans
// contain a select→probe pipeline on lineitem.
func (h *Harness) Tab3Lineitem() (*Report, error) {
	return h.selProjTable("TAB3", "Memory reduction with input table lineitem",
		"select(lineitem)", tpch.LineitemSchema.RowWidth(), []int{3, 7, 10, 19})
}

// Tab4Orders regenerates Table IV for the orders table.
func (h *Harness) Tab4Orders() (*Report, error) {
	return h.selProjTable("TAB4", "Memory reduction with input table orders",
		"select(orders)", tpch.OrdersSchema.RowWidth(), []int{3, 4, 5, 8, 10, 21})
}

func (h *Harness) selProjTable(id, title, opName string, baseWidth int, queries []int) (*Report, error) {
	r := &Report{
		ID:     id,
		Title:  title,
		Header: []string{"query", "selectivity_%", "projectivity_%", "total_%"},
	}
	d := h.Dataset(2<<20, storage.ColumnStore)
	var sumS, sumP, sumT float64
	for _, num := range queries {
		st, _, err := h.selectStats(d, num, opName, baseWidth)
		if err != nil {
			return nil, err
		}
		sumS += st.Selectivity
		sumP += st.Projectivity
		sumT += st.Total()
		r.AddRow(fmt.Sprintf("%02d", num), pct(st.Selectivity), pct(st.Projectivity), pct(st.Total()))
	}
	n := float64(len(queries))
	r.AddRow("Average", pct(sumS/n), pct(sumP/n), pct(sumT/n))
	r.Note("selectivity and projectivity measured without LIP or expression folding, as in the paper")
	return r, nil
}

// Tab2MemoryFootprint regenerates the Table II comparison on Q7's probe
// cascade: the pipelining strategy keeps every hash table live at once; the
// blocking strategy keeps one hash table plus the materialized selection
// output. The model predictions of both index kinds — (M/w)·(c/f) plus keys
// for a hash index, range·4 + n·4 for a dense one — sit next to the measured
// bytes.
func (h *Harness) Tab2MemoryFootprint() (*Report, error) {
	r := &Report{
		ID:    "TAB2",
		Title: "Memory footprint of Q7 for low and high UoT values (MiB)",
		Header: []string{
			"strategy", "hash_tables_highwater", "intermediates_highwater", "model_hash_sum", "model_dense_sum", "model_sel_out",
		},
	}
	d := h.Dataset(2<<20, storage.ColumnStore)

	// Model: each build's index from the (M/w)(c/f) formula plus the keys a
	// hash-indexed table keeps, and the dense alternative over the build's
	// key range; selection output from measured selectivity x projectivity.
	var hashModel, denseModel int64
	b, err := tpch.Build(d, 7, tpch.QueryOpts{})
	if err != nil {
		return nil, err
	}
	res, err := engine.Execute(b, engine.Options{Workers: 1, UoTBlocks: 1, TempBlockBytes: 2 << 20})
	if err != nil {
		return nil, err
	}
	lowRun := res.Run
	for _, build := range []struct {
		name string
		base *storage.Table // keys 1..N (tpch/gen.go)
	}{{"build(supplier)", d.Supplier}, {"build(orders)", d.Orders}, {"build(customer)", d.Customer}} {
		t, ok := opTotals(lowRun, build.name)
		if !ok {
			return nil, fmt.Errorf("q7 missing %s", build.name)
		}
		// Model input: rows inserted, 16-byte payload tuples, and the
		// engine table's slot size c, maximum load f and key bytes.
		hashModel += memmodel.HashTableSize(t.RowsOut*16, 16, hashtable.SlotBytes, hashtable.MaxLoad) +
			t.RowsOut*int64(hashtable.KeyBytes(1))
		denseModel += memmodel.DenseIndexSize(t.RowsOut, build.base.NumRows(), hashtable.OffsetBytes, hashtable.RefBytes)
	}
	selSt, selBytes, err := h.selectStats(d, 7, "select(lineitem)", tpch.LineitemSchema.RowWidth())
	if err != nil {
		return nil, err
	}
	_ = selSt

	// The high-UoT run is staged — "one join at a time" — so at most one
	// cascade hash table is live, as Table II assumes.
	highB, err := tpch.Build(d, 7, tpch.QueryOpts{Staged: true})
	if err != nil {
		return nil, err
	}
	highRes, err := engine.Execute(highB, engine.Options{
		Workers: 1, UoTBlocks: core.UoTTable, TempBlockBytes: 2 << 20,
	})
	if err != nil {
		return nil, err
	}

	r.AddRow("low UoT (1 block)",
		mib(lowRun.HashTables.High()), mib(lowRun.Intermediates.High()),
		mib(hashModel), mib(denseModel), "-")
	r.AddRow("high UoT (table, staged)",
		mib(highRes.Run.HashTables.High()), mib(highRes.Run.Intermediates.High()),
		mib(hashModel), mib(denseModel), mib(selBytes))
	r.Note("Table II: low UoT must keep all cascade hash tables live; the staged high-UoT execution holds one at a time but materializes the selection output")
	r.Note("Q7 builds its orders table on the whole table; the paper's Section VI-C point (materializing is the cheaper overhead) holds only while that table outweighs model_sel_out, and a dense index over 1..N order keys is smaller than a c/f hash table")
	return r, nil
}

// Tab6Prefetching regenerates Table VI: average per-task simulated times for
// Q7's select, build, and probe operators with the modeled hardware
// prefetcher enabled/disabled, on row-store tables across block sizes.
// Expected shape: prefetching helps the sequential select and hurts the
// random-access build and probe.
func (h *Harness) Tab6Prefetching() (*Report, error) {
	r := &Report{
		ID:    "TAB6",
		Title: "Average task times (simulated ms) with prefetcher enabled (yes) / disabled (no), row store",
		Header: []string{
			"block", "select_yes", "select_no", "build_yes", "build_no", "probe_yes", "probe_no",
		},
	}
	ops := []string{"select(lineitem)", "build(orders)", "probe(orders)"}
	for _, blockBytes := range []int{128 << 10, 512 << 10, 2 << 20} {
		// The scalability SF and a quarter of the configured L3 keep the
		// orders join table (about 7 MB at SF 0.2: a dense index and its
		// payload) well above the simulated L3, as at the paper's scale
		// (2.4 GB against 25 MB): the random misses are what wasted
		// prefetches amplify.
		d := h.DatasetSF(h.scaleSF(), blockBytes, storage.RowStore)
		row := []string{blockLabel(blockBytes)}
		cells := map[string][2]string{}
		for i, prefetch := range []bool{true, false} {
			p := cachesim.Default()
			p.L3Bytes = h.cfg.SimL3Bytes / 4
			sim := cachesim.New(p)
			sim.SetThreads(h.cfg.Workers)
			sim.SetPrefetch(prefetch)
			res, err := h.run(d, 7, engine.Options{
				Workers: 1, UoTBlocks: 1, TempBlockBytes: blockBytes, Sim: sim,
			}, tpch.QueryOpts{})
			if err != nil {
				return nil, err
			}
			for _, op := range ops {
				t, ok := opTotals(res.Run, op)
				if !ok {
					return nil, fmt.Errorf("q7 missing %s", op)
				}
				c := cells[op]
				c[i] = simMs(t.AvgSim())
				cells[op] = c
			}
		}
		for _, op := range ops {
			row = append(row, cells[op][0], cells[op][1])
		}
		r.AddRow(row...)
	}
	r.Note("simulated prefetcher: sequential streams ramp to the amortized line cost; random accesses waste speculative fetches (Table VI's probe/build penalty)")
	return r, nil
}

// Sec6CLIP regenerates the Section VI-C LIP discussion on Q7: the size of
// the materialized lineitem-selection output and the query time with and
// without LIP, which probes the supplier join table from the lineitem scan.
func (h *Harness) Sec6CLIP() (*Report, error) {
	r := &Report{
		ID:     "SEC6C",
		Title:  "LIP pruning on Q7 (the supplier join table, probed from the lineitem scan)",
		Header: []string{"variant", "sel_out_rows", "intermediate_MiB", "query_ms"},
	}
	d := h.Dataset(2<<20, storage.ColumnStore)
	for _, lip := range []bool{false, true} {
		var rows int64
		var bytes int64
		dur, _, err := h.bestOf(func() (*stats.Run, error) {
			b, err := tpch.Build(d, 7, tpch.QueryOpts{LIP: lip})
			if err != nil {
				return nil, err
			}
			sel, _ := findOp[*exec.SelectOp](b, "select(lineitem)")
			res, err := engine.Execute(b, engine.Options{
				Workers: h.cfg.Workers, UoTBlocks: 1, TempBlockBytes: 2 << 20,
			})
			if err != nil {
				return nil, err
			}
			if t, ok := opTotals(res.Run, "select(lineitem)"); ok {
				rows = t.RowsOut
				bytes = t.RowsOut * int64(sel.OutSchema().RowWidth())
			}
			return res.Run, nil
		})
		if err != nil {
			return nil, err
		}
		label := "no LIP"
		if lip {
			label = "LIP"
		}
		r.AddRow(label, fmt.Sprintf("%d", rows), mib(bytes), ms(dur))
	}
	r.Note("the paper's SF-100 numbers: 2.8 GB without pruning vs 224 MB with bloom-filter pruning (~12x); this engine probes the join table itself, so it prunes exactly, with no false positives; the fraction of lineitem surviving the supplier filter is scale-invariant")
	return r, nil
}
