package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ssb"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Sec6BSSBFootprint reproduces the Section VI-B contrast: on the Star
// Schema Benchmark the join hash tables are built on small dimensions, so
// keeping all of them live (low UoT) costs less memory than materializing
// fact-table intermediates (high UoT) — the opposite of the paper's TPC-H
// Q7, where the orders hash table dominates.
func (h *Harness) Sec6BSSBFootprint() (*Report, error) {
	r := &Report{
		ID:    "SEC6B",
		Title: "SSB memory footprints: small dimension hash tables flip the Table II comparison (MiB)",
		Header: []string{
			"query", "low_hash", "low_temp", "high_hash", "high_temp",
		},
	}
	d := ssb.Load(h.cfg.SF, 128<<10, storage.ColumnStore)
	for _, name := range ssb.Flights() {
		var cells []string
		for _, uot := range []int{1, core.UoTTable} {
			b, err := ssb.Build(d, name)
			if err != nil {
				return nil, err
			}
			res, err := engine.Execute(b, engine.Options{
				Workers: 1, UoTBlocks: uot, TempBlockBytes: 128 << 10,
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, mib(res.Run.HashTables.High()), mib(res.Run.Intermediates.High()))
		}
		r.AddRow(append([]string{name}, cells...)...)
	}
	r.Note("compare with TAB2: on SSB the dimension tables are small, so keeping them all live costs far less than materializing fact-table intermediates")
	return r, nil
}

// AblationUoTSweep runs selected queries across the whole UoT spectrum —
// the paper's central claim is that UoT is a knob, not a binary, so this
// sweep shows the full curve between the two named extremes.
func (h *Harness) AblationUoTSweep() (*Report, error) {
	r := &Report{
		ID:    "ABL-UOT",
		Title: "UoT spectrum sweep (wall ms at 128KB blocks; 1=pipelining ... table=blocking)",
		Header: []string{
			"query", "uot=1", "uot=2", "uot=4", "uot=16", "uot=64", "uot=table",
		},
	}
	d := h.Dataset(128<<10, storage.ColumnStore)
	for _, num := range []int{1, 3, 6, 7, 13, 19} {
		row := []string{fmt.Sprintf("Q%02d", num)}
		for _, uot := range []int{1, 2, 4, 16, 64, core.UoTTable} {
			dur, _, err := h.bestOf(func() (*stats.Run, error) {
				res, err := h.run(d, num, engine.Options{
					Workers: h.cfg.Workers, UoTBlocks: uot, TempBlockBytes: 128 << 10,
				}, tpch.QueryOpts{})
				if err != nil {
					return nil, err
				}
				return res.Run, nil
			})
			if err != nil {
				return nil, err
			}
			row = append(row, ms(dur))
		}
		r.AddRow(row...)
	}
	r.Note("the flat curves are the paper's thesis: for in-memory block engines, the spectrum position barely moves whole-query time")
	return r, nil
}

// AblationBlockSize sweeps the storage block size at both UoT extremes —
// the orthogonal knob the paper discusses in Section VII-B3 (small blocks
// pay storage-management and scheduling overhead).
func (h *Harness) AblationBlockSize() (*Report, error) {
	r := &Report{
		ID:    "ABL-BLOCK",
		Title: "Block size sweep on Q3 (wall ms; pool checkouts show the management overhead)",
		Header: []string{
			"block", "low_uot_ms", "high_uot_ms", "checkouts", "lineitem_blocks",
		},
	}
	for _, blockBytes := range []int{32 << 10, 128 << 10, 512 << 10, 2 << 20} {
		d := h.Dataset(blockBytes, storage.ColumnStore)
		var cells []string
		var checkouts int64
		for _, uot := range []int{1, core.UoTTable} {
			dur, last, err := h.bestOf(func() (*stats.Run, error) {
				res, err := h.run(d, 3, engine.Options{
					Workers: h.cfg.Workers, UoTBlocks: uot, TempBlockBytes: blockBytes,
				}, tpch.QueryOpts{})
				if err != nil {
					return nil, err
				}
				return res.Run, nil
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, ms(dur))
			checkouts = last.Checkouts()
		}
		r.AddRow(blockLabel(blockBytes), cells[0], cells[1],
			fmt.Sprintf("%d", checkouts), fmt.Sprintf("%d", d.Lineitem.NumBlocks()))
	}
	r.Note("smaller blocks mean more work orders and more temp-block checkouts per query — the Section VII-B3 overhead")
	return r, nil
}
