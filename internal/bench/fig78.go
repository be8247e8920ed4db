package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// queryWall measures one query's wall-clock time (best-of policy).
func (h *Harness) queryWall(d *tpch.Dataset, num int, opts engine.Options, qo tpch.QueryOpts) (string, error) {
	dur, _, err := h.bestOf(func() (*stats.Run, error) {
		res, err := h.run(d, num, opts, qo)
		if err != nil {
			return nil, err
		}
		return res.Run, nil
	})
	if err != nil {
		return "", err
	}
	return ms(dur), nil
}

// Fig7QueryTimes reproduces Fig. 7: end-to-end execution time of every
// query for low vs. high UoT at (a) 128 KB and (b) 2 MB blocks, wall clock,
// column-store base tables. The paper's observation: low UoT helps slightly
// at small blocks; at 2 MB the two are indistinguishable, and everything is
// faster with bigger blocks (less storage-management overhead).
func (h *Harness) Fig7QueryTimes() (*Report, error) {
	r := &Report{
		ID:    "FIG7",
		Title: "Query execution times, column store (wall ms, best-of runs)",
		Header: []string{
			"query", "128KB/low", "128KB/high", "2MB/low", "2MB/high",
		},
	}
	for _, num := range tpch.Numbers() {
		row := []string{fmt.Sprintf("Q%02d", num)}
		for _, blockBytes := range []int{128 << 10, 2 << 20} {
			d := h.Dataset(blockBytes, storage.ColumnStore)
			for _, uot := range []int{1, core.UoTTable} {
				cell, err := h.queryWall(d, num, engine.Options{
					Workers: h.cfg.Workers, UoTBlocks: uot, TempBlockBytes: blockBytes,
				}, tpch.QueryOpts{})
				if err != nil {
					return nil, err
				}
				row = append(row, cell)
			}
		}
		r.AddRow(row...)
	}
	r.Note("Fig. 7a is the 128KB pair of columns, Fig. 7b the 2MB pair")
	return r, nil
}

// Fig8RowStore reproduces Fig. 8: query times with all base tables in the
// row-store format at 2 MB blocks. The UoT choice stays irrelevant; queries
// are generally slower than the column-store runs of Fig. 7b because scans
// drag non-referenced columns through the caches.
func (h *Harness) Fig8RowStore() (*Report, error) {
	r := &Report{
		ID:     "FIG8",
		Title:  "Query execution times, row store, 2MB blocks (wall ms)",
		Header: []string{"query", "low_uot", "high_uot", "colstore_low (Fig7b ref)"},
	}
	dRow := h.Dataset2MBRow()
	dCol := h.Dataset(2<<20, storage.ColumnStore)
	for _, num := range tpch.Numbers() {
		row := []string{fmt.Sprintf("Q%02d", num)}
		for _, uot := range []int{1, core.UoTTable} {
			cell, err := h.queryWall(dRow, num, engine.Options{
				Workers: h.cfg.Workers, UoTBlocks: uot, TempBlockBytes: 2 << 20,
			}, tpch.QueryOpts{})
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		ref, err := h.queryWall(dCol, num, engine.Options{
			Workers: h.cfg.Workers, UoTBlocks: 1, TempBlockBytes: 2 << 20,
		}, tpch.QueryOpts{})
		if err != nil {
			return nil, err
		}
		row = append(row, ref)
		r.AddRow(row...)
	}
	return r, nil
}

// Dataset2MBRow returns the row-store dataset used by Fig. 8 and Table VI.
func (h *Harness) Dataset2MBRow() *tpch.Dataset { return h.Dataset(2<<20, storage.RowStore) }
