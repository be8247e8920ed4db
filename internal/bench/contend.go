package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// ContentionProfile reports the batch-kernel contention counters for
// build-heavy TPC-H queries at the configured worker count: hash-table
// shard-lock acquisitions versus rows built (the lock-amortization ratio),
// rows processed through block-granular kernels, and scratch-buffer pool
// hits. Before the batch kernels, the build path acquired one shard lock per
// inserted row — locks/1K rows was ~1000 by construction; the block-granular
// kernels take each touched shard lock once per block, so the ratio collapses
// by orders of magnitude and stops polluting the UoT sweep signal at high
// worker counts.
func (h *Harness) ContentionProfile() (*Report, error) {
	r := &Report{
		ID:    "CONTEND",
		Title: "Batch-kernel contention profile (shard locks vs rows, scratch reuse)",
		Header: []string{
			"query", "uot", "rows_in", "batched_rows", "shard_locks", "locks_per_1k_rows", "scratch_hit_%",
		},
	}
	d := h.Dataset(128<<10, storage.ColumnStore)
	for _, q := range []int{3, 7} {
		for _, low := range []bool{true, false} {
			uot := core.UoTTable
			if low {
				uot = 1
			}
			res, err := h.run(d, q, engine.Options{
				Workers: h.cfg.Workers, UoTBlocks: uot, TempBlockBytes: 128 << 10,
			}, tpch.QueryOpts{})
			if err != nil {
				return nil, err
			}
			k := res.Run.Kernels()
			var rowsIn, wos int64
			for _, t := range res.Run.PerOp() {
				rowsIn += t.Rows
				wos += int64(t.Count)
			}
			perK := "-"
			if k.BatchedRows > 0 {
				perK = fmt.Sprintf("%.2f", float64(k.ShardLocks)/float64(k.BatchedRows)*1000)
			}
			hitPct := "-"
			if wos > 0 {
				hitPct = fmt.Sprintf("%.1f", 100*float64(k.ScratchHits)/float64(wos))
			}
			r.AddRow(
				fmt.Sprintf("Q%02d", q), uotLabel(low),
				fmt.Sprintf("%d", rowsIn),
				fmt.Sprintf("%d", k.BatchedRows),
				fmt.Sprintf("%d", k.ShardLocks),
				perK, hitPct,
			)
		}
	}
	r.Note("row-at-a-time builds acquire 1000 locks per 1K rows by construction; the batch kernels take each touched shard lock once per block")
	return r, nil
}
