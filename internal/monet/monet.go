// Package monet is the Fig. 11 comparator: a MonetDB-style
// operator-at-a-time execution mode. MonetDB [Idreos et al.] processes one
// operator at a time over fully materialized (column-oriented) intermediates
// and has no provision for UoT-style scheduling or sideways information
// passing. This baseline isolates exactly those properties inside the same
// codebase:
//
//   - every pipelined edge uses UoT = whole table, so a consumer starts only
//     after its producer fully materialized its output (operator-at-a-time);
//   - intermediates are column-store and allocated fresh per operator (BAT
//     materialization — no temp-block pool reuse);
//   - LIP is disabled: no scan probes a join table ahead of its join
//     (MonetDB has no equivalent);
//   - all workers are available to each operator in turn (MonetDB's
//     intra-operator "mitosis" parallelization).
//
// The engine under test, by contrast, runs with its preferred configuration
// (configurable UoT, row-store temporaries, pooled blocks, LIP). Comparing
// the two reproduces the *shape* of the paper's Fig. 11: the block-scheduler
// engine wins most queries, mainly through LIP pruning and allocation reuse,
// while a few scan-dominated queries are close.
package monet

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
)

// Options selects the worker count and intermediate block size.
type Options struct {
	Workers int
	// TempBlockBytes is the materialization unit; MonetDB appends to large
	// contiguous BATs, so the default is 2 MB.
	TempBlockBytes int
}

// Execute runs a built plan in operator-at-a-time mode.
func Execute(b *engine.Builder, o Options) (*engine.Result, error) {
	if o.TempBlockBytes <= 0 {
		o.TempBlockBytes = 2 << 20
	}
	// BAT materialization: a pool of its own that never recycles an
	// allocation, so every intermediate gets fresh memory.
	pool := storage.NewPool(nil, nil)
	pool.DisableRecycling()
	return engine.Execute(b, engine.Options{
		Workers:        o.Workers,
		UoTBlocks:      core.UoTTable,
		TempBlockBytes: o.TempBlockBytes,
		TempFormat:     storage.ColumnStore,
		Pool:           pool,
	})
}
