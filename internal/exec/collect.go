package exec

import (
	"repro/internal/core"
	"repro/internal/storage"
)

// CollectOp is an adopting sink (core.KeepAdopted): it appends every block
// fed to it to a result table, under the run's lock and without work orders.
// A successful run hands the blocks out of the pool, so the result stays
// valid after it; after a failed one the scheduler has released them and the
// table must not be read. It is the plan's result sink and, wired to an
// interior node, the reuse cache's tap.
type CollectOp struct {
	core.Base
	result *storage.Table
}

// NewCollect builds a collector whose result table has the given schema.
func NewCollect(schema *storage.Schema, blockBytes int, format storage.Format) *CollectOp {
	return &CollectOp{result: storage.NewTable("result", schema, format, blockBytes)}
}

// Name implements core.Operator.
func (o *CollectOp) Name() string { return "collect" }

// Keeps implements core.Operator.
func (o *CollectOp) Keeps() core.Keep { return core.KeepAdopted }

// Feed implements core.Operator.
func (o *CollectOp) Feed(_ *core.ExecCtx, _ int, blocks []*storage.Block) []core.WorkOrder {
	for _, b := range blocks {
		o.result.Append(b)
	}
	return nil
}

// Result returns the collected result table.
func (o *CollectOp) Result() *storage.Table { return o.result }
