package stats

// Kernel is the set of hot-path counters one work order reports. It is
// declared here once and embedded wherever the counters travel — core.Output
// (where operators bump them), WorkOrder and OpTotals (per-run stats),
// trace.Event and trace.OpMetrics (the tracer and its JSON/Prometheus
// exports) — so field promotion keeps `out.AggFastRows++` and
// `op.AggFastRows` spelled as before while every copy is a struct assignment
// or Add. Adding a counter is a field here plus its line in KernelCounters
// and in Add.
//
// A rolled-back attempt reports all zeros (core.Output.Finish clears them),
// so sums over attempts need no failed/succeeded case split.
type Kernel struct {
	// ShardLocks counts hash-table shard-lock acquisitions performed by the
	// work order (the batch insert kernels take each shard lock once per
	// block instead of once per row).
	ShardLocks int64 `json:"shard_locks,omitempty"`
	// BatchedRows counts rows that went through a block-granular batch
	// kernel (InsertBlock, AddMany, vectorized probe) rather than a
	// row-at-a-time reference path.
	BatchedRows int64 `json:"batched_rows,omitempty"`
	// ScratchHits counts scratch-buffer pool hits: work orders that reused
	// a previous work order's buffers instead of allocating fresh ones.
	ScratchHits int64 `json:"scratch_hits,omitempty"`

	// AggPartials counts thread-local partial aggregation tables created by
	// the work order (free-list misses; the steady state reuses partials
	// across blocks, so totals approach the worker count).
	AggPartials int64 `json:"agg_partials,omitempty"`
	// AggMergeFanout counts aggregation merge work orders: one per radix
	// partition of the group-hash space (one in all for a scalar
	// aggregate).
	AggMergeFanout int64 `json:"agg_merge_fanout,omitempty"`
	// AggFastRows counts rows aggregated through the aggregation kernel:
	// every input row of every aggregation (the name predates the removal
	// of the row-at-a-time path and is kept for the export's sake).
	AggFastRows int64 `json:"agg_fast_rows,omitempty"`

	// SortRuns counts sorted runs produced by run-generation work orders
	// (one per block fed to a sort).
	SortRuns int64 `json:"sort_runs,omitempty"`
	// SortMergeFanout counts range-partitioned merge work orders: the
	// parallelism of the k-way merge of the runs.
	SortMergeFanout int64 `json:"sort_merge_fanout,omitempty"`
	// SortFastRows counts rows sorted through the normalized-key kernel:
	// every input row of every sort (named like AggFastRows).
	SortFastRows int64 `json:"sort_fast_rows,omitempty"`
	// TopKPruned counts rows discarded by the bounded top-k heap without
	// ever being materialized into a run (ORDER BY ... LIMIT pruning).
	TopKPruned int64 `json:"topk_pruned,omitempty"`
}

// KernelCounter names one Kernel field: Name is its snake_case export name
// (the field's JSON key, and uot_<Name>_total in Prometheus text), Help the
// Prometheus HELP line, Of the field accessor.
type KernelCounter struct {
	Name, Help string
	Of         func(*Kernel) *int64
}

// KernelCounters is the single name table behind Each and the per-operator
// Prometheus counters, in Kernel field order. A reflection test fails if a
// Kernel field is missing here or in Add.
var KernelCounters = []KernelCounter{
	{"shard_locks", "Hash-table shard-lock acquisitions per operator.", func(k *Kernel) *int64 { return &k.ShardLocks }},
	{"batched_rows", "Rows through block-granular batch kernels per operator.", func(k *Kernel) *int64 { return &k.BatchedRows }},
	{"scratch_hits", "Scratch-buffer pool reuse hits per operator.", func(k *Kernel) *int64 { return &k.ScratchHits }},
	{"agg_partials", "Thread-local partial aggregation tables created per operator.", func(k *Kernel) *int64 { return &k.AggPartials }},
	{"agg_merge_fanout", "Radix-partition aggregation merge work orders per operator.", func(k *Kernel) *int64 { return &k.AggMergeFanout }},
	{"agg_fast_rows", "Rows aggregated through the aggregation kernel per operator.", func(k *Kernel) *int64 { return &k.AggFastRows }},
	{"sort_runs", "Sorted runs generated per operator.", func(k *Kernel) *int64 { return &k.SortRuns }},
	{"sort_merge_fanout", "Range-partitioned sort merge work orders per operator.", func(k *Kernel) *int64 { return &k.SortMergeFanout }},
	{"sort_fast_rows", "Rows sorted through the normalized-key kernel per operator.", func(k *Kernel) *int64 { return &k.SortFastRows }},
	{"topk_pruned", "Rows pruned by the bounded top-k heap per operator.", func(k *Kernel) *int64 { return &k.TopKPruned }},
}

// Add sums o's counters into k. Spelled out rather than looped over
// KernelCounters: an accessor call through the table would move o to the
// heap, and the tracer's recording path must stay allocation-free.
func (k *Kernel) Add(o Kernel) {
	k.ShardLocks += o.ShardLocks
	k.BatchedRows += o.BatchedRows
	k.ScratchHits += o.ScratchHits
	k.AggPartials += o.AggPartials
	k.AggMergeFanout += o.AggMergeFanout
	k.AggFastRows += o.AggFastRows
	k.SortRuns += o.SortRuns
	k.SortMergeFanout += o.SortMergeFanout
	k.SortFastRows += o.SortFastRows
	k.TopKPruned += o.TopKPruned
}

// Each calls fn with every counter's export name and value, in table order.
func (k Kernel) Each(fn func(name string, v int64)) {
	for _, c := range KernelCounters {
		fn(c.Name, *c.Of(&k))
	}
}
