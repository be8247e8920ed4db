// Partitioned-plan construction: the builder helpers that wire an exchange
// operator plus per-partition operator clones into a plan. The exchange
// hash-partitions its input by key into P partition-tagged edges; each clone
// consumes exactly one partition's stream and therefore owns its state
// outright — partition-local join builds insert without shard locks, and
// partition-local aggregations skip the global radix merge.
package engine

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
)

// SetPartitions sets the builder's default exchange fan-out, used by the
// Partitioned* helpers when called with parts == 0. A typical caller picks
// the value with costmodel.Partitions(rows, workers); 0 or 1 makes the
// helpers fall back to the ordinary unpartitioned operators.
func (b *Builder) SetPartitions(p int) { b.parts = p }

// resolveParts applies the builder default to an unspecified fan-out.
func (b *Builder) resolveParts(parts int) int {
	if parts <= 0 {
		parts = b.parts
	}
	return parts
}

// Exchange adds a hash-partitioning exchange over `from` keyed on keyCols.
// Downstream consumers of partition p attach with Plan().PipePart(...); the
// Partitioned* helpers below do this wiring for the common join and
// aggregation shapes. The operator is returned alongside the node so callers
// can inspect it after the run (partitioner, skew guard).
func (b *Builder) Exchange(from *Node, name string, keyCols []int, parts int) (*Node, *exchange.Op) {
	op := exchange.New(exchange.Spec{
		Name:        name,
		InputSchema: from.Schema,
		KeyCols:     keyCols,
		Partitions:  b.resolveParts(parts),
	})
	id := b.plan.AddOp(op)
	op.SetID(id)
	b.pipeFrom(from, id)
	return &Node{ID: id, Schema: op.OutSchema(), op: op}, op
}

// PartitionedHashJoin builds a hash join as P partition-local pipelines: both
// sides pass through an exchange keyed on their join columns (equal keys land
// in the same partition on both sides), and each partition gets its own build
// clone — PartitionLocal, MaxDOP 1, so inserts take the unlocked kernel — and
// its own probe clone reading that build's table. parts == 0 uses the builder
// default; a resolved fan-out of ≤ 1 falls back to the ordinary shared-table
// Build+Probe, which is the baseline the equivalence tests compare
// against.
func (b *Builder) PartitionedHashJoin(buildFrom, probeFrom *Node, bspec exec.BuildSpec, pspec exec.ProbeSpec, parts int) *Node {
	parts = b.resolveParts(parts)
	if parts <= 1 {
		build, _ := b.Build(buildFrom, bspec)
		return b.Probe(probeFrom, build, pspec)
	}
	buildEx, bxOp := b.Exchange(buildFrom, bspec.Name, bspec.KeyCols, parts)
	probeEx, _ := b.Exchange(probeFrom, pspec.Name, pspec.KeyCols, parts)
	parts = bxOp.OutputPartitions() // actual (power-of-two, clamped) fan-out

	if b.plan.MaxDOP == nil {
		b.plan.MaxDOP = make(map[core.OpID]int, parts)
	}
	srcs := make([]core.OpID, 0, parts)
	var last *exec.ProbeOp
	var lastID core.OpID
	for p := 0; p < parts; p++ {
		bs := bspec
		bs.Name = bspec.Name + "/p" + strconv.Itoa(p)
		bs.InputSchema = buildEx.Schema
		bs.PartitionLocal = true
		if bspec.ExpectedRows > 0 {
			bs.ExpectedRows = bspec.ExpectedRows/parts + 1
		}
		bop := exec.NewBuildHash(bs)
		bid := exec.AddOp(b.plan, bop)
		b.plan.PipePart(buildEx.ID, bid, 0, 0, p)
		b.plan.MaxDOP[bid] = 1 // exclusive table access within the clone

		ps := pspec
		ps.Name = pspec.Name + "/p" + strconv.Itoa(p)
		ps.InputSchema = probeEx.Schema
		ps.Build = bop
		pop := exec.NewProbe(ps)
		pid := exec.AddOp(b.plan, pop)
		b.plan.PipePart(probeEx.ID, pid, 0, 0, p)
		b.plan.Block(bid, pid)

		srcs = append(srcs, pid)
		last, lastID = pop, pid
	}
	return &Node{ID: lastID, Schema: last.OutSchema(), op: last, srcs: srcs}
}

// PartitionedAgg builds a hash aggregation as P partition-local clones behind
// an exchange keyed on the group-by columns: every group lands in exactly one
// clone, so each clone's Final emits its groups directly (a single merge work
// order) instead of fanning out over a shared radix merge. Falls back to the
// ordinary Agg when the resolved fan-out is ≤ 1, when the aggregate is scalar
// (no group keys to partition on), or when a group key is not a plain
// int64/date column reference (the exchange cannot hash it).
func (b *Builder) PartitionedAgg(from *Node, spec exec.AggOpSpec, parts int) *Node {
	parts = b.resolveParts(parts)
	keyCols, ok := aggExchangeKeys(spec)
	if parts <= 1 || !ok {
		return b.Agg(from, spec)
	}
	ex, exOp := b.Exchange(from, spec.Name, keyCols, parts)
	parts = exOp.OutputPartitions()

	srcs := make([]core.OpID, 0, parts)
	var last *exec.AggOp
	var lastID core.OpID
	for p := 0; p < parts; p++ {
		as := spec
		as.Name = spec.Name + "/p" + strconv.Itoa(p)
		as.InputSchema = ex.Schema
		as.PartitionLocal = true
		op := exec.NewAgg(as)
		id := exec.AddOp(b.plan, op)
		b.plan.PipePart(ex.ID, id, 0, 0, p)
		srcs = append(srcs, id)
		last, lastID = op, id
	}
	return &Node{ID: lastID, Schema: last.OutSchema(), op: last, srcs: srcs}
}

// aggExchangeKeys extracts the exchange key columns from an aggregation's
// group-by: 1 or 2 plain int64/date column references, which the exchange's
// scatter kernel can hash.
func aggExchangeKeys(spec exec.AggOpSpec) ([]int, bool) {
	if len(spec.GroupBy) < 1 || len(spec.GroupBy) > 2 {
		return nil, false
	}
	cols := make([]int, 0, len(spec.GroupBy))
	for _, g := range spec.GroupBy {
		c, ok := expr.AsPrimaryColRef(g)
		if !ok || (c.Ty != types.Int64 && c.Ty != types.Date) {
			return nil, false
		}
		cols = append(cols, c.Col)
	}
	return cols, true
}
