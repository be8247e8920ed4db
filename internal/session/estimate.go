package session

import (
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/exec"
)

// EstimateBuilder derives a query's admission memory estimate from its plan
// shape: the resolved UoT of every pipelined edge (blocks that may sit
// buffered awaiting delivery), the in-flight work-order cap (blocks being
// filled), and a fixed charge per stateful operator. See
// costmodel.QueryMemory for the formula.
func EstimateBuilder(b *engine.Builder, workers, uotDefault int, blockBytes int64) int64 {
	uots, stateful := planShape(b, uotDefault)
	return costmodel.QueryMemory(uots, workers, blockBytes, stateful)
}

// EstimateBuilderSplit is EstimateBuilder for sessions with a spill tier: the
// same total, split into the RAM-resident share (charged against the memory
// budget) and the spillable share (deep edge backlogs the tier can park on
// disk, charged against the disk budget). See costmodel.QueryMemorySplit.
func EstimateBuilderSplit(b *engine.Builder, workers, uotDefault int, blockBytes int64) (ram, spillable int64) {
	uots, stateful := planShape(b, uotDefault)
	return costmodel.QueryMemorySplit(uots, workers, blockBytes, stateful)
}

func planShape(b *engine.Builder, uotDefault int) (uots []int, stateful int) {
	p := b.Plan()
	uots = make([]int, 0, len(p.Edges))
	for _, e := range p.Edges {
		if e.Kind == core.Pipelined {
			uots = append(uots, core.ResolveUoT(e, uotDefault))
		}
	}
	for _, op := range p.Ops {
		switch op.(type) {
		case *exec.BuildHashOp, *exec.AggOp, *exec.SortOp:
			stateful++
		}
	}
	return uots, stateful
}
