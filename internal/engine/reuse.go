package engine

import (
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/reuse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/types"
)

// Reuse integration: before a plan runs, the engine probes the cross-query
// result cache with the plan's subtree fingerprints. A hit splices a scan of
// the pinned cached block set in place of the whole matched subtree — the
// pruned operators are swapped for inert placeholders, their edges dropped,
// and the scan re-feeds the surviving consumers over the same edges (same
// ToInput, same UoT), so downstream of the splice point the schedule is the
// one the plan would have had. A miss leaves the plan alone but may attach
// capture taps to interior nodes (and always offers the root result) so the
// work the run does anyway fills the cache for later queries.

// prunedOp stands in for an operator removed by a hit-splice. It has no
// edges, produces no work orders, and finishes immediately. If the pruned
// operator was registered as a scalar-slot provider, the placeholder
// publishes a dummy scalar: the slice of the plan that consumed that slot
// was pruned with it (the splice-safety check guarantees no edge escapes the
// pruned region), so the value is never read — but the scheduler insists
// every registered provider produce one.
type prunedOp struct {
	core.Base
	name string
}

func (o *prunedOp) Name() string                     { return o.name }
func (o *prunedOp) NumInputs() int                   { return 0 }
func (o *prunedOp) ScalarValue() (types.Datum, bool) { return types.NewInt64(0), true }

// outSchemer is the operator output-schema hook (Select/Probe/Agg/Sort).
type outSchemer interface{ OutSchema() *storage.Schema }

// reuseTap records one capture operator attached to a fingerprinted
// interior node, to be offered to the cache after a successful run.
type reuseTap struct {
	op   *exec.CaptureOp
	fp   reuse.Fingerprint
	deps []reuse.Dep
	ops  int
}

// reuseState carries the engine's per-execution reuse bookkeeping from plan
// surgery to post-run finalization.
type reuseState struct {
	cache  *reuse.Cache
	pinned []*reuse.Entry // hit entries spliced into the plan; unpinned at end

	hit        bool
	splicedOps int64
	hitBytes   int64

	taps []reuseTap

	rootOK   bool
	rootFP   reuse.Fingerprint
	rootDeps []reuse.Dep
	rootOps  int
}

// maxReuseTaps bounds capture taps per run: each tap copies its node's full
// output, so the cold-run tax is limited to the two largest cacheable
// subtrees.
const maxReuseTaps = 2

// prepareReuse fingerprints the plan, splices cached results in, and
// attaches capture taps. Returns nil when reuse is off.
func prepareReuse(b *Builder, opts Options) *reuseState {
	if opts.Reuse == nil {
		return nil
	}
	p := b.plan
	a := reuse.Analyze(p)
	rs := &reuseState{cache: opts.Reuse}
	scalarProvider := make(map[core.OpID]bool, len(p.ScalarSlots))
	for _, id := range p.ScalarSlots {
		scalarProvider[id] = true
	}

	// Root probe: the whole plan's result. A hit serves the query entirely
	// from the cache — one scan feeding the collect sink.
	if a.RootOK && !scalarProvider[a.Root] {
		fp := a.FP[a.Root]
		if e := rs.cache.Lookup(fp); e != nil {
			if spliceOK(p, a.Root, e.Table()) {
				rs.pinned = append(rs.pinned, e)
				rs.hit = true
				rs.splicedOps += int64(spliceCachedScan(p, a, a.Root, e.Table()))
				rs.hitBytes += e.Bytes()
				return rs // nothing left to tap — the plan is one scan now
			}
			e.Release()
		} else {
			rs.rootOK = true
			rs.rootFP = fp
			rs.rootDeps = a.Deps[a.Root]
			rs.rootOps = a.Ops[a.Root]
		}
	}

	// Interior candidates: fingerprintable aggregation nodes (the classic
	// reusable materialization point — small output, expensive subtree),
	// largest subtree first.
	var cands []core.OpID
	for i := range p.Ops {
		id := core.OpID(i)
		if _, isAgg := p.Ops[i].(*exec.AggOp); !isAgg || id == a.Root {
			continue
		}
		if scalarProvider[id] || !a.Spliceable(id) {
			continue
		}
		if !tapSafe(p, id) {
			continue
		}
		cands = append(cands, id)
	}
	for i := 0; i < len(cands); i++ { // selection sort: candidate lists are tiny
		best := i
		for j := i + 1; j < len(cands); j++ {
			if a.Ops[cands[j]] > a.Ops[cands[best]] {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}

	var splicedRegion map[core.OpID]bool
	for _, id := range cands {
		if splicedRegion != nil && splicedRegion[id] {
			continue
		}
		fp := a.FP[id]
		if splicedRegion == nil {
			if e := rs.cache.Lookup(fp); e != nil {
				if spliceOK(p, id, e.Table()) {
					splicedRegion = a.Reach(id)
					rs.pinned = append(rs.pinned, e)
					rs.hit = true
					rs.splicedOps += int64(spliceCachedScan(p, a, id, e.Table()))
					rs.hitBytes += e.Bytes()
					continue
				}
				e.Release()
			}
		} else if rs.cache.Has(fp) {
			continue
		}
		if len(rs.taps) >= maxReuseTaps || dupTap(rs.taps, fp) {
			continue
		}
		os, ok := p.Ops[id].(outSchemer)
		if !ok {
			continue
		}
		cap := exec.NewCapture(os.OutSchema(), rs.cache.MaxEntryBytes())
		capID := exec.AddOp(p, cap)
		p.Pipe(id, capID, 0, 1)
		if p.MaxDOP == nil {
			p.MaxDOP = make(map[core.OpID]int)
		}
		p.MaxDOP[capID] = 1
		rs.taps = append(rs.taps, reuseTap{op: cap, fp: fp, deps: a.Deps[id], ops: a.Ops[id]})
	}
	return rs
}

func dupTap(taps []reuseTap, fp reuse.Fingerprint) bool {
	for _, t := range taps {
		if t.fp == fp {
			return true
		}
	}
	return false
}

// tapSafe rejects nodes whose output feeds an adopting consumer: adding a
// non-adopting tap to such a producer would make the scheduler refcount
// blocks the adopter owns outright, double-releasing them. (Only the collect
// sink adopts today, and it is only fed by the root, but the check is
// structural.)
func tapSafe(p *core.Plan, id core.OpID) bool {
	fed := false
	for _, e := range p.Edges {
		if e.Kind != core.Pipelined || e.From != id {
			continue
		}
		fed = true
		if p.Ops[e.To].AdoptsInputs() {
			return false
		}
	}
	return fed
}

// spliceOK is the defensive gate before surgery: the pinned table must carry
// a scannable schema that matches the node being replaced. The fingerprint
// already guarantees the match (the output schema is part of every Canon);
// this catches cache corruption rather than trusting it.
func spliceOK(p *core.Plan, id core.OpID, t *storage.Table) bool {
	if t == nil || t.Schema() == nil || t.Schema().NumCols() == 0 {
		return false
	}
	if os, ok := p.Ops[id].(outSchemer); ok {
		return os.OutSchema().String() == t.Schema().String()
	}
	return false
}

// spliceCachedScan replaces id's subtree with a scan of the cached table:
// every operator in the subtree's backward closure becomes a placeholder,
// edges interior to the region are dropped, and id's outgoing edges are
// re-pointed to originate from the new scan. Returns the number of
// operators pruned.
func spliceCachedScan(p *core.Plan, a *reuse.Plan, id core.OpID, t *storage.Table) int {
	region := a.Reach(id)
	for opID := range region {
		p.Ops[opID] = &prunedOp{name: "pruned:" + p.Ops[opID].Name()}
	}
	sch := t.Schema()
	projs := make([]expr.Expr, sch.NumCols())
	names := make([]string, sch.NumCols())
	for i := range projs {
		projs[i] = expr.ColIdx(sch, i)
		names[i] = sch.Col(i).Name
	}
	scan := exec.NewSelect(exec.SelectSpec{
		Name: "reuse-scan", Base: t, Proj: projs, ProjNames: names,
	})
	scanID := exec.AddOp(p, scan)
	kept := make([]core.Edge, 0, len(p.Edges))
	for _, e := range p.Edges {
		switch {
		case e.From == id && !region[e.To]:
			// The spliced node's outgoing edges survive with the scan as
			// their new producer; ToInput and UoT are untouched, so the
			// consumer's schedule shape is preserved.
			e.From = scanID
			kept = append(kept, e)
		case region[e.From] || region[e.To]:
			// Interior to the pruned region (Reach guarantees no edge
			// enters the region from outside).
		default:
			kept = append(kept, e)
		}
	}
	p.Edges = kept
	return len(region)
}

// finalize settles the run's reuse bookkeeping: pinned hit entries are
// released, and on success the capture taps and the root result are offered
// to the cache. Captured block sets that are admitted leave the run's pool
// accounting (Disown); rejected ones are released back to it. Entries the
// offers evicted are marked in this run's trace section (traceRun): the cache
// is shared across queries and cannot know whose section is whose.
func (rs *reuseState) finalize(b *Builder, pool *storage.Pool, run *stats.Run, tr *trace.Tracer, traceRun int32, success bool) {
	for _, e := range rs.pinned {
		e.Release()
	}
	u := stats.Reuse{Hit: rs.hit, SplicedOps: rs.splicedOps, HitBytes: rs.hitBytes}
	if success {
		ticks := float64(run.WallTime().Nanoseconds())
		admit := func(fp reuse.Fingerprint, t *storage.Table, deps []reuse.Dep, ops int) bool {
			ok, evicted := rs.cache.Admit(fp, t, deps, ticks, ops)
			for _, bytes := range evicted {
				tr.MarkIn(traceRun, trace.MarkReuseEvict, trace.Event{RowsOut: bytes})
			}
			return ok
		}
		for _, tp := range rs.taps {
			blocks, bytes, _ := tp.op.Take()
			if blocks == nil {
				continue // overflowed or abandoned
			}
			t := storage.NewTable("reuse:"+tp.fp.String(), blocks[0].Schema(),
				blocks[0].Format(), blocks[0].AllocBytes())
			for _, blk := range blocks {
				t.Append(blk)
			}
			if admit(tp.fp, t, tp.deps, tp.ops) {
				pool.Disown(bytes)
				u.Captured++
				u.BytesPinned += bytes
			} else {
				for _, blk := range blocks {
					pool.Release(blk)
				}
				u.CaptureRej++
			}
		}
		if rs.rootOK {
			// The root result is captured for free: the cache shares the
			// client's result table (both sides treat result blocks as
			// immutable, and the engine disowns them from its pool).
			res := b.collect.Result()
			if admit(rs.rootFP, res, rs.rootDeps, rs.rootOps) {
				u.Captured++
				u.BytesPinned += res.AllocBytes()
			} else {
				u.CaptureRej++
			}
		}
	}
	run.SetReuse(u)
}
