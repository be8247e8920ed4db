// Package reuse implements a cross-query cache of materialized subplan
// results (ROADMAP item 3a, after Dursun et al., "Revisiting Reuse in Main
// Memory Database Systems"): plan subtrees are fingerprinted canonically,
// cold runs capture the block sets they materialize anyway at high-UoT
// delivery boundaries, and later queries whose subtrees fingerprint-match a
// cached entry splice a scan of the pinned block set in place of the whole
// subtree. Admission and eviction are ranked by recompute-cost-per-byte
// (costmodel.RecomputeCost), entries live in RAM only, and validity is keyed
// on base table identity + data version.
package reuse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/storage"
)

// Fingerprint is the SHA-256 of a subplan's canonical encoding: the root
// operator's Canon() string, the fingerprints of its pipelined children in
// input order, and the fingerprints of its blocking children sorted — so a
// fingerprint covers the operator, everything upstream of it, and the
// identity+version of every base table underneath, while remaining
// invariant to UoT values, worker counts, and block sizes/formats (none of
// which appear in any Canon).
type Fingerprint [sha256.Size]byte

// String renders a short hex prefix for logs and table names.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:8]) }

// Dep is one base table a fingerprinted subtree reads, with the data
// version observed at fingerprint time; a cached entry is valid only while
// every dep's current version still matches.
type Dep struct {
	Table   *storage.Table
	Version int64
}

// canonical is the operator self-description hook (implemented in
// internal/exec, asserted structurally here to keep this package
// independent of the operator library).
type canonical interface{ Canon() string }

// baseTabler exposes a scan's base table for dep collection.
type baseTabler interface{ BaseTable() *storage.Table }

// Plan is the fingerprint analysis of one core.Plan.
type Plan struct {
	// FP maps every fingerprintable operator to its subtree fingerprint.
	// An operator is absent when it, or anything upstream of it, does not
	// implement Canon.
	FP map[core.OpID]Fingerprint
	// Deps maps fingerprintable operators to the base tables their subtree
	// reads (deduplicated, deterministic order).
	Deps map[core.OpID][]Dep
	// Ops maps fingerprintable operators to their subtree operator count —
	// the recompute-cost multiplier for admission benefit.
	Ops map[core.OpID]int
	// Root is the operator feeding the plan's adopting sink (-1 if none);
	// RootOK reports whether it is fingerprintable.
	Root   core.OpID
	RootOK bool

	plan    *core.Plan
	inPipe  map[core.OpID][]int // op -> pipelined in-edge indexes
	inBlock map[core.OpID][]int // op -> blocking in-edge indexes
}

// Analyze fingerprints a plan.
func Analyze(p *core.Plan) *Plan {
	a := &Plan{
		FP:      make(map[core.OpID]Fingerprint),
		Deps:    make(map[core.OpID][]Dep),
		Ops:     make(map[core.OpID]int),
		Root:    -1,
		plan:    p,
		inPipe:  make(map[core.OpID][]int),
		inBlock: make(map[core.OpID][]int),
	}
	for i, e := range p.Edges {
		if e.Kind == core.Pipelined {
			a.inPipe[e.To] = append(a.inPipe[e.To], i)
		} else {
			a.inBlock[e.To] = append(a.inBlock[e.To], i)
		}
	}
	for id := range a.inPipe {
		edges, es := a.inPipe[id], p.Edges
		sort.Slice(edges, func(i, j int) bool {
			if es[edges[i]].ToInput != es[edges[j]].ToInput {
				return es[edges[i]].ToInput < es[edges[j]].ToInput
			}
			return es[edges[i]].From < es[edges[j]].From
		})
	}
	state := make([]int8, len(p.Ops)) // 0 unvisited, 1 in progress, 2 done
	for id := range p.Ops {
		a.visit(core.OpID(id), state)
	}
	for id, op := range p.Ops {
		if op.AdoptsInputs() {
			if in := a.inPipe[core.OpID(id)]; len(in) == 1 {
				a.Root = p.Edges[in[0]].From
				_, a.RootOK = a.FP[a.Root]
			}
			break
		}
	}
	return a
}

// visit computes the subtree fingerprint of id bottom-up; ok=false marks
// the subtree unfingerprintable (and poisons everything downstream of it).
func (a *Plan) visit(id core.OpID, state []int8) bool {
	switch state[id] {
	case 2:
		_, ok := a.FP[id]
		return ok
	case 1:
		return false // cycle — defensive, plans are DAGs
	}
	state[id] = 1
	defer func() { state[id] = 2 }()

	c, ok := a.plan.Ops[id].(canonical)
	if !ok {
		return false
	}
	deps := []Dep{}
	if bt, ok := a.plan.Ops[id].(baseTabler); ok {
		if t := bt.BaseTable(); t != nil {
			deps = append(deps, Dep{Table: t, Version: t.Version()})
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "op|%s\n", c.Canon())
	ops := 1
	for _, ei := range a.inPipe[id] {
		e := a.plan.Edges[ei]
		if !a.visit(e.From, state) {
			return false
		}
		fp := a.FP[e.From]
		fmt.Fprintf(h, "pipe|%d|", e.ToInput)
		h.Write(fp[:])
		deps = append(deps, a.Deps[e.From]...)
		ops += a.Ops[e.From]
	}
	var blockFPs [][sha256.Size]byte
	for _, ei := range a.inBlock[id] {
		e := a.plan.Edges[ei]
		if !a.visit(e.From, state) {
			return false
		}
		blockFPs = append(blockFPs, a.FP[e.From])
		deps = append(deps, a.Deps[e.From]...)
		ops += a.Ops[e.From]
	}
	sort.Slice(blockFPs, func(i, j int) bool {
		return string(blockFPs[i][:]) < string(blockFPs[j][:])
	})
	for _, fp := range blockFPs {
		h.Write([]byte("block|"))
		h.Write(fp[:])
	}
	var fp Fingerprint
	h.Sum(fp[:0])
	a.FP[id] = fp
	a.Deps[id] = dedupDeps(deps)
	a.Ops[id] = ops
	return true
}

func dedupDeps(deps []Dep) []Dep {
	if len(deps) <= 1 {
		return deps
	}
	seen := make(map[*storage.Table]struct{}, len(deps))
	out := deps[:0]
	for _, d := range deps {
		if _, ok := seen[d.Table]; ok {
			continue
		}
		seen[d.Table] = struct{}{}
		out = append(out, d)
	}
	return out
}

// RootFingerprint returns the fingerprint of the whole plan's result (the
// subtree feeding the adopting sink), for submit-time single-flight keys.
func RootFingerprint(p *core.Plan) (Fingerprint, bool) {
	a := Analyze(p)
	if !a.RootOK {
		return Fingerprint{}, false
	}
	return a.FP[a.Root], true
}

// Reach returns the backward closure of id over every edge kind: the set of
// operators whose work exists only to produce id's output (plus id itself).
// The splice surgery prunes exactly this set.
func (a *Plan) Reach(id core.OpID) map[core.OpID]bool {
	r := map[core.OpID]bool{id: true}
	var grow func(core.OpID)
	grow = func(to core.OpID) {
		for _, e := range a.plan.Edges {
			if e.To == to && !r[e.From] {
				r[e.From] = true
				grow(e.From)
			}
		}
	}
	grow(id)
	return r
}

// Spliceable reports whether replacing id's subtree with a cached-result
// scan is safe: no operator in the pruned region (other than id itself) may
// have an edge escaping the region — an escaping pipelined edge means the
// region feeds someone else, an escaping blocking edge means it gates or
// parameterizes someone else — since pruning would starve that consumer.
func (a *Plan) Spliceable(id core.OpID) bool {
	if _, ok := a.FP[id]; !ok {
		return false
	}
	r := a.Reach(id)
	for _, e := range a.plan.Edges {
		if r[e.From] && e.From != id && !r[e.To] {
			return false
		}
	}
	return true
}
