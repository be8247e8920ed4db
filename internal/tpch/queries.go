package tpch

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
)

// QueryOpts tunes plan construction.
type QueryOpts struct {
	// LIP enables lookahead information passing: the probe-side (usually
	// lineitem) select probes the join tables of filtered build sides,
	// pruning tuples before materialization (Section VI-C of the paper).
	LIP bool
	// Staged executes probe cascades "one join at a time": each hash
	// table is built only after the previous probe finished, so at most
	// one cascade hash table is live at once — the high-UoT execution
	// Table II of the paper analyzes. Currently honored by Q7 (the
	// query the paper's memory analysis uses).
	Staged bool
}

type buildFunc func(d *Dataset, o QueryOpts) *engine.Builder

var queryRegistry = map[int]buildFunc{}

func register(num int, f buildFunc) { queryRegistry[num] = f }

// Numbers returns the implemented query numbers, ascending. These are the
// fourteen TPC-H queries the paper's tables and figures analyze
// individually.
func Numbers() []int {
	out := make([]int, 0, len(queryRegistry))
	for n := range queryRegistry {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Build constructs the physical plan for TPC-H query num over dataset d.
func Build(d *Dataset, num int, o QueryOpts) (*engine.Builder, error) {
	f, ok := queryRegistry[num]
	if !ok {
		return nil, fmt.Errorf("tpch: query %d not implemented (have %v)", num, Numbers())
	}
	return f(d, o), nil
}

// MustBuild is Build that panics on unknown queries.
func MustBuild(d *Dataset, num int, o QueryOpts) *engine.Builder {
	b, err := Build(d, num, o)
	if err != nil {
		panic(err)
	}
	return b
}

// proj resolves column names to reference expressions.
func proj(s *storage.Schema, names ...string) ([]expr.Expr, []string) {
	es := make([]expr.Expr, len(names))
	for i, n := range names {
		es[i] = expr.C(s, n)
	}
	return es, names
}

// scan adds a full-projection or named-projection base-table select.
func scan(b *engine.Builder, t *storage.Table, pred expr.Expr, cols ...string) *engine.Node {
	es, names := proj(t.Schema(), cols...)
	return b.ScanSelect(exec.SelectSpec{
		Name: "select(" + t.Name() + ")",
		Base: t,
		Pred: pred,
		Proj: es, ProjNames: names,
	})
}

// idx maps column names to positions in a node's schema.
func idx(n *engine.Node, names ...string) []int {
	out := make([]int, len(names))
	for i, name := range names {
		out[i] = n.Schema.MustColIndex(name)
	}
	return out
}

// revenue is the canonical l_extendedprice * (1 - l_discount).
func revenue(s *storage.Schema, price, disc string) expr.Expr {
	return expr.MulE(expr.C(s, price), expr.SubE(expr.Float(1), expr.C(s, disc)))
}
