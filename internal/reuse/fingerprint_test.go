// Fingerprint contract tests: a subplan fingerprint must be invariant to
// every execution knob that cannot change the result (UoT, per-edge UoT
// overrides, DOP caps, kernel-path toggles) and sensitive to everything
// semantic (predicate constants, aggregate functions, limits, join types,
// base-table identity and data version). This lives in package reuse_test
// because the plans are built through internal/engine, which imports
// internal/reuse.
package reuse_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/reuse"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/types"
)

func testTable(name string) *storage.Table {
	const format, blockBytes = storage.ColumnStore, 4 << 10
	db := engine.NewDB(blockBytes, format)
	tab := db.CreateTable(name, storage.NewSchema(
		storage.Column{Name: "a", Type: types.Int64},
		storage.Column{Name: "b", Type: types.Int64},
	))
	blk := storage.NewBlock(tab.Schema(), format, blockBytes)
	for i := 0; i < 100; i++ {
		blk.AppendRow(types.NewInt64(int64(i%7)), types.NewInt64(int64(i)))
	}
	tab.Append(blk)
	return tab
}

// planSpec parameterizes the small agg plan every sensitivity case perturbs
// one field of.
type planSpec struct {
	predConst int64
	agg       exec.AggFunc
	limit     int
	edgeUoT   int // must NOT change the fingerprint
}

func buildPlan(tab *storage.Table, s planSpec) *engine.Builder {
	b := engine.NewBuilder()
	sch := tab.Schema()
	scan := b.ScanSelect(exec.SelectSpec{
		Name: "scan", Base: tab,
		Pred:      expr.Lt(expr.C(sch, "b"), expr.Int(s.predConst)),
		Proj:      []expr.Expr{expr.C(sch, "a"), expr.C(sch, "b")},
		ProjNames: []string{"a", "b"},
	})
	agg := b.Agg(scan, exec.AggOpSpec{
		Name:         "agg",
		GroupBy:      []expr.Expr{expr.C(scan.Schema, "a")},
		GroupByNames: []string{"a"},
		Aggs:         []exec.AggSpec{{Func: s.agg, Arg: expr.C(scan.Schema, "b"), Name: "v"}},
	})
	srt := b.Sort(agg, exec.SortSpec{
		Name:        "sort",
		InputSchema: agg.Schema,
		Terms:       []exec.SortTerm{{Key: expr.C(agg.Schema, "a")}},
		Limit:       s.limit,
	})
	if s.edgeUoT != 0 {
		b.SetEdgeUoT(scan, agg, s.edgeUoT)
	}
	b.Collect(srt)
	return b
}

func rootFP(t *testing.T, b *engine.Builder) reuse.Fingerprint {
	t.Helper()
	fp, ok := reuse.RootFingerprint(b.Plan())
	if !ok {
		t.Fatal("plan is not fingerprintable")
	}
	return fp
}

func TestFingerprintInvariantToExecutionKnobs(t *testing.T) {
	tab := testTable("t")
	base := planSpec{predConst: 50, agg: exec.Sum}
	ref := rootFP(t, buildPlan(tab, base))

	cases := map[string]planSpec{
		"rebuild":        base,
		"edge-uot-64":    {predConst: 50, agg: exec.Sum, edgeUoT: 64},
		"edge-uot-table": {predConst: 50, agg: exec.Sum, edgeUoT: core.UoTTable},
	}
	for name, s := range cases {
		if got := rootFP(t, buildPlan(tab, s)); got != ref {
			t.Errorf("%s: fingerprint changed: %s vs %s", name, got, ref)
		}
	}
}

func TestFingerprintSensitiveToSemantics(t *testing.T) {
	tab := testTable("t")
	base := planSpec{predConst: 50, agg: exec.Sum}
	ref := rootFP(t, buildPlan(tab, base))

	cases := map[string]planSpec{
		"pred-const": {predConst: 51, agg: exec.Sum},
		"agg-func":   {predConst: 50, agg: exec.Max},
		"limit":      {predConst: 50, agg: exec.Sum, limit: 3},
	}
	for name, s := range cases {
		if got := rootFP(t, buildPlan(tab, s)); got == ref {
			t.Errorf("%s: fingerprint did not change", name)
		}
	}

	// A different table with the identical schema and contents is a
	// different fingerprint: identity, not shape.
	other := testTable("t")
	if got := rootFP(t, buildPlan(other, base)); got == ref {
		t.Error("table identity: fingerprint did not change")
	}

	// A data-version bump on the same table changes the fingerprint (and
	// thereby invalidates, lazily, everything cached against the old one).
	tab.BumpVersion()
	if got := rootFP(t, buildPlan(tab, base)); got == ref {
		t.Error("version bump: fingerprint did not change")
	}
}

func TestFingerprintJoinTypeSensitive(t *testing.T) {
	tab := testTable("t")
	build := func(jt exec.JoinType) *engine.Builder {
		b := engine.NewBuilder()
		sch := tab.Schema()
		proj := exec.SelectSpec{
			Name: "scan", Base: tab,
			Proj:      []expr.Expr{expr.C(sch, "a"), expr.C(sch, "b")},
			ProjNames: []string{"a", "b"},
		}
		bs := b.ScanSelect(proj)
		bl, _ := b.Build(bs, exec.BuildSpec{Name: "build", KeyCols: []int{0}, Payload: []int{1}})
		ps := b.ScanSelect(exec.SelectSpec{
			Name: "scan2", Base: tab,
			Proj:      []expr.Expr{expr.C(sch, "a")},
			ProjNames: []string{"a"},
		})
		pr := b.Probe(ps, bl, exec.ProbeSpec{
			Name: "probe", KeyCols: []int{0}, JoinType: jt, ProbeProj: []int{0},
		})
		b.Collect(pr)
		return b
	}
	if rootFP(t, build(exec.LeftSemi)) == rootFP(t, build(exec.LeftAnti)) {
		t.Error("join type: fingerprint did not change")
	}
}

// TestFingerprintTPCHDistinct fingerprints every TPC-H plan and requires
// all fourteen to be distinct and stable across rebuilds — the end-to-end
// determinism the cross-query cache keys on.
func TestFingerprintTPCHDistinct(t *testing.T) {
	d := tpch.Load(0.01, 128<<10, storage.ColumnStore)
	seen := map[reuse.Fingerprint]int{}
	for _, q := range tpch.Numbers() {
		b, err := tpch.Build(d, q, tpch.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := reuse.RootFingerprint(b.Plan())
		if !ok {
			t.Fatalf("Q%02d: plan is not fingerprintable", q)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("Q%02d collides with Q%02d", q, prev)
		}
		seen[fp] = q
		b2, _ := tpch.Build(d, q, tpch.QueryOpts{})
		if fp2, _ := reuse.RootFingerprint(b2.Plan()); fp2 != fp {
			t.Errorf("Q%02d: rebuild changed the fingerprint", q)
		}
	}
}

func TestSpliceableEscapeCheck(t *testing.T) {
	tab := testTable("t")
	b := engine.NewBuilder()
	sch := tab.Schema()
	scan := b.ScanSelect(exec.SelectSpec{
		Name: "scan", Base: tab,
		Proj:      []expr.Expr{expr.C(sch, "a"), expr.C(sch, "b")},
		ProjNames: []string{"a", "b"},
	})
	// The scan fans out to two consumers: replacing either agg's subtree
	// would prune the shared scan and starve the sibling.
	agg1 := b.Agg(scan, exec.AggOpSpec{
		Name: "agg1", GroupBy: []expr.Expr{expr.C(scan.Schema, "a")}, GroupByNames: []string{"a"},
		Aggs: []exec.AggSpec{{Func: exec.Sum, Arg: expr.C(scan.Schema, "b"), Name: "v"}},
	})
	agg2 := b.Agg(scan, exec.AggOpSpec{
		Name: "agg2", GroupBy: []expr.Expr{expr.C(scan.Schema, "a")}, GroupByNames: []string{"a"},
		Aggs: []exec.AggSpec{{Func: exec.Count, Arg: nil, Name: "n"}},
	})
	bld, _ := b.Build(agg2, exec.BuildSpec{Name: "build", KeyCols: []int{0}, Payload: []int{1}})
	join := b.Probe(agg1, bld, exec.ProbeSpec{
		Name: "join", KeyCols: []int{0}, ProbeProj: []int{0, 1}, BuildProj: []int{0},
	})
	b.Collect(join)

	a := reuse.Analyze(b.Plan())
	if !a.RootOK {
		t.Fatal("root not fingerprintable")
	}
	if !a.Spliceable(a.Root) {
		t.Error("root must always be spliceable")
	}
	if a.Spliceable(agg1.ID) {
		t.Error("agg over a shared scan must not be spliceable")
	}
	if a.Spliceable(agg2.ID) {
		t.Error("agg feeding both a sibling and a build must not be spliceable")
	}
}
