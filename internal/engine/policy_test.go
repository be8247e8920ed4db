package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
)

// wideFixture builds a table whose select output is large relative to the
// memory budget under test.
func wideFixture(t *testing.T) *storage.Table {
	t.Helper()
	db := NewDB(4<<10, storage.ColumnStore)
	tbl := db.CreateTable("wide", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "pad", Type: types.Char, Width: 56},
	))
	l := storage.NewLoader(tbl)
	for i := 0; i < 20000; i++ {
		l.Append(types.NewInt64(int64(i)), types.NewString("xxxxxxxx"))
	}
	l.Close()
	return tbl
}

func passthroughPlan(tbl *storage.Table) *Builder {
	b := NewBuilder()
	s := tbl.Schema()
	sel := b.ScanSelect(exec.SelectSpec{
		Name: "scan", Base: tbl,
		Proj: []expr.Expr{expr.C(s, "k"), expr.C(s, "pad")}, ProjNames: []string{"k", "pad"},
	})
	agg := b.Agg(sel, exec.AggOpSpec{
		Name: "count",
		Aggs: []exec.AggSpec{{Func: exec.Count, Name: "n"}},
	})
	b.Collect(agg)
	return b
}

// TestMemoryBudgetPolicy: the Section III-C scheduler policy — holding
// block-producing work orders while over budget — must cut the peak
// temporary-block footprint without changing the result.
func TestMemoryBudgetPolicy(t *testing.T) {
	tbl := wideFixture(t)

	run := func(budget int64) (*Result, int64) {
		res, err := Execute(passthroughPlan(tbl), Options{
			Workers: 8, UoTBlocks: 4, TempBlockBytes: 4 << 10, MemoryBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Run.Intermediates.High()
	}

	resFree, peakFree := run(0)
	resCapped, peakCapped := run(64 << 10)

	// Results identical.
	a, b := Rows(resFree.Table), Rows(resCapped.Table)
	if len(a) != 1 || len(b) != 1 || a[0][0].I != b[0][0].I || a[0][0].I != 20000 {
		t.Fatalf("results differ under budget: %v vs %v", a, b)
	}
	t.Logf("peak temp: unbounded=%d capped=%d", peakFree, peakCapped)
	// Only compare peaks when the unbounded run actually exceeded the
	// budget: on low-core hosts the unbounded schedule may never pile up
	// enough in-flight blocks to cross 64KiB, in which case the policy is
	// inactive and the two peaks are independent scheduling noise.
	if peakFree > 64<<10 && peakCapped > peakFree {
		t.Fatalf("budgeted run used more temp memory (%d) than unbounded (%d)", peakCapped, peakFree)
	}
	// The soft cap can overshoot by in-flight work orders' blocks, but it
	// must stay within a small multiple of the budget.
	if peakCapped > 4*(64<<10) {
		t.Fatalf("peak %d far exceeds the 64KiB budget", peakCapped)
	}
}

func TestMemoryBudgetDoesNotDeadlockWithBlockedConsumers(t *testing.T) {
	// A build→probe plan where the probe is gated: the budget policy must
	// still let the producer run once nothing is in flight.
	tbl := wideFixture(t)
	b := NewBuilder()
	s := tbl.Schema()
	selBuild := b.ScanSelect(exec.SelectSpec{
		Name: "scan_build", Base: tbl,
		Proj: []expr.Expr{expr.C(s, "k")}, ProjNames: []string{"k"},
	})
	bld, _ := b.Build(selBuild, exec.BuildSpec{
		Name: "build", KeyCols: []int{0}, ExpectedRows: 20000,
	})
	selProbe := b.ScanSelect(exec.SelectSpec{
		Name: "scan_probe", Base: tbl,
		Proj: []expr.Expr{expr.C(s, "k")}, ProjNames: []string{"k"},
	})
	probe := b.Probe(selProbe, bld, exec.ProbeSpec{
		Name: "probe", KeyCols: []int{0}, JoinType: exec.LeftSemi, ProbeProj: []int{0},
	})
	agg := b.Agg(probe, exec.AggOpSpec{
		Name: "count", Aggs: []exec.AggSpec{{Func: exec.Count, Name: "n"}},
	})
	b.Collect(agg)

	res, err := Execute(b, Options{
		Workers: 4, UoTBlocks: 1, TempBlockBytes: 4 << 10, MemoryBudget: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows := Rows(res.Table); rows[0][0].I != 20000 {
		t.Fatalf("count = %v", rows[0][0])
	}
}

// TestNegativeEdgeUoTClampsToOne: a negative per-edge UoT runs as UoT 1 — same
// rows, and the run records the resolved UoT 1 beside the declared value.
func TestNegativeEdgeUoTClampsToOne(t *testing.T) {
	tbl := wideFixture(t)
	run := func(uot int) *Result {
		t.Helper()
		b := NewBuilder()
		sel := b.ScanSelect(exec.SelectSpec{
			Name: "scan", Base: tbl,
			Proj: []expr.Expr{expr.C(tbl.Schema(), "k")}, ProjNames: []string{"k"},
		})
		b.SetEdgeUoT(sel, b.Collect(sel), uot)
		res, err := Execute(b, Options{Workers: 1, UoTBlocks: 4, TempBlockBytes: 4 << 10})
		if err != nil {
			t.Fatalf("UoT %d: %v", uot, err)
		}
		return res
	}
	neg, one := run(-3), run(1)
	if !sameRows(Rows(one.Table), Rows(neg.Table)) {
		t.Fatal("UoT -3 rows differ from UoT 1")
	}
	edges := neg.Run.EdgeUoTs()
	if len(edges) != 1 || edges[0].Declared != -3 || edges[0].UoT != 1 {
		t.Fatalf("edge UoTs = %+v, want declared -3 resolved to 1", edges)
	}
}

func TestPerEdgeUoTOverride(t *testing.T) {
	tbl := wideFixture(t)
	b := NewBuilder()
	s := tbl.Schema()
	sel := b.ScanSelect(exec.SelectSpec{
		Name: "scan", Base: tbl,
		Proj: []expr.Expr{expr.C(s, "k")}, ProjNames: []string{"k"},
	})
	agg := b.Agg(sel, exec.AggOpSpec{
		Name: "count", Aggs: []exec.AggSpec{{Func: exec.Count, Name: "n"}},
	})
	b.Collect(agg)
	// Force the select→agg edge to whole-table transfer while the run
	// default stays 1.
	b.SetEdgeUoT(sel, agg, core.UoTTable)

	res, err := Execute(b, Options{Workers: 2, UoTBlocks: 1, TempBlockBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rows := Rows(res.Table); rows[0][0].I != 20000 {
		t.Fatalf("count = %v", rows[0][0])
	}
	// With UoT=table on that edge, no agg work order may start before the
	// select finishes.
	var lastSel, firstAgg int64
	for _, w := range res.Run.Orders() {
		switch w.OpName {
		case "scan":
			if e := w.End.UnixNano(); e > lastSel {
				lastSel = e
			}
		case "count":
			if st := w.Start.UnixNano(); firstAgg == 0 || st < firstAgg {
				firstAgg = st
			}
		}
	}
	if firstAgg < lastSel {
		t.Fatal("edge-level UoT override was not honored")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("SetEdgeUoT on a missing edge should panic")
		}
	}()
	b.SetEdgeUoT(agg, sel, 1)
}
