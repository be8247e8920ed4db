package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
)

// wideFixture builds a 20 000-row table whose select output spans many 4 KB
// temp blocks.
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

// TestGatedProbeKeepsRowsAtWorkers4: a build→probe plan whose probe is gated
// behind the build runs to completion at Workers 4 and loses no row.
func TestGatedProbeKeepsRowsAtWorkers4(t *testing.T) {
	tbl := wideFixture(t)
	b := NewBuilder()
	s := tbl.Schema()
	selBuild := b.ScanSelect(exec.SelectSpec{
		Name: "scan_build", Base: tbl,
		Proj: []expr.Expr{expr.C(s, "k")}, ProjNames: []string{"k"},
	})
	bld, _ := b.Build(selBuild, exec.BuildSpec{
		Name: "build", KeyCols: []int{0},
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
		Workers: 4, UoTBlocks: 1, TempBlockBytes: 4 << 10,
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
