package core

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/uotctl"
)

// adaptCfg is a deterministic controller configuration for scheduler tests:
// the model prior is disabled so starting UoTs are exactly DefaultUoT.
func adaptCfg(workers, defaultUoT int) uotctl.Config {
	return uotctl.Config{
		Workers: workers, BlockBytes: 64, DefaultUoT: defaultUoT,
		DisablePrior: true,
	}
}

func TestResolveUoT(t *testing.T) {
	ad := uotctl.New(uotctl.Config{Workers: 4, BlockBytes: 128 << 10, DefaultUoT: 7, DisablePrior: true})
	cases := []struct {
		name string
		e    Edge
		def  int
		ad   *uotctl.Controller
		want int
	}{
		{"blocking edges carry no blocks", Edge{Kind: Blocking, UoT: 5}, 3, nil, 0},
		{"explicit UoT wins", Edge{Kind: Pipelined, UoT: 5}, 3, nil, 5},
		{"explicit UoT wins over controller", Edge{Kind: Pipelined, UoT: 5}, 3, ad, 5},
		{"explicit UoTTable passes through", Edge{Kind: Pipelined, UoT: UoTTable}, 3, ad, UoTTable},
		{"undeclared falls back to run default", Edge{Kind: Pipelined}, 3, nil, 3},
		{"non-positive default resolves to 1", Edge{Kind: Pipelined}, 0, nil, 1},
		{"undeclared uses controller prior", Edge{Kind: Pipelined}, 3, ad, 7},
	}
	for _, tc := range cases {
		if got := ResolveUoT(tc.e, tc.def, tc.ad); got != tc.want {
			t.Errorf("%s: ResolveUoT = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestStaticRunRecordsResolvedEdgeUoTs(t *testing.T) {
	// Satellite of the resolver hoist: even a fully static run must surface
	// the resolved starting UoT (run default applied) in the stats snapshot.
	p := &producer{nblocks: 6, rows: 2}
	c := &consumer{}
	ctx := newCtx(1)
	if err := Run(pipePlan(p, c, 0), ctx, 3); err != nil {
		t.Fatal(err)
	}
	edges := ctx.Run.EdgeUoTs()
	if len(edges) != 1 {
		t.Fatalf("edge snapshots = %d, want 1", len(edges))
	}
	e := edges[0]
	if e.Declared != 0 || e.Start != 3 || e.Final != 3 {
		t.Fatalf("edge UoT = %+v, want declared 0 resolved to start=final=3", e)
	}
	if e.FromName != "producer" || e.ToName != "consumer" {
		t.Fatalf("edge names = %s->%s", e.FromName, e.ToName)
	}
	if e.Raises+e.Lowers+e.Snaps != 0 {
		t.Fatalf("static run recorded decisions: %+v", e)
	}
}

func TestAdaptiveRunObservesAndRecordsTrajectory(t *testing.T) {
	p := &producer{nblocks: 32, rows: 2}
	c := &consumer{}
	ctx := newCtx(1)
	ctx.Adapt = uotctl.New(adaptCfg(1, 1))
	if err := Run(pipePlan(p, c, 0), ctx, 4); err != nil {
		t.Fatal(err)
	}
	if got := c.rows; got != 64 {
		t.Fatalf("consumer rows = %d, want 64", got)
	}
	edges := ctx.Run.EdgeUoTs()
	if len(edges) != 1 {
		t.Fatalf("edge snapshots = %d, want 1", len(edges))
	}
	e := edges[0]
	// The undeclared edge starts at the controller's value (prior disabled →
	// DefaultUoT=1), not the run default of 4.
	if e.Start != 1 {
		t.Fatalf("start UoT = %d, want controller seed 1", e.Start)
	}
	if e.Raises+e.Lowers+e.Holds+e.Snaps == 0 {
		t.Fatal("adaptive run recorded no controller decisions")
	}
	// The per-edge counters and the controller's totals are two views of the
	// same decisions.
	tot := ctx.Adapt.Totals()
	if tot.Raises != e.Raises || tot.Lowers != e.Lowers || tot.Holds != e.Holds || tot.Snaps != e.Snaps {
		t.Fatalf("controller totals %+v != edge counters %+v", tot, e)
	}
}

func TestAdaptiveDeclaredEdgeKeepsExplicitUoT(t *testing.T) {
	// An explicit per-edge UoT is a user decision: the controller starts
	// from it instead of the model prior.
	p := &producer{nblocks: 8, rows: 2}
	c := &consumer{}
	ctx := newCtx(1)
	ctx.Adapt = uotctl.New(adaptCfg(1, 1))
	if err := Run(pipePlan(p, c, 2), ctx, 1); err != nil {
		t.Fatal(err)
	}
	if e := ctx.Run.EdgeUoTs()[0]; e.Declared != 2 || e.Start != 2 {
		t.Fatalf("edge UoT = %+v, want declared=start=2", e)
	}
}

func TestLegacyPressureSnapEmitsDistinctMarkAndCounter(t *testing.T) {
	// A static edge already at maxRaisedUoT degrades by snapping to
	// UoTTable; since the distinct-mark satellite that terminal step counts
	// as a snap (UoTSnaps, MarkUoTSnap), not as another doubling.
	e := &emitN{rows: 8}
	plan := &Plan{}
	eid := plan.AddOp(&multiEmit{op: e, n: 40})
	e.self = eid
	c := &slowSink{}
	cid := plan.AddOp(c)
	plan.Pipe(eid, cid, 0, uotctl.DefaultCeiling)
	ctx, tr := newTracedCtx(2, "snap")
	ctx.MemoryBudget = 1
	if err := Run(plan, ctx, 1); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	r := ctx.Run.Robust()
	if r.UoTSnaps == 0 {
		t.Fatal("pressure at maxRaisedUoT never snapped to table")
	}
	var snapMarks, raiseMarks int
	for _, ev := range tr.Events() {
		if ev.Kind != trace.KindMark {
			continue
		}
		switch ev.Mark {
		case trace.MarkUoTSnap:
			snapMarks++
			if ev.UoT != int64(UoTTable) {
				t.Fatalf("snap mark UoT = %d, want UoTTable", ev.UoT)
			}
		case trace.MarkUoTRaise:
			raiseMarks++
		}
	}
	if snapMarks == 0 {
		t.Fatal("no MarkUoTSnap trace mark emitted")
	}
	if raiseMarks != 0 {
		t.Fatalf("snap-only run emitted %d raise marks", raiseMarks)
	}
	if e := ctx.Run.EdgeUoTs()[0]; e.Snaps == 0 || e.Final != UoTTable {
		t.Fatalf("edge snapshot = %+v, want snapped to table", e)
	}
}

func TestAdaptivePressureRoutesThroughController(t *testing.T) {
	// The PR3 memory-pressure raise becomes one controller policy input: the
	// same sustained-pressure scenario as the legacy test must still raise,
	// now via Controller.Pressure, and still count as a UoTRaise.
	e := &emitN{rows: 8}
	plan := &Plan{}
	eid := plan.AddOp(&multiEmit{op: e, n: 40})
	e.self = eid
	c := &slowSink{}
	cid := plan.AddOp(c)
	plan.Pipe(eid, cid, 0, 0)
	ctx := newCtx(2)
	ctx.MemoryBudget = 1
	ctx.Adapt = uotctl.New(adaptCfg(2, 1))
	if err := Run(plan, ctx, 1); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := c.rows; got != 40*8 {
		t.Fatalf("sink rows = %d, want %d", got, 40*8)
	}
	r := ctx.Run.Robust()
	if r.UoTRaises == 0 {
		t.Fatal("sustained memory pressure never raised the UoT through the controller")
	}
	es := ctx.Run.EdgeUoTs()[0]
	if es.Raises == 0 {
		t.Fatalf("edge snapshot recorded no raises: %+v", es)
	}
	if r.LeakedBlocks != 0 || r.OutstandingRefs != 0 {
		t.Fatalf("run leaked blocks: %+v", r)
	}
}
