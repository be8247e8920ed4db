package core

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/uotctl"
)

func TestResolveUoT(t *testing.T) {
	cases := []struct {
		name  string
		e     Edge
		start int
		want  int
	}{
		{"blocking edges carry no blocks", Edge{Kind: Blocking, UoT: 5}, 3, 0},
		{"explicit UoT wins", Edge{Kind: Pipelined, UoT: 5}, 3, 5},
		{"explicit UoTTable passes through", Edge{Kind: Pipelined, UoT: UoTTable}, 3, UoTTable},
		{"undeclared falls back to the run's starting UoT", Edge{Kind: Pipelined}, 3, 3},
		{"non-positive start resolves to 1", Edge{Kind: Pipelined}, 0, 1},
	}
	for _, tc := range cases {
		if got := ResolveUoT(tc.e, tc.start); got != tc.want {
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
	s := newSched(pipePlan(p, c, 0), ctx, 3)
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	// An untraced static run owns a controller nobody observes, so it never
	// reads a clock: the timestamp-free path the benchmark's tpch_* workloads
	// run on.
	if s.clock != nil {
		t.Fatal("untraced static run set up a delivery clock")
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
	if e.Raises+e.Lowers+e.Holds+e.Snaps != 0 {
		t.Fatalf("static run recorded decisions: %+v", e)
	}
}

func TestAdaptiveRunObservesAndRecordsTrajectory(t *testing.T) {
	p := &producer{nblocks: 32, rows: 2}
	c := &consumer{}
	ctx := newCtx(1)
	ctx.UoTCtl = uotctl.New(uotctl.Config{Workers: 1, BlockBytes: 128 << 10})
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
	// The undeclared edge starts at the controller's model prior (2 blocks
	// at one worker × 128 KB), not the run default of 4.
	if prior := ctx.UoTCtl.Prior(); prior != 2 || e.Start != prior {
		t.Fatalf("start UoT = %d, prior %d, want both 2", e.Start, prior)
	}
	if e.Raises+e.Lowers+e.Holds+e.Snaps == 0 {
		t.Fatal("adaptive run recorded no controller decisions")
	}
	// The snapshot is the controller's own record of the edge.
	start, d := ctx.UoTCtl.Edge(0)
	if start != e.Start || ctx.UoTCtl.UoT(0) != e.Final ||
		d.Raises != e.Raises || d.Lowers != e.Lowers || d.Holds != e.Holds || d.Snaps != e.Snaps {
		t.Fatalf("controller edge (start %d, %+v) != snapshot %+v", start, d, e)
	}
}

func TestAdaptiveDeclaredEdgeKeepsExplicitUoT(t *testing.T) {
	// An explicit per-edge UoT is a user decision: the controller starts
	// from it instead of the model prior.
	p := &producer{nblocks: 8, rows: 2}
	c := &consumer{}
	ctx := newCtx(1)
	ctx.UoTCtl = uotctl.New(uotctl.Config{})
	if err := Run(pipePlan(p, c, 3), ctx, 1); err != nil {
		t.Fatal(err)
	}
	if e := ctx.Run.EdgeUoTs()[0]; e.Declared != 3 || e.Start != 3 {
		t.Fatalf("edge UoT = %+v, want declared=start=3", e)
	}
}

// TestPressureLadderIsOnePolicy pins the memory-degradation ladder — double,
// then snap to UoTTable at the ceiling — and that a static and an adaptive
// run climb it identically: same per-edge record, same trace marks, same
// robustness counters. Both go through Controller.Pressure; nothing else in
// the scheduler computes a UoT.
func TestPressureLadderIsOnePolicy(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctl  *uotctl.Controller
	}{
		{"static", nil},
		{"adaptive", uotctl.New(uotctl.Config{Workers: 2})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Pool-backed producer under a 1-byte budget (see
			// TestSustainedMemoryPressureRaisesUoT): 40 producer work orders
			// are enough for several pressure raises. The edge starts one
			// doubling below the ceiling, so nothing is delivered (and no
			// adaptive observation happens) before the producer is done.
			e := &emitN{rows: 8}
			plan := &Plan{}
			eid := plan.AddOp(&multiEmit{op: e, n: 40})
			e.self = eid
			c := &slowSink{}
			cid := plan.AddOp(c)
			plan.Pipe(eid, cid, 0, uotctl.DefaultCeiling/2)
			ctx, tr := newTracedCtx(2, tc.name)
			ctx.MemoryBudget = 1
			ctx.UoTCtl = tc.ctl
			if err := Run(plan, ctx, 1); err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if got := c.rows; got != 40*8 {
				t.Fatalf("sink rows = %d, want %d", got, 40*8)
			}
			r := ctx.Run.Robust()
			if r.UoTRaises != 1 || r.UoTSnaps != 1 {
				t.Fatalf("UoTRaises/UoTSnaps = %d/%d, want one doubling then one snap", r.UoTRaises, r.UoTSnaps)
			}
			if r.LeakedBlocks != 0 || r.OutstandingRefs != 0 {
				t.Fatalf("run leaked blocks: %+v", r)
			}
			var marks []int64
			for _, ev := range tr.Events() {
				if ev.Kind != trace.KindMark {
					continue
				}
				switch ev.Mark {
				case trace.MarkUoTRaise, trace.MarkUoTSnap:
					if (ev.Mark == trace.MarkUoTSnap) != (ev.UoT == int64(UoTTable)) {
						t.Fatalf("mark %v carries UoT %d", ev.Mark, ev.UoT)
					}
					marks = append(marks, ev.UoT)
				case trace.MarkUoTLower:
					t.Fatalf("pressure ladder lowered to %d", ev.UoT)
				}
			}
			if len(marks) != 2 || marks[0] != uotctl.DefaultCeiling || marks[1] != int64(UoTTable) {
				t.Fatalf("UoT marks = %v, want [ceiling, table]", marks)
			}
			want := stats.EdgeUoT{
				From: int(eid), To: int(cid), FromName: "multiEmit", ToName: "consumer",
				Declared: uotctl.DefaultCeiling / 2, Start: uotctl.DefaultCeiling / 2,
				Final: UoTTable, Raises: 1, Snaps: 1,
			}
			if got := ctx.Run.EdgeUoTs()[0]; got != want {
				t.Fatalf("edge snapshot = %+v, want %+v", got, want)
			}
		})
	}
}
