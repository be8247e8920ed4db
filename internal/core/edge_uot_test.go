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
	if e.Raises+e.Snaps != 0 {
		t.Fatalf("static run recorded decisions: %+v", e)
	}
}

// TestPressureLadderIsOnePolicy pins the memory-degradation ladder — double,
// then snap to UoTTable at the ceiling — and that an edge climbs it the same
// way whether its starting UoT is its own declaration or the run default:
// same trajectory, same trace marks, same robustness counters. Both go
// through Controller.Pressure; nothing else in the scheduler computes a UoT.
func TestPressureLadderIsOnePolicy(t *testing.T) {
	const start = uotctl.DefaultCeiling / 2
	for _, tc := range []struct {
		name                 string
		declared, runDefault int
	}{
		{"static", start, 1},      // the edge declares its start
		{"run-default", 0, start}, // the edge takes the run default
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Pool-backed producer under a 1-byte budget (see
			// TestSustainedMemoryPressureRaisesUoT): 40 producer work orders
			// are enough for several pressure raises. The edge starts one
			// doubling below the ceiling, so nothing is delivered before the
			// producer is done.
			e := &emitN{rows: 8}
			plan := &Plan{}
			eid := plan.AddOp(&multiEmit{op: e, n: 40})
			e.self = eid
			c := &slowSink{}
			cid := plan.AddOp(c)
			plan.Pipe(eid, cid, 0, tc.declared)
			ctx, tr := newTracedCtx(2, tc.name)
			ctx.MemoryBudget = 1
			if err := Run(plan, ctx, tc.runDefault); err != nil {
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
				}
			}
			if len(marks) != 2 || marks[0] != uotctl.DefaultCeiling || marks[1] != int64(UoTTable) {
				t.Fatalf("UoT marks = %v, want [ceiling, table]", marks)
			}
			want := stats.EdgeUoT{
				From: int(eid), To: int(cid), FromName: "multiEmit", ToName: "consumer",
				Declared: tc.declared, Start: start,
				Final: UoTTable, Raises: 1, Snaps: 1,
			}
			if got := ctx.Run.EdgeUoTs()[0]; got != want {
				t.Fatalf("edge snapshot = %+v, want %+v", got, want)
			}
		})
	}
}
