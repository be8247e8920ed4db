package core

import "testing"

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
		{"negative explicit UoT clamps to 1", Edge{Kind: Pipelined, UoT: -3}, 3, 1},
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
	if e.Declared != 0 || e.UoT != 3 {
		t.Fatalf("edge UoT = %+v, want declared 0 resolved to 3", e)
	}
	if e.FromName != "producer" || e.ToName != "consumer" {
		t.Fatalf("edge names = %s->%s", e.FromName, e.ToName)
	}
}
