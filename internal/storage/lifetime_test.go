package storage

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/types"
)

// inState returns a block in state s, driven there by the pool's own moves
// from a checkout of p (NewBlock for unowned), or with dense from a dense
// view of one row of a table's block. A kept block's bytes move to g.
func inState(p *Pool, g *stats.MemGauge, s blockState, dense bool) *Block {
	schema := NewSchema(Column{Name: "k", Type: types.Int64})
	base := NewBlock(schema, RowStore, 1<<10)
	base.AppendRow(types.NewInt64(1))
	if s == unowned {
		return base
	}
	var b *Block
	if dense {
		b = p.CheckOutView(0, schema, []int{0}, true, RowStore, 1<<10)
		b.AppendDense(base, 0)
	} else {
		b = p.CheckOut(0, schema, RowStore, 1<<10)
		b.AppendRow(types.NewInt64(1))
	}
	switch s {
	case released:
		p.Release(b)
	case parked, delivered, kept, handedOut:
		p.Park(b, 1)
		if s != parked {
			p.Pin(b)
		}
		if s == kept {
			p.Keep(b, g)
		}
		if s == handedOut {
			p.HandOut(b)
		}
	}
	return b
}

// TestBlockLifetimeMoves makes every Pool lifetime move on a block in every
// state. A move from a state the table allows succeeds and leaves the block
// where the table says; every other one panics naming the block's state —
// among them a double Release, a Release of a NewBlock block, a Materialize
// or Cut after Park, a Keep of a parked block and a Park of a delivered one.
// Either way the block is then released by the move its state allows, and
// neither the pool's gauge nor the one Keep moved bytes to counts a byte.
// A dense view makes every move too, and until a Materialize neither gauge
// counts a byte of it.
func TestBlockLifetimeMoves(t *testing.T) {
	moves := []struct {
		name string
		from []blockState
		to   blockState
		do   func(p *Pool, g *stats.MemGauge, b *Block)
	}{
		{"CheckIn", []blockState{filling}, filling, func(p *Pool, _ *stats.MemGauge, b *Block) {
			p.CheckIn(0, b)
			p.TakePartials(0)
		}},
		{"Materialize", []blockState{filling}, filling, func(p *Pool, _ *stats.MemGauge, b *Block) { p.Materialize(b, 1<<10) }},
		{"Cut", []blockState{filling}, filling, func(p *Pool, _ *stats.MemGauge, b *Block) { p.Cut(b) }},
		{"Park", []blockState{filling}, parked, func(p *Pool, _ *stats.MemGauge, b *Block) { p.Park(b, 1) }},
		{"Pin", []blockState{parked, delivered}, delivered, func(p *Pool, _ *stats.MemGauge, b *Block) { p.Pin(b) }},
		{"Keep", []blockState{delivered}, kept, func(p *Pool, g *stats.MemGauge, b *Block) { p.Keep(b, g) }},
		{"HandOut", []blockState{delivered}, handedOut, func(p *Pool, _ *stats.MemGauge, b *Block) { p.HandOut(b) }},
		{"Drop", []blockState{parked, delivered, kept}, released, func(p *Pool, _ *stats.MemGauge, b *Block) { p.Drop(b) }},
		{"Release", []blockState{filling, handedOut}, released, func(p *Pool, _ *stats.MemGauge, b *Block) { p.Release(b) }},
	}
	for _, m := range moves {
		for s := unowned; s <= released; s++ {
			for _, dense := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s", m.name, s)
				if dense {
					name += "/dense"
				}
				t.Run(name, func(t *testing.T) { testLifetimeMove(t, m.from, m.to, m.do, s, dense) })
			}
		}
	}
}

// testLifetimeMove makes one move, do, allowed from the states from and
// leaving the block in state to, on a block (dense: a dense view) in state s.
func testLifetimeMove(t *testing.T, from []blockState, to blockState, do func(p *Pool, g *stats.MemGauge, b *Block), s blockState, dense bool) {
	var live, keptIn stats.MemGauge
	p := NewPool(&live, nil)
	b := inState(p, &keptIn, s, dense)
	panicked := func() (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		do(p, &keptIn, b)
		return ""
	}()
	allowed := slices.Contains(from, s)
	switch {
	case allowed && panicked != "":
		t.Fatalf("allowed move panicked: %s", panicked)
	case allowed && b.state != to:
		t.Fatalf("move left the block %s, want %s", b.state, to)
	case !allowed && !strings.Contains(panicked, "of a "+s.String()+" block"):
		t.Fatalf("illegal move did not panic with the block's state: %q", panicked)
	case dense && b.IsView() && (b.AllocBytes() != 0 || live.Live() != 0 || keptIn.Live() != 0):
		t.Fatalf("a dense view holds %d B: pool gauge %d, kept gauge %d", b.AllocBytes(), live.Live(), keptIn.Live())
	}
	switch b.state {
	case filling, handedOut:
		p.Release(b)
	case parked, delivered, kept:
		p.Drop(b)
	}
	if live.Live() != 0 || keptIn.Live() != 0 {
		t.Fatalf("after release: pool gauge %d, kept gauge %d", live.Live(), keptIn.Live())
	}
}

// TestBlockDroppedByEveryReader: a block parked for two readers and
// delivered to both is released only by the second Drop.
func TestBlockDroppedByEveryReader(t *testing.T) {
	var live stats.MemGauge
	p := NewPool(&live, nil)
	b := inState(p, nil, filling, false)
	p.Park(b, 2)
	for i := 0; i < 2; i++ {
		if _, err := p.Pin(b); err != nil {
			t.Fatal(err)
		}
	}
	if p.Drop(b) || b.state != delivered || live.Live() == 0 {
		t.Fatalf("first of two Drops released the block: state %s, live %d", b.state, live.Live())
	}
	if !p.Drop(b) || b.state != released || live.Live() != 0 {
		t.Fatalf("last Drop did not release the block: state %s, live %d", b.state, live.Live())
	}
}
