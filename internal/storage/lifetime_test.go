package storage

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/types"
)

// inState returns a block in state s, driven there by the pool's own moves
// from a checkout of p (NewBlock for unowned). A kept block's bytes move to
// g.
func inState(p *Pool, g *stats.MemGauge, s blockState) *Block {
	schema := NewSchema(Column{Name: "k", Type: types.Int64})
	if s == unowned {
		return NewBlock(schema, RowStore, 1<<10)
	}
	b := p.CheckOut(0, schema, RowStore, 1<<10)
	b.AppendRow(types.NewInt64(1))
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
			t.Run(fmt.Sprintf("%s/%s", m.name, s), func(t *testing.T) {
				var live, keptIn stats.MemGauge
				p := NewPool(&live, nil)
				b := inState(p, &keptIn, s)
				allowed := false
				for _, f := range m.from {
					allowed = allowed || f == s
				}
				panicked := func() (msg string) {
					defer func() {
						if r := recover(); r != nil {
							msg = fmt.Sprint(r)
						}
					}()
					m.do(p, &keptIn, b)
					return ""
				}()
				switch {
				case allowed && panicked != "":
					t.Fatalf("allowed move panicked: %s", panicked)
				case allowed && b.state != m.to:
					t.Fatalf("move left the block %s, want %s", b.state, m.to)
				case !allowed && !strings.Contains(panicked, "of a "+s.String()+" block"):
					t.Fatalf("illegal move did not panic with the block's state: %q", panicked)
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
			})
		}
	}
}

// TestBlockDroppedByEveryReader: a block parked for two readers and
// delivered to both is released only by the second Drop.
func TestBlockDroppedByEveryReader(t *testing.T) {
	var live stats.MemGauge
	p := NewPool(&live, nil)
	b := inState(p, nil, filling)
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
