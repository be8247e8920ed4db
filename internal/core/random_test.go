package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// passthrough consumes blocks and re-emits one block per input block with
// the same rows, counting everything it sees.
type passthrough struct {
	Base
	name   string
	rowsIn atomic.Int64
}

func (p *passthrough) Name() string { return p.name }

func (p *passthrough) Feed(_ *ExecCtx, _ int, blocks []*storage.Block) []WorkOrder {
	wos := make([]WorkOrder, len(blocks))
	for i, b := range blocks {
		wos[i] = &passWO{p: p, b: b}
	}
	return wos
}

type passWO struct {
	p *passthrough
	b *storage.Block
}

func (w *passWO) Inputs() []*storage.Block { return []*storage.Block{w.b} }

func (w *passWO) Run(ctx *ExecCtx, out *Output) error {
	n := w.b.NumRows()
	w.p.rowsIn.Add(int64(n))
	nb := checkOut(ctx, n+1)
	for r := 0; r < n; r++ {
		nb.AppendRow(types.NewInt64(w.b.Int64At(0, r)))
	}
	out.Blocks = append(out.Blocks, nb)
	out.RowsIn = int64(n)
	return nil
}

// sink counts rows without re-emitting.
type sink struct {
	Base
	name string
	rows atomic.Int64
}

func (s *sink) Name() string { return s.name }

func (s *sink) Feed(_ *ExecCtx, _ int, blocks []*storage.Block) []WorkOrder {
	wos := make([]WorkOrder, len(blocks))
	for i, b := range blocks {
		wos[i] = &sinkWO{s: s, b: b}
	}
	return wos
}

type sinkWO struct {
	s *sink
	b *storage.Block
}

func (w *sinkWO) Inputs() []*storage.Block { return []*storage.Block{w.b} }
func (w *sinkWO) Run(_ *ExecCtx, out *Output) error {
	w.s.rows.Add(int64(w.b.NumRows()))
	out.RowsIn = int64(w.b.NumRows())
	return nil
}

// TestRandomDAGsConserveRows builds random layered DAGs — random producer
// sizes, random UoT per edge, random fan-out, random extra blocking edges,
// random worker counts — and checks the delivery invariants: every consumer
// sees exactly the rows its producer emitted, regardless of schedule.
func TestRandomDAGsConserveRows(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			plan := &Plan{}

			// Layer 0: 1-3 producers.
			nProd := rng.Intn(3) + 1
			prodRows := make([]int64, nProd)
			var layer []OpID // previous layer's op IDs
			rowsOut := map[OpID]int64{}
			for i := 0; i < nProd; i++ {
				blocks := rng.Intn(12) + 1
				rows := rng.Intn(5) + 1
				p := &producer{nblocks: blocks, rows: rows}
				id := plan.AddOp(p)
				layer = append(layer, id)
				prodRows[i] = int64(blocks * rows)
				rowsOut[id] = prodRows[i]
			}

			// 1-3 middle layers of passthroughs, each wired to a random
			// op of the previous layer with a random UoT.
			passes := map[OpID]*passthrough{}
			wantIn := map[OpID]int64{}
			for l := 0; l < rng.Intn(3)+1; l++ {
				var next []OpID
				for i := 0; i < rng.Intn(3)+1; i++ {
					src := layer[rng.Intn(len(layer))]
					p := &passthrough{name: fmt.Sprintf("pass_%d_%d", l, i)}
					id := plan.AddOp(p)
					uot := []int{0, 1, 2, 3, UoTTable}[rng.Intn(5)]
					plan.Pipe(src, id, 0, uot)
					passes[id] = p
					wantIn[id] = rowsOut[src]
					rowsOut[id] = rowsOut[src]
					next = append(next, id)
				}
				layer = next
			}

			// Every dangling op feeds one final sink (one input per edge),
			// so everything is consumed.
			hasOut := map[OpID]bool{}
			for _, es := range plan.Edges {
				if es.Kind == Pipelined {
					hasOut[es.From] = true
				}
			}
			nOps := len(plan.Ops)
			snk := &sink{name: "sink"}
			sinkID := plan.AddOp(snk)
			var sinkWant int64
			input := 0
			for id := OpID(0); int(id) < nOps; id++ {
				if hasOut[id] {
					continue
				}
				plan.Pipe(id, sinkID, input, []int{0, 1, 5, UoTTable}[rng.Intn(4)])
				input++
				sinkWant += rowsOut[id]
			}

			// Random blocking edges from earlier to later ops (keeps the
			// graph acyclic).
			for i := 0; i < rng.Intn(3); i++ {
				a := OpID(rng.Intn(nOps))
				b := OpID(rng.Intn(nOps))
				if a < b {
					plan.Block(a, b)
				}
			}

			ctx := newCtx(rng.Intn(8) + 1)
			if err := Run(plan, ctx, rng.Intn(4)+1); err != nil {
				t.Fatalf("run failed: %v", err)
			}
			for id, p := range passes {
				if got := p.rowsIn.Load(); got != wantIn[id] {
					t.Errorf("%s received %d rows, want %d", p.name, got, wantIn[id])
				}
			}
			if sinkID >= 0 {
				if got := snk.rows.Load(); got != sinkWant {
					t.Errorf("sink received %d rows, want %d", got, sinkWant)
				}
			}
		})
	}
}
