package stats

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMemGaugeHighWater(t *testing.T) {
	var g MemGauge
	g.Add(100)
	g.Add(50)
	g.Sub(120)
	if g.Live() != 30 {
		t.Fatalf("live = %d", g.Live())
	}
	if g.High() != 150 {
		t.Fatalf("high = %d", g.High())
	}
	g.Add(200)
	if g.High() != 230 {
		t.Fatalf("high after regrow = %d", g.High())
	}
	g.Reset()
	if g.Live() != 0 || g.High() != 0 {
		t.Fatal("reset failed")
	}
}

func TestMemGaugeConcurrent(t *testing.T) {
	var g MemGauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(10)
				g.Sub(10)
			}
		}()
	}
	wg.Wait()
	if g.Live() != 0 {
		t.Fatalf("live = %d", g.Live())
	}
	if g.High() < 10 {
		t.Fatalf("high = %d", g.High())
	}
}

// Property: high water is monotone and never below live.
func TestMemGaugeInvariantProperty(t *testing.T) {
	f := func(deltas []int16) bool {
		var g MemGauge
		var prevHigh int64
		for _, d := range deltas {
			if d >= 0 {
				g.Add(int64(d))
			} else {
				g.Sub(-int64(d)) // widen first: -d overflows int16 at -32768
			}
			h := g.High()
			if h < prevHigh || h < g.Live() {
				return false
			}
			prevHigh = h
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunAggregation(t *testing.T) {
	r := NewRun()
	t0 := time.Now()
	r.Record(WorkOrder{OpID: 1, OpName: "select", Start: t0, End: t0.Add(10 * time.Millisecond), Sim: 100, Rows: 5, RowsOut: 3})
	r.Record(WorkOrder{OpID: 1, OpName: "select", Start: t0, End: t0.Add(20 * time.Millisecond), Sim: 200, Rows: 7, RowsOut: 4})
	r.Record(WorkOrder{OpID: 2, OpName: "probe", Start: t0, End: t0.Add(5 * time.Millisecond), Sim: 50, Rows: 3})
	r.Finish()

	per := r.PerOp()
	if len(per) != 2 {
		t.Fatalf("ops = %d", len(per))
	}
	sel := per[0]
	if sel.OpID != 1 || sel.Count != 2 || sel.Rows != 12 || sel.RowsOut != 7 {
		t.Fatalf("select totals: %+v", sel)
	}
	if sel.WallTotal != 30*time.Millisecond {
		t.Fatalf("select wall: %v", sel.WallTotal)
	}
	if sel.SimTotal != 300 || sel.AvgSim() != 150 {
		t.Fatalf("select sim: %d avg %d", sel.SimTotal, sel.AvgSim())
	}
	if got := per[1]; got.OpID != 2 || got.Count != 1 {
		t.Fatalf("op 2 totals: %+v", got)
	}
	var sim int64
	for _, op := range r.PerOp() {
		sim += op.SimTotal
	}
	if sim != 350 {
		t.Fatalf("total sim = %d", sim)
	}
	if r.WallTime() <= 0 {
		t.Fatal("wall time should be positive")
	}
}

func TestRunConcurrentRecord(t *testing.T) {
	r := NewRun()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(WorkOrder{OpID: w % 3, OpName: "op", Rows: 1})
				r.AddCheckout()
			}
		}(w)
	}
	wg.Wait()
	if got := len(r.Orders()); got != 4000 {
		t.Fatalf("orders = %d", got)
	}
	if r.Checkouts() != 4000 {
		t.Fatalf("checkouts = %d", r.Checkouts())
	}
	var rows int64
	for _, op := range r.PerOp() {
		rows += op.Rows
	}
	if rows != 4000 {
		t.Fatalf("rows = %d", rows)
	}
}

func TestZeroCountAverages(t *testing.T) {
	var o OpTotals
	if o.AvgSim() != 0 {
		t.Fatal("zero-count average should be zero")
	}
}
