package stats

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentSnapshotNoTornReads is the torn-read audit for the stats
// package: it hammers every writer entry point from worker goroutines while a
// reader goroutine continuously takes the same snapshots a mid-run metrics
// export would (Orders, PerOp, Robust, Checkouts, WallTime, gauge reads).
// The test asserts exact final totals; under -race it additionally proves
// that no snapshot path reads a counter without synchronization — the class
// of bug that motivated making poolCheckouts private.
func TestConcurrentSnapshotNoTornReads(t *testing.T) {
	const (
		writers       = 8
		opsPerWriter  = 500
		bytesPerOrder = 64
	)
	r := NewRun()

	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Every read-side accessor a concurrent metrics snapshot uses.
			_ = r.Orders()
			for _, o := range r.PerOp() {
				if o.Rows < 0 || o.Count < 0 {
					t.Error("impossible per-op totals")
					return
				}
			}
			rb := r.Robust()
			if rb.Retries < 0 || rb.FailedAttempts < 0 {
				t.Error("negative robustness counter")
				return
			}
			if r.Checkouts() < 0 || r.WallTime() < 0 {
				t.Error("negative checkout count or wall time")
				return
			}
			if r.HashTables.Live() > r.HashTables.High() {
				t.Error("gauge live exceeded high-water mark")
				return
			}
			_ = r.TotalSim()
			_ = r.Kernels()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			now := time.Now()
			for i := 0; i < opsPerWriter; i++ {
				r.Record(WorkOrder{
					OpID: w % 3, OpName: "op", Worker: w,
					Start: now, End: now.Add(time.Microsecond),
					Rows: 10, RowsOut: 5, Sim: 7,
					Kernel: Kernel{ScratchHits: int64(i % 2)},
				})
				r.AddCheckout()
				r.AddRetry()
				r.AddFailedAttempt()
				r.AddCancellations(1)
				r.AddFaults(1)
				r.HashTables.Add(bytesPerOrder)
				r.Intermediates.Add(bytesPerOrder)
				r.HashTables.Sub(bytesPerOrder)
				r.Intermediates.Sub(bytesPerOrder)
			}
		}()
	}
	wg.Wait()
	r.SetLeaks(0, 0)
	r.Finish()
	close(stop)
	readerDone.Wait()

	const total = writers * opsPerWriter
	if n := len(r.Orders()); n != total {
		t.Fatalf("recorded %d orders, want %d", n, total)
	}
	var rows, rowsOut, sim int64
	for _, o := range r.PerOp() {
		rows += o.Rows
		rowsOut += o.RowsOut
		sim += o.SimTotal
	}
	if rows != total*10 || rowsOut != total*5 || sim != total*7 {
		t.Fatalf("totals rows=%d rowsOut=%d sim=%d, want %d/%d/%d",
			rows, rowsOut, sim, total*10, total*5, total*7)
	}
	if got := r.Checkouts(); got != total {
		t.Fatalf("checkouts = %d, want %d", got, total)
	}
	rb := r.Robust()
	if rb.Retries != total || rb.FailedAttempts != total ||
		rb.Cancellations != total || rb.FaultsInjected != total {
		t.Fatalf("robustness counters = %+v, want all %d", rb, total)
	}
	if got := r.Kernels().ScratchHits; got != total/2 {
		t.Fatalf("summed kernel counter = %d, want %d", got, total/2)
	}
	if r.HashTables.Live() != 0 || r.HashTables.High() < bytesPerOrder {
		t.Fatalf("hash-table gauge live=%d high=%d", r.HashTables.Live(), r.HashTables.High())
	}
	if r.WallTime() <= 0 {
		t.Fatal("non-positive wall time after Finish")
	}
}
