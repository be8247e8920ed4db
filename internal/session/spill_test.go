package session

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/storage"
)

// admitSpillAsync parks an admit call carrying a spillable share on a
// goroutine and reports its result.
func admitSpillAsync(a *admission, prio int, est, spill int64) chan error {
	c := make(chan error, 1)
	go func() { c <- a.admit(nil, prio, est, spill) }()
	return c
}

// TestAdmissionDiskBudgetSplit pins the two-budget arithmetic: the spillable
// share is charged against the disk budget, never the RAM budget, and a
// session without a spill tier (diskBudget 0) sheds any query that arrives
// with a nonzero spillable share.
func TestAdmissionDiskBudgetSplit(t *testing.T) {
	a := &admission{}
	a.init(100, 1000, 4, 4)
	// RAM share fits even though ram+spill would blow the RAM budget 5×.
	if err := a.admit(nil, 0, 80, 500); err != nil {
		t.Fatalf("split admission rejected: %v", err)
	}
	// Second query also fits both budgets (90 RAM reserved, 900 disk).
	if err := a.admit(nil, 0, 10, 400); err != nil {
		t.Fatalf("disk-fitting query rejected: %v", err)
	}
	// Third fits RAM but exceeds the remaining disk budget: it parks rather
	// than sheds, and is granted once disk reservations release.
	c := admitSpillAsync(a, 0, 5, 200)
	waitWaiting(t, a, 1)
	a.release(80, 500)
	if err := <-c; err != nil {
		t.Fatalf("parked waiter got %v after disk release", err)
	}
	a.release(10, 400)
	a.release(5, 200)

	// A spillable share can never be admitted without a disk budget.
	noDisk := &admission{}
	noDisk.init(100, 0, 4, 4)
	err := noDisk.admit(nil, 0, 10, 1)
	if !errors.Is(err, ErrAdmissionRejected) || !errors.Is(err, core.ErrMemoryBudget) {
		t.Fatalf("spillable share without disk budget: err = %v, want OverBudget rejection", err)
	}
}

// TestSpillAdmitsOverRAMQuery is the tentpole's admission contract: a query
// whose full estimate exceeds the RAM budget is shed by a RAM-only session,
// but admitted — and completes correctly — when a spill tier lets its deep
// edge backlogs live on disk.
func TestSpillAdmitsOverRAMQuery(t *testing.T) {
	fact, dim := serveFixture()
	goldenRes, err := engine.Execute(joinAggPlan(fact, dim), engine.Options{Workers: 1, UoTBlocks: 1})
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	golden := tableKey(goldenRes.Table)

	const blockBytes, uot = 4 << 10, 64
	ram, spillable := EstimateBuilderSplit(joinAggPlan(fact, dim), 1, uot, blockBytes)
	if spillable == 0 {
		t.Fatalf("uot=%d plan has no spillable share; split test is vacuous", uot)
	}
	// A budget the resident share fits but the undivided estimate does not.
	budget := ram + spillable/2

	ramOnly := Open(Config{Workers: 2, MemoryBudget: budget, BlockBytes: blockBytes, UoTBlocks: uot})
	_, err = ramOnly.Submit(Request{
		Build: func() *engine.Builder { return joinAggPlan(fact, dim) },
	})
	ramOnly.Close()
	if !errors.Is(err, ErrAdmissionRejected) || !errors.Is(err, core.ErrMemoryBudget) {
		t.Fatalf("RAM-only session: err = %v, want OverBudget shed", err)
	}

	spilly := Open(Config{
		Workers: 2, MemoryBudget: budget, BlockBytes: blockBytes, UoTBlocks: uot,
		SpillDir: t.TempDir(),
	})
	defer spilly.Close()
	resp, err := spilly.Submit(Request{
		Build: func() *engine.Builder { return joinAggPlan(fact, dim) },
	})
	if err != nil {
		t.Fatalf("spill session shed the query the disk budget should cover: %v", err)
	}
	if got := tableKey(resp.Table); got != golden {
		t.Fatal("over-RAM admitted query returned wrong rows")
	}
}

// TestSpillConcurrentSessionRaceAndLeaks is the race/leak satellite: at least
// four queries in flight over one shared root pool whose spill tier evicts
// every cooled block (threshold 1 byte), with a monitor goroutine snapshotting
// the spill counters concurrently. Run under -race in CI. Afterwards: results
// golden, pin/unpin invariant intact (no BadEvicts), zero leaked blocks AND
// zero leaked spill bytes/files.
func TestSpillConcurrentSessionRaceAndLeaks(t *testing.T) {
	fact, dim := serveFixture()
	golden := func() string {
		res, err := engine.Execute(joinAggPlan(fact, dim), engine.Options{Workers: 1, UoTBlocks: 1})
		if err != nil {
			t.Fatalf("golden run: %v", err)
		}
		return tableKey(res.Table)
	}()

	parent := t.TempDir()
	s := Open(Config{
		Workers: 4, MaxConcurrent: 4, BlockBytes: 4 << 10,
		SpillDir: parent, SpillThreshold: 1,
	})

	stop := make(chan struct{})
	var mon sync.WaitGroup
	mon.Add(1)
	go func() {
		defer mon.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if sc := s.SpillStats(); sc.BadEvicts != 0 {
				t.Errorf("BadEvicts = %d mid-run: eviction raced a live pin", sc.BadEvicts)
				return
			}
			_ = s.Live()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const clients, perClient = 8, 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				r, err := s.Submit(Request{
					Build:    func() *engine.Builder { return joinAggPlan(fact, dim) },
					Priority: c % 2,
				})
				if err != nil {
					t.Errorf("client %d query %d: %v", c, i, err)
					return
				}
				if got := tableKey(r.Table); got != golden {
					t.Errorf("client %d query %d: result diverged from golden", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	mon.Wait()

	sc := s.SpillStats()
	if sc.BlocksOut == 0 || sc.BlocksIn == 0 {
		t.Fatalf("no two-way spill traffic under threshold 1 (out=%d in=%d); race test is vacuous", sc.BlocksOut, sc.BlocksIn)
	}
	if sc.BadEvicts != 0 {
		t.Fatalf("BadEvicts = %d: eviction raced a live pin", sc.BadEvicts)
	}
	if sc.DiskLive != 0 || sc.Outstanding != 0 {
		t.Fatalf("spill tier not drained: %d disk bytes, %d tracked blocks", sc.DiskLive, sc.Outstanding)
	}
	if s.Live() != 0 {
		t.Fatalf("global gauge %d after drain, want 0", s.Live())
	}
	if p := s.PendingPartials(); p != 0 {
		t.Fatalf("%d partial blocks leaked", p)
	}
	s.Close()
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill files leaked past Close: %d entries left in %s", len(entries), parent)
	}
}

// TestSpillSessionFaultsAndClose: injected faults at both spill sites during
// concurrent serving demote to stall-and-retry without corrupting results,
// and Close still removes every spill file afterwards.
func TestSpillSessionFaultsAndClose(t *testing.T) {
	fact, dim := serveFixture()
	golden := func() string {
		res, err := engine.Execute(joinAggPlan(fact, dim), engine.Options{Workers: 1, UoTBlocks: 1})
		if err != nil {
			t.Fatalf("golden run: %v", err)
		}
		return tableKey(res.Table)
	}()

	inj := faults.New(faults.Config{
		Seed: 17,
		Rates: map[faults.Site]float64{
			faults.SpillWrite: 0.2,
			faults.SpillRead:  0.2,
		},
		Kinds: []faults.Kind{faults.KindError, faults.KindPanic},
	})
	parent := t.TempDir()
	s := Open(Config{
		Workers: 4, MaxConcurrent: 4, BlockBytes: 4 << 10,
		SpillDir: parent, SpillThreshold: 1,
	}.withSpillFaults(inj))

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				r, err := s.Submit(Request{
					Build: func() *engine.Builder { return joinAggPlan(fact, dim) },
				})
				if err != nil {
					t.Errorf("faulted serve: %v", err)
					return
				}
				if tableKey(r.Table) != golden {
					t.Error("faulted serve returned wrong rows")
					return
				}
			}
		}()
	}
	wg.Wait()

	sc := s.SpillStats()
	if sc.WriteFaults == 0 && sc.ReadFaults == 0 {
		t.Fatal("no spill faults fired; chaos coverage is vacuous")
	}
	if sc.BadEvicts != 0 {
		t.Fatalf("BadEvicts = %d under faults", sc.BadEvicts)
	}
	s.Close()
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill files leaked past Close under faults: %d entries", len(entries))
	}
}

// errLate is failOp's error.
var errLate = errors.New("late failure")

// failOp fails the run in its one work order.
type failOp struct{ core.Base }

type failWO struct{}

func (failOp) Name() string                          { return "fail" }
func (failOp) Start(*core.ExecCtx) []core.WorkOrder  { return []core.WorkOrder{failWO{}} }
func (failWO) Inputs() []*storage.Block              { return nil }
func (failWO) Run(*core.ExecCtx, *core.Output) error { return errLate }

// failAfterSort gates a failOp behind joinAggPlan's sort: the run fails once
// the sort has fed the result sink every row and the agg has fed its reuse
// tap.
func failAfterSort(b *engine.Builder) *engine.Builder {
	p := b.Plan()
	for i, op := range p.Ops {
		if op.Name() == "sort" {
			p.Block(core.OpID(i), p.AddOp(failOp{}))
			return b
		}
	}
	panic("no sort in the plan")
}

// TestAdoptedBlocksLeaveThePoolOnce: the result sink and a reuse tap adopt
// blocks that a RAM tier of 1 byte evicts and faults back in. A successful
// run hands them out of the pool once, whether the cache admits the tap or
// rejects it (its blocks then go back to the freelist), and a run that
// fails after the sink and the tap were fed releases them. After each run
// the tier tracks no block and the session counts no live byte, and a
// monitor polling the session's gauge throughout never reads it below zero.
func TestAdoptedBlocksLeaveThePoolOnce(t *testing.T) {
	fact, dim := serveFixture()
	golden := func() string {
		res, err := engine.Execute(joinAggPlan(fact, dim), engine.Options{Workers: 1, UoTBlocks: 1})
		if err != nil {
			t.Fatalf("golden run: %v", err)
		}
		return tableKey(res.Table)
	}()
	// A 1-byte cache budget rejects every result; the default admits them.
	for _, budget := range []int64{0, 1} {
		s := Open(Config{
			Workers: 2, BlockBytes: 4 << 10, SpillDir: t.TempDir(), SpillThreshold: 1,
			Reuse: true, ReuseBudget: budget,
		})
		var low atomic.Int64
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v := s.Live(); v < low.Load() {
					low.Store(v)
				}
				runtime.Gosched()
			}
		}()
		settled := func(name string) {
			t.Helper()
			if sc := s.SpillStats(); sc.Outstanding != 0 || sc.BadEvicts != 0 {
				t.Fatalf("budget %d, %s: spill counters %+v: want nothing tracked, no bad evict", budget, name, sc)
			}
			if n := s.Live(); n != 0 {
				t.Fatalf("budget %d, %s: the session counts %d live bytes", budget, name, n)
			}
		}

		_, err := s.Submit(Request{Build: func() *engine.Builder { return failAfterSort(joinAggPlan(fact, dim)) }})
		if !errors.Is(err, errLate) {
			t.Fatalf("budget %d: the gated run returned %v, want the late failure", budget, err)
		}
		settled("failed run")

		r, err := s.Submit(Request{Build: func() *engine.Builder { return joinAggPlan(fact, dim) }})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if tableKey(r.Table) != golden {
			t.Fatalf("budget %d: wrong rows", budget)
		}
		u := r.Run.Reuse()
		if admitted := u.Captured == 2 && u.CaptureRej == 0; admitted != (budget == 0) || u.Captured+u.CaptureRej != 2 {
			t.Fatalf("budget %d: %d results admitted, %d rejected; want the tap and the root offered, and admitted only under the default budget", budget, u.Captured, u.CaptureRej)
		}
		if r.Run.Intermediates.Live() != 0 || r.Run.HashTables.Live() != 0 {
			t.Fatalf("budget %d: the run counts %d live temp bytes and %d live hash-table bytes", budget, r.Run.Intermediates.Live(), r.Run.HashTables.Live())
		}
		settled("successful run")

		close(stop)
		<-stopped
		if sc := s.SpillStats(); sc.BlocksOut == 0 || sc.BlocksIn == 0 {
			t.Fatalf("budget %d: spill counters %+v: want traffic both ways", budget, sc)
		}
		if v := low.Load(); v < 0 {
			t.Fatalf("budget %d: the session's gauge read %d", budget, v)
		}
		s.Close()
	}
}
