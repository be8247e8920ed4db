package session

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/reuse"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/types"
)

// TestReuseConcurrentSingleFlight submits identical queries concurrently
// against a reuse-enabled session. The gate predicate holds the leader's
// fill open until every other submission is parked on the flight, so the
// dedup is exercised deterministically: one leader computes, everyone else
// waits and then hits.
func TestReuseConcurrentSingleFlight(t *testing.T) {
	fact, dim := serveFixture()
	ref, err := engine.Execute(joinAggPlan(fact, dim), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := tableKey(ref.Table)

	const n = 6
	s := Open(Config{Workers: 4, MaxConcurrent: 4, QueueDepth: n, Reuse: true})
	defer s.Close()

	gate := make(chan struct{})
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Submit(Request{
				Build: func() *engine.Builder { return gatedPlan(fact, gate) },
			})
		}(i)
	}
	// All identical plans fingerprint alike: one submission leads, the rest
	// park on the flight before ever taking an admission slot.
	waitFor(t, "flight waiters", func() bool { return s.ReuseStats().FlightWaits >= n-1 })
	close(gate)
	wg.Wait()

	wantGated := tableKey(mustExecute(t, gatedPlan(fact, gate)))
	hits := int64(0)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if got := tableKey(resps[i].Table); got != wantGated {
			t.Errorf("query %d: result differs from sequential reference", i)
		}
		if resps[i].Run.Reuse().Hit {
			hits++
		}
	}
	if hits < n-1 {
		t.Errorf("%d of %d queries hit the cache, want at least %d", hits, n, n-1)
	}

	// A different (ungated) query still matches its own reference through the
	// same session, warm or cold.
	r, err := s.Submit(Request{Build: func() *engine.Builder { return joinAggPlan(fact, dim) }})
	if err != nil {
		t.Fatal(err)
	}
	if got := tableKey(r.Table); got != want {
		t.Error("join-agg result differs from sequential reference")
	}

	ctr := s.ReuseStats()
	if ctr.FlightLeaders == 0 || ctr.FlightWaits < n-1 {
		t.Errorf("flight counters = %+v", ctr)
	}
	if ctr.Pins != 0 {
		t.Errorf("%d cache pins outstanding after drain", ctr.Pins)
	}
	if live := s.Live(); live != 0 {
		t.Errorf("global gauge %d bytes after drain, want 0", live)
	}
	if p := s.PendingPartials(); p != 0 {
		t.Errorf("%d partial blocks leaked", p)
	}
}

func mustExecute(t *testing.T, b *engine.Builder) *storage.Table {
	t.Helper()
	res, err := engine.Execute(b, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Table
}

// TestReuseFaultedFillLeavesNoEntry fails a cold query with a rate-1.0
// injected fault and checks the cache holds no partial entry afterwards; the
// identical query then runs cold, succeeds, and fills, and a third hits.
func TestReuseFaultedFillLeavesNoEntry(t *testing.T) {
	fact, dim := serveFixture()
	s := Open(Config{Workers: 2, MaxConcurrent: 2, QueueDepth: 4, Reuse: true})
	defer s.Close()

	inj := faults.New(faults.Config{
		Seed:  3,
		Rates: map[faults.Site]float64{faults.BlockMaterialize: 1},
		Kinds: []faults.Kind{faults.KindError},
	})
	if _, err := s.Submit(Request{
		Build:  func() *engine.Builder { return joinAggPlan(fact, dim) },
		Faults: inj,
	}); err == nil {
		t.Fatal("rate-1.0 faulted run did not fail")
	}
	if ctr := s.ReuseStats(); ctr.Entries != 0 {
		t.Fatalf("failed fill left %d cache entries", ctr.Entries)
	}
	if live := s.Live(); live != 0 {
		t.Fatalf("failed run leaked %d live bytes", live)
	}

	cold, err := s.Submit(Request{Build: func() *engine.Builder { return joinAggPlan(fact, dim) }})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Run.Reuse().Hit {
		t.Error("query after the failed fill hit a cache that should be empty")
	}
	warm, err := s.Submit(Request{Build: func() *engine.Builder { return joinAggPlan(fact, dim) }})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Run.Reuse().Hit {
		t.Error("third run missed the filled cache")
	}
	if tableKey(cold.Table) != tableKey(warm.Table) {
		t.Error("warm result differs from cold result")
	}
	if ctr := s.ReuseStats(); ctr.Pins != 0 {
		t.Errorf("%d cache pins outstanding", ctr.Pins)
	}
}

// TestReuseDisabledSessionHasNoCache pins the default-off contract.
func TestReuseDisabledSessionHasNoCache(t *testing.T) {
	fact, dim := serveFixture()
	s := Open(Config{Workers: 2, MaxConcurrent: 2})
	defer s.Close()
	r, err := s.Submit(Request{Build: func() *engine.Builder { return joinAggPlan(fact, dim) }})
	if err != nil {
		t.Fatal(err)
	}
	if r.Run.Reuse().Hit {
		t.Error("cache hit on a session without a cache")
	}
	if ctr := s.ReuseStats(); ctr != (reuse.Counters{}) {
		t.Errorf("ReuseStats non-zero without a cache: %+v", ctr)
	}
}

// TestReuseBudgetNeverOverpromisesMemory: a ReuseBudget as large as the whole
// MemoryBudget is capped so the cache and admission together still fit in it.
func TestReuseBudgetNeverOverpromisesMemory(t *testing.T) {
	const budget = 8 << 20
	s := Open(Config{MemoryBudget: budget, Reuse: true, ReuseBudget: budget})
	defer s.Close()
	if got := s.cfg.ReuseBudget + s.adm.budget; got > budget {
		t.Fatalf("cache %d + admission %d = %d bytes, above MemoryBudget %d",
			s.cfg.ReuseBudget, s.adm.budget, got, budget)
	}
}

// slowExpr is a select predicate whose first evaluation stalls for d: it sets
// a scan's measured recompute time, which is what the cache ranks entries by.
// id keeps the fingerprints of otherwise identical scans apart.
type slowExpr struct {
	id   int
	d    time.Duration
	once *sync.Once
}

func (e slowExpr) Type() types.TypeID { return types.Int64 }
func (e slowExpr) String() string     { return fmt.Sprintf("slow(%d)", e.id) }
func (e slowExpr) Eval(*expr.Ctx) types.Datum {
	e.once.Do(func() { time.Sleep(e.d) })
	return types.NewInt64(1)
}
func (e slowExpr) EvalBlock(_ *expr.Ctx, dst []int64) {
	e.once.Do(func() { time.Sleep(e.d) })
	for r := range dst {
		dst[r] = 1
	}
}

// TestReuseEvictionsAreTracedInTheEvictingQuery fills a cache that holds four
// results with eight distinct scans, each costlier to recompute than the ones
// before, so the later ones evict. Every eviction must show up in the trace
// section of the query whose fill caused it: a session only opens per-query
// sections, so a mark recorded without a section handle is counted nowhere.
func TestReuseEvictionsAreTracedInTheEvictingQuery(t *testing.T) {
	fact, _ := serveFixture()
	tr := trace.New(0)
	// A scan's result is one 128 KB collect block, the per-entry cap at this
	// budget.
	s := Open(Config{Workers: 2, MaxConcurrent: 1, Reuse: true, ReuseBudget: 4 * 128 << 10, Trace: tr})
	defer s.Close()
	fs := fact.Schema()
	for i := 0; i < 8; i++ {
		pred := slowExpr{id: i, d: time.Duration(i) * 3 * time.Millisecond, once: new(sync.Once)}
		_, err := s.Submit(Request{Build: func() *engine.Builder {
			b := engine.NewBuilder()
			b.Collect(b.ScanSelect(exec.SelectSpec{
				Name: "sel_slow", Base: fact, Pred: pred,
				Proj: []expr.Expr{expr.C(fs, "k")}, ProjNames: []string{"k"},
			}))
			return b
		}})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	ctr := s.ReuseStats()
	if ctr.Evictions == 0 {
		t.Fatalf("eight fills into a four-entry budget evicted nothing: %+v", ctr)
	}
	var marked int64
	for _, run := range tr.Snapshot().Runs {
		if run.ReuseEvictions > 0 && run.Query <= 4 {
			t.Errorf("query %d is charged %d evictions before the cache was full", run.Query, run.ReuseEvictions)
		}
		marked += run.ReuseEvictions
	}
	if marked != ctr.Evictions {
		t.Errorf("trace sections account for %d evictions, the cache counted %d", marked, ctr.Evictions)
	}
}
