package reuse

import (
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

func mkTable(t *testing.T, name string, rows int) *storage.Table {
	t.Helper()
	sch := storage.NewSchema(storage.Column{Name: "a", Type: types.Int64})
	tab := storage.NewTable(name, sch, storage.RowStore, 1<<10)
	blk := storage.NewBlock(sch, storage.RowStore, 1<<10)
	for i := 0; i < rows; i++ {
		if !blk.AppendRow(types.NewInt64(int64(i))) {
			tab.Append(blk)
			blk = storage.NewBlock(sch, storage.RowStore, 1<<10)
			blk.AppendRow(types.NewInt64(int64(i)))
		}
	}
	if blk.NumRows() > 0 {
		tab.Append(blk)
	}
	return tab
}

func fpN(n byte) Fingerprint {
	var f Fingerprint
	f[0] = n
	return f
}

func depsOf(tabs ...*storage.Table) []Dep {
	out := make([]Dep, len(tabs))
	for i, tb := range tabs {
		out[i] = Dep{Table: tb, Version: tb.Version()}
	}
	return out
}

// admit is Cache.Admit for tests that only care whether the entry got in.
func admit(c *Cache, fp Fingerprint, t *storage.Table, deps []Dep, ticks float64, ops int) bool {
	ok, _ := c.Admit(fp, t, deps, ticks, ops)
	return ok
}

func TestCacheAdmitLookup(t *testing.T) {
	base := mkTable(t, "base", 1)
	res := mkTable(t, "res", 10)
	c := New(Config{Budget: 1 << 20})
	if !admit(c, fpN(1), res, depsOf(base), 0, 3) {
		t.Fatal("admit rejected")
	}
	e := c.Lookup(fpN(1))
	if e == nil {
		t.Fatal("lookup missed")
	}
	if e.Table() != res {
		t.Error("hit returned a different table")
	}
	if e.Rows() != 10 {
		t.Errorf("rows = %d, want 10", e.Rows())
	}
	if c.Lookup(fpN(2)) != nil {
		t.Error("unknown fingerprint hit")
	}
	e.Release()
	ctr := c.Counters()
	if ctr.Hits != 1 || ctr.Misses != 1 || ctr.Admissions != 1 || ctr.Pins != 0 {
		t.Errorf("counters = %+v", ctr)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheAdmitRejectsOversizeAndDuplicates(t *testing.T) {
	res := mkTable(t, "res", 10)
	bytes := res.AllocBytes()
	c := New(Config{Budget: 4*bytes - 1})
	if admit(c, fpN(1), res, nil, 0, 1) {
		t.Error("entry over a quarter of the budget admitted")
	}
	c2 := New(Config{Budget: 4 * bytes})
	if !admit(c2, fpN(1), res, nil, 0, 1) {
		t.Fatal("admit rejected")
	}
	if admit(c2, fpN(1), mkTable(t, "res2", 10), nil, 0, 1) {
		t.Error("duplicate fingerprint admitted")
	}
	if got := c2.Counters().RejectedAdmissions; got != 1 {
		t.Errorf("RejectedAdmissions = %d, want 1", got)
	}
}

func TestCacheBenefitRankedEviction(t *testing.T) {
	low := mkTable(t, "low", 20)
	high := mkTable(t, "high", 20)
	bytes := low.AllocBytes()
	c := New(Config{Budget: 4 * bytes})
	// Two entries worth more than anything below take half the budget, so
	// low and high fill it.
	for _, fp := range []Fingerprint{fpN(8), fpN(9)} {
		if !admit(c, fp, mkTable(t, "top", 20), nil, 1e15, 1) {
			t.Fatal("top admit rejected")
		}
	}
	if !admit(c, fpN(1), low, nil, 1e6, 1) {
		t.Fatal("low admit rejected")
	}
	if !admit(c, fpN(2), high, nil, 1e12, 1) {
		t.Fatal("high admit rejected")
	}
	// A newcomer worth less than everything resident is the one rejected.
	if admit(c, fpN(3), mkTable(t, "worst", 20), nil, 0, 1) {
		t.Error("lowest-benefit newcomer displaced a resident entry")
	}
	// A newcomer between the two evicts exactly the low entry, and says so.
	ok, evicted := c.Admit(fpN(4), mkTable(t, "mid", 20), nil, 1e9, 1)
	if !ok {
		t.Fatal("mid admit rejected")
	}
	if len(evicted) != 1 || evicted[0] != bytes {
		t.Errorf("Admit reported evictions %v, want [%d]", evicted, bytes)
	}
	if c.Lookup(fpN(1)) != nil {
		t.Error("low-benefit entry survived")
	}
	if e := c.Lookup(fpN(2)); e == nil {
		t.Error("high-benefit entry was evicted")
	} else {
		e.Release()
	}
	ctr := c.Counters()
	if ctr.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", ctr.Evictions)
	}
}

func TestCachePinBlocksEviction(t *testing.T) {
	bytes := mkTable(t, "a", 20).AllocBytes()
	c := New(Config{Budget: 4 * bytes})
	var pinned []*Entry
	for i := byte(1); i <= 4; i++ {
		if !admit(c, fpN(i), mkTable(t, "a", 20), nil, 1, 1) {
			t.Fatal("admit rejected")
		}
		e := c.Lookup(fpN(i))
		if e == nil {
			t.Fatal("lookup missed")
		}
		pinned = append(pinned, e)
	}
	// Every resident entry is pinned: nothing can be evicted, so even a far
	// more valuable newcomer is rejected rather than unpinning a live reader.
	if admit(c, fpN(5), mkTable(t, "b", 20), nil, 1e15, 1) {
		t.Error("admission evicted a pinned entry")
	}
	for _, e := range pinned {
		e.Release()
	}
	if !admit(c, fpN(5), mkTable(t, "b", 20), nil, 1e15, 1) {
		t.Error("admission still rejected after unpin")
	}
}

func TestCacheInvalidation(t *testing.T) {
	base := mkTable(t, "base", 1)
	c := New(Config{Budget: 1 << 20})
	if !admit(c, fpN(1), mkTable(t, "r1", 5), depsOf(base), 0, 1) {
		t.Fatal("admit rejected")
	}
	// Lazy: a version bump is caught at the next Lookup.
	base.BumpVersion()
	if c.Lookup(fpN(1)) != nil {
		t.Error("stale entry served after version bump")
	}
	if got := c.Counters().Invalidations; got != 1 {
		t.Errorf("Invalidations = %d, want 1", got)
	}
	// An entry admitted against the new version is dropped by the next bump.
	if !admit(c, fpN(2), mkTable(t, "r2", 5), depsOf(base), 0, 1) {
		t.Fatal("re-admit rejected")
	}
	base.BumpVersion()
	if c.Lookup(fpN(2)) != nil || c.Has(fpN(2)) {
		t.Error("entry served or kept after its table's second version bump")
	}
	if got := c.Counters().Invalidations; got != 2 {
		t.Errorf("Invalidations = %d, want 2", got)
	}
	// Admission itself rejects when a dep moved between fingerprint and fill.
	deps := depsOf(base)
	base.BumpVersion()
	if admit(c, fpN(3), mkTable(t, "r3", 5), deps, 0, 1) {
		t.Error("admitted an entry whose dep moved during the fill")
	}
}

// A version bump changes the fingerprint of every later submission, so the
// old entry can never be looked up (and lazily dropped) again: the next Admit
// must free it rather than leave it holding budget.
func TestCacheAdmitFreesUnreachableStaleEntries(t *testing.T) {
	base := mkTable(t, "base", 1)
	c := New(Config{Budget: 1 << 20})
	if !admit(c, fpN(1), mkTable(t, "r1", 300), depsOf(base), 0, 1) {
		t.Fatal("admit rejected")
	}
	pinned := mkTable(t, "r2", 5)
	if !admit(c, fpN(2), pinned, depsOf(base), 0, 1) {
		t.Fatal("admit rejected")
	}
	held := c.Lookup(fpN(2)) // a run still reading the old version
	base.BumpVersion()
	r3 := mkTable(t, "r3", 5)
	if !admit(c, fpN(3), r3, depsOf(base), 0, 1) {
		t.Fatal("admit after bump rejected")
	}
	if c.Has(fpN(1)) {
		t.Error("stale unpinned entry survived the next Admit")
	}
	if !c.Has(fpN(2)) {
		t.Error("stale entry dropped while pinned")
	}
	if ram := c.Counters().BytesPinned; ram != pinned.AllocBytes()+r3.AllocBytes() {
		t.Errorf("ram = %d, want %d (pinned stale + fresh entry only)", ram, pinned.AllocBytes()+r3.AllocBytes())
	}
	if got := c.Counters().Invalidations; got != 1 {
		t.Errorf("Invalidations = %d, want 1", got)
	}
	held.Release()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	leader, wait, done := c.Flight(fpN(1))
	if !leader || wait != nil || done == nil {
		t.Fatal("first caller is not the leader")
	}
	l2, wait2, _ := c.Flight(fpN(1))
	if l2 || wait2 == nil {
		t.Fatal("second caller did not become a waiter")
	}
	released := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := wait2(nil); err != nil {
			t.Errorf("wait: %v", err)
		}
		close(released)
	}()
	done()
	wg.Wait()
	<-released
	// The flight is gone: the next caller leads again.
	l3, _, done3 := c.Flight(fpN(1))
	if !l3 {
		t.Fatal("flight was not cleared by done")
	}
	done3()
	ctr := c.Counters()
	if ctr.FlightLeaders != 2 || ctr.FlightWaits != 1 {
		t.Errorf("flight counters = %+v", ctr)
	}
}

func TestCacheCloseReportsPinLeaks(t *testing.T) {
	c := New(Config{Budget: 1 << 20})
	admit(c, fpN(1), mkTable(t, "r", 5), nil, 0, 1)
	e := c.Lookup(fpN(1))
	if err := c.Close(); err == nil {
		t.Error("Close ignored an outstanding pin")
	}
	e.Release()
	c2 := New(Config{Budget: 1 << 20})
	admit(c2, fpN(1), mkTable(t, "r", 5), nil, 0, 1)
	e2 := c2.Lookup(fpN(1))
	e2.Release()
	if err := c2.Close(); err != nil {
		t.Errorf("Close after release: %v", err)
	}
	if c2.Lookup(fpN(1)) != nil {
		t.Error("closed cache served a hit")
	}
}

func TestCacheOccupancyAccounting(t *testing.T) {
	r1 := mkTable(t, "r1", 20)
	r2 := mkTable(t, "r2", 20)
	c := New(Config{Budget: 4 * r1.AllocBytes()})
	admit(c, fpN(1), r1, nil, 0, 1)
	admit(c, fpN(2), r2, nil, 0, 1)
	if ctr := c.Counters(); ctr.Entries != 2 || ctr.BytesPinned != r1.AllocBytes()+r2.AllocBytes() {
		t.Errorf("occupancy = %d entries, %d ram", ctr.Entries, ctr.BytesPinned)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if ctr := c.Counters(); ctr.Entries != 0 || ctr.BytesPinned != 0 {
		t.Errorf("post-Close occupancy = %d entries, %d ram", ctr.Entries, ctr.BytesPinned)
	}
}
