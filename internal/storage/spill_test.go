package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/stats"
)

// newSpillPool builds a root pool with a gauge and a spill tier rooted in a
// test temp dir.
func newSpillPool(t *testing.T, cfg SpillConfig) (*Pool, *stats.MemGauge) {
	t.Helper()
	var g stats.MemGauge
	p := NewPool(&g, nil)
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if err := p.EnableSpill(cfg); err != nil {
		t.Fatalf("EnableSpill: %v", err)
	}
	t.Cleanup(func() { p.CloseSpill() })
	return p, &g
}

func spillFiles(t *testing.T, p *Pool) int {
	t.Helper()
	ents, err := os.ReadDir(p.SpillDir())
	if err != nil {
		t.Fatalf("read spill dir: %v", err)
	}
	return len(ents)
}

func TestSpillEvictAndFaultIn(t *testing.T) {
	p, g := newSpillPool(t, SpillConfig{Threshold: 0}) // any live byte is pressure
	schema := codecTestSchema()

	var blocks []*Block
	var wants []*Block
	for i := 0; i < 3; i++ {
		b := p.CheckOut(i, schema, ColumnStore, 1<<10)
		fillTestBlock(b, 5+i)
		w := NewBlock(schema, ColumnStore, 1<<10)
		fillTestBlock(w, 5+i)
		blocks, wants = append(blocks, b), append(wants, w)
	}
	if g.Live() == 0 {
		t.Fatal("no live bytes after checkouts")
	}
	for _, b := range blocks {
		p.Cool(b)
	}
	c := p.SpillCounters()
	if c.BlocksOut != 3 || c.DiskLive == 0 {
		t.Fatalf("after cooling: %+v", c)
	}
	if g.Live() != 0 {
		t.Fatalf("%d live bytes left after full eviction", g.Live())
	}
	for i, b := range blocks {
		if b.data != nil {
			t.Fatalf("block %d still resident after eviction", i)
		}
		if _, err := p.Pin(b); err != nil {
			t.Fatalf("pin %d: %v", i, err)
		}
		sameRows(t, wants[i], b)
	}
	c = p.SpillCounters()
	if c.BlocksIn != 3 || c.DiskLive != 0 || c.BadEvicts != 0 {
		t.Fatalf("after fault-in: %+v", c)
	}
	if c.DiskPeak == 0 || c.FaultStallNS == 0 {
		t.Fatalf("peak/stall not recorded: %+v", c)
	}
	if g.Live() == 0 {
		t.Fatal("gauge not re-credited by fault-in")
	}
	for _, b := range blocks {
		p.Release(b)
	}
	c = p.SpillCounters()
	if c.Outstanding != 0 || g.Live() != 0 {
		t.Fatalf("after release: outstanding %d, live %d", c.Outstanding, g.Live())
	}
}

func TestSpillPinnedNeverEvicted(t *testing.T) {
	p, _ := newSpillPool(t, SpillConfig{Threshold: 0})
	schema := codecTestSchema()

	hot := p.CheckOut(0, schema, RowStore, 1<<10)
	fillTestBlock(hot, 4)
	p.Cool(hot) // evicted immediately at threshold 0
	if _, err := p.Pin(hot); err != nil {
		t.Fatalf("pin: %v", err)
	}
	// More pressure: new cold blocks spill, the pinned block must not.
	for i := 1; i <= 3; i++ {
		b := p.CheckOut(i, schema, RowStore, 1<<10)
		fillTestBlock(b, 4)
		p.Cool(b)
	}
	if hot.data == nil {
		t.Fatal("pinned block lost its data")
	}
	c := p.SpillCounters()
	if c.BadEvicts != 0 {
		t.Fatalf("%d bad evicts", c.BadEvicts)
	}
	if c.BlocksOut != 4 { // hot once (before the pin) + the 3 cold ones
		t.Fatalf("BlocksOut = %d, want 4", c.BlocksOut)
	}
}

func TestSpillReleaseSpilledBlock(t *testing.T) {
	p, g := newSpillPool(t, SpillConfig{Threshold: 0})
	b := p.CheckOut(0, codecTestSchema(), ColumnStore, 1<<10)
	fillTestBlock(b, 5)
	p.Cool(b)
	if b.data != nil {
		t.Fatal("not evicted")
	}
	p.Release(b) // consumer never needed it (e.g. aborted run cleanup)
	c := p.SpillCounters()
	if c.Outstanding != 0 || c.DiskLive != 0 {
		t.Fatalf("after release of spilled block: %+v", c)
	}
	if g.Live() != 0 {
		t.Fatalf("gauge at %d after release", g.Live())
	}
	// The dead allocation must not have been recycled.
	n := p.CheckOut(1, codecTestSchema(), ColumnStore, 1<<10)
	if n == b {
		t.Fatal("spilled block resurrected from the freelist")
	}
}

func TestSpillWriteFaultDemotes(t *testing.T) {
	fails := 2
	cfg := SpillConfig{Threshold: 0}
	cfg.WriteFault = func() error {
		if fails > 0 {
			fails--
			return errors.New("injected write fault")
		}
		return nil
	}
	p, g := newSpillPool(t, cfg)
	b := p.CheckOut(0, codecTestSchema(), RowStore, 1<<10)
	fillTestBlock(b, 4)

	p.Cool(b) // first balance: write fault → block stays resident
	if b.data == nil {
		t.Fatal("evicted through a write fault")
	}
	if c := p.SpillCounters(); c.WriteFaults != 1 || c.BlocksOut != 0 {
		t.Fatalf("after faulted eviction: %+v", c)
	}
	// Next pressure event retries: one more fault, then success.
	b2 := p.CheckOut(1, codecTestSchema(), RowStore, 1<<10)
	_ = b2 // checkout over threshold triggers balance (fault #2)
	b3 := p.CheckOut(2, codecTestSchema(), RowStore, 1<<10)
	_ = b3 // triggers balance again: the cooled block finally spills
	if b.data != nil {
		t.Fatal("stall-and-retry never evicted the block")
	}
	if c := p.SpillCounters(); c.WriteFaults != 2 || c.BlocksOut != 1 {
		t.Fatalf("after retried eviction: %+v", c)
	}
	if _, err := p.Pin(b); err != nil {
		t.Fatalf("pin after retried eviction: %v", err)
	}
	if g.Live() == 0 {
		t.Fatal("gauge empty after fault-in")
	}
}

func TestSpillReadFaultRetriesThenFails(t *testing.T) {
	var fails int
	cfg := SpillConfig{Threshold: 0}
	cfg.ReadFault = func() error {
		if fails > 0 {
			fails--
			return errors.New("injected read fault")
		}
		return nil
	}
	p, _ := newSpillPool(t, cfg)
	schema := codecTestSchema()

	b := p.CheckOut(0, schema, ColumnStore, 1<<10)
	fillTestBlock(b, 6)
	want := NewBlock(schema, ColumnStore, 1<<10)
	fillTestBlock(want, 6)
	p.Cool(b)

	fails = 3 // transient: retries absorb it
	if _, err := p.Pin(b); err != nil {
		t.Fatalf("pin with transient read faults: %v", err)
	}
	sameRows(t, want, b)
	if c := p.SpillCounters(); c.ReadFaults != 3 {
		t.Fatalf("ReadFaults = %d, want 3", c.ReadFaults)
	}

	// Persistent: a second spilled block whose reads never succeed.
	b2 := p.CheckOut(1, schema, ColumnStore, 1<<10)
	fillTestBlock(b2, 6)
	p.Release(b) // make room predictable
	p.Cool(b2)
	if b2.data != nil {
		t.Fatal("b2 not evicted")
	}
	fails = 1 << 30
	_, err := p.Pin(b2)
	if err == nil {
		t.Fatal("pin succeeded under persistent read faults")
	}
	fails = 0
	if _, err := p.Pin(b2); err != nil {
		t.Fatalf("pin after faults cleared: %v", err)
	}
}

func TestSpillPanicHookDemotes(t *testing.T) {
	cfg := SpillConfig{Threshold: 0}
	armed := true
	cfg.WriteFault = func() error {
		if armed {
			armed = false
			panic("injected panic at spill_write")
		}
		return nil
	}
	p, _ := newSpillPool(t, cfg)
	b := p.CheckOut(0, codecTestSchema(), RowStore, 1<<10)
	fillTestBlock(b, 4)
	p.Cool(b) // panic is recovered inside the tier
	if b.data == nil {
		t.Fatal("evicted through a panicking hook")
	}
	if c := p.SpillCounters(); c.WriteFaults != 1 {
		t.Fatalf("panic not demoted to a write fault: %+v", c)
	}
	p.CheckOut(1, codecTestSchema(), RowStore, 1<<10) // retry trigger
	if b.data != nil {
		t.Fatal("block never spilled after the panic was absorbed")
	}
}

func TestSpillExtentRotationAndReclaim(t *testing.T) {
	// Extents big enough for one block only: every eviction rotates.
	p, _ := newSpillPool(t, SpillConfig{Threshold: 0, MaxExtentBytes: 1})
	schema := codecTestSchema()
	var blocks []*Block
	for i := 0; i < 4; i++ {
		b := p.CheckOut(i, schema, RowStore, 1<<10)
		fillTestBlock(b, 3)
		p.Cool(b)
		blocks = append(blocks, b)
	}
	if n := spillFiles(t, p); n != 4 {
		t.Fatalf("%d extent files, want 4", n)
	}
	// Fault-in reclaims each extent as its only record dies (the newest
	// extent stays: it is still the open write head).
	for _, b := range blocks {
		if _, err := p.Pin(b); err != nil {
			t.Fatal(err)
		}
	}
	if n := spillFiles(t, p); n != 1 {
		t.Fatalf("%d extent files after reclaim, want 1 (write head)", n)
	}
	if c := p.SpillCounters(); c.DiskLive != 0 {
		t.Fatalf("DiskLive = %d after reclaim", c.DiskLive)
	}
}

// TestEvictionThresholdSeenThroughViews: a subpool view reports its root tier's
// threshold, and 0 once no tier is attached.
func TestEvictionThresholdSeenThroughViews(t *testing.T) {
	p, _ := newSpillPool(t, SpillConfig{Threshold: 8 << 20})
	view := p.Subpool(nil, nil)
	if got := view.EvictionThreshold(); got != 8<<20 {
		t.Fatalf("view threshold = %d, want %d", got, 8<<20)
	}
	if err := p.CloseSpill(); err != nil {
		t.Fatal(err)
	}
	if got := view.EvictionThreshold(); got != 0 {
		t.Fatalf("threshold after CloseSpill = %d, want 0", got)
	}
}

func TestSpillCloseRemovesDirWithOrphans(t *testing.T) {
	var g stats.MemGauge
	p := NewPool(&g, nil)
	if err := p.EnableSpill(SpillConfig{Dir: t.TempDir(), Threshold: 0}); err != nil {
		t.Fatal(err)
	}
	b := p.CheckOut(0, codecTestSchema(), RowStore, 1<<10)
	fillTestBlock(b, 4)
	p.Cool(b)
	dir := p.SpillDir()
	if dir == "" {
		t.Fatal("no spill dir")
	}
	// Simulate an aborted run: the spilled block is never pinned or
	// released. CloseSpill must still take the whole directory with it.
	if err := p.CloseSpill(); err != nil {
		t.Fatalf("CloseSpill: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir still exists: %v", err)
	}
	if p.SpillDir() != "" {
		t.Fatal("tier still attached after CloseSpill")
	}
	if err := p.CloseSpill(); err != nil {
		t.Fatalf("second CloseSpill not a no-op: %v", err)
	}
}

// TestSpillConcurrentPinEvict races worker-side eviction triggers (CheckOut
// over threshold) against pins and releases from other goroutines; run under
// -race it is the storage-level half of the concurrent-eviction story. The
// pin/unpin invariant (BadEvicts == 0), zero outstanding entries, and an
// empty spill dir must all hold at drain.
func TestSpillConcurrentPinEvict(t *testing.T) {
	// Threshold 0: every cooled block spills, so every pin is a fault-in
	// racing the other workers' balance triggers.
	p, g := newSpillPool(t, SpillConfig{Threshold: 0})
	schema := codecTestSchema()

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := p.Subpool(nil, nil)
			for i := 0; i < 40; i++ {
				b := view.CheckOut(w*1000+i, schema, ColumnStore, 1<<10)
				fillTestBlock(b, 5)
				want := NewBlock(schema, ColumnStore, 1<<10)
				fillTestBlock(want, 5)
				view.Cool(b)
				if _, err := view.Pin(b); err != nil {
					errc <- fmt.Errorf("worker %d pin: %w", w, err)
					return
				}
				for r := 0; r < b.NumRows(); r++ {
					if b.Int64At(0, r) != want.Int64At(0, r) {
						errc <- fmt.Errorf("worker %d: row %d corrupted after fault-in", w, r)
						return
					}
				}
				view.Release(b)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	c := p.SpillCounters()
	if c.BadEvicts != 0 {
		t.Fatalf("%d evictions raced a pin", c.BadEvicts)
	}
	if c.Outstanding != 0 || c.DiskLive != 0 || g.Live() != 0 {
		t.Fatalf("leak at drain: %+v, live %d", c, g.Live())
	}
	if c.BlocksOut == 0 || c.BlocksIn == 0 {
		t.Fatalf("no concurrent spill traffic: %+v", c)
	}
}
