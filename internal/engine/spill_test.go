package engine

import (
	"os"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/storage"
)

// spillPool returns a caller-owned root pool whose spill tier has a threshold
// of 1 byte, making every cooled block spill-eligible — the maximal-traffic
// setting the equivalence and crash tests want — plus the tier's parent
// directory. inj, if non-nil, is consulted at the spill_write/spill_read
// sites. The caller closes the tier, as any pool owner does.
func spillPool(t *testing.T, inj *faults.Injector) (*storage.Pool, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := storage.SpillConfig{Dir: dir, Threshold: 1}
	if inj != nil {
		cfg.WriteFault = func() error { return inj.At(faults.SpillWrite) }
		cfg.ReadFault = func() error { return inj.At(faults.SpillRead) }
	}
	pool := storage.NewPool(new(stats.MemGauge), nil)
	if err := pool.EnableSpill(cfg); err != nil {
		t.Fatal(err)
	}
	return pool, dir
}

// closeTier closes the pool's spill tier and verifies the per-tier
// subdirectory (and with it every extent file, orphaned or not) is gone.
func closeTier(t *testing.T, pool *storage.Pool, dir string) {
	t.Helper()
	if err := pool.CloseSpill(); err != nil {
		t.Fatalf("CloseSpill: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading spill parent dir: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill files leaked past CloseSpill: %d entries left in %s", len(entries), dir)
	}
}

// TestSpillGoldenEquivalence: the same plan run entirely in RAM and run with
// a spill tier evicting every cooled block must produce identical results —
// eviction, codec round-trips, and fault-in reordering are storage mechanics,
// not semantics. The spilled run must show real two-way disk traffic, keep its
// extent high-water within 4x the in-RAM peak (freed extents are reused, not
// appended past), leave no live extent bytes, and remove its spill directory.
func TestSpillGoldenEquivalence(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 4<<10)
	base, baseRes := mustRows(t, buildJoinAggPlan(fact, dim), Options{
		Workers: 1, UoTBlocks: 1, TempBlockBytes: 4 << 10,
	}, "in-RAM baseline")
	if len(base) == 0 {
		t.Fatal("baseline is empty")
	}
	peak := baseRes.Run.Intermediates.High()

	for _, workers := range []int{1, 4} {
		pool, dir := spillPool(t, nil)
		opts := Options{Workers: workers, UoTBlocks: 2, TempBlockBytes: 4 << 10, Pool: pool}
		rows, res := mustRows(t, buildJoinAggPlan(fact, dim), opts, "spilled")
		if !sameRows(base, rows) {
			t.Fatalf("workers=%d: spilled result differs from in-RAM baseline", workers)
		}
		sp := pool.SpillCounters()
		if sp.BlocksOut == 0 || sp.BlocksIn == 0 {
			t.Fatalf("workers=%d: no two-way spill traffic (out=%d in=%d); equivalence is vacuous", workers, sp.BlocksOut, sp.BlocksIn)
		}
		if sp.BytesOut == 0 || sp.BytesIn == 0 || sp.DiskPeak == 0 {
			t.Fatalf("workers=%d: byte counters inconsistent: %+v", workers, sp)
		}
		if sp.DiskPeak > 4*peak {
			t.Fatalf("workers=%d: extent high-water %d unbounded vs in-RAM peak %d", workers, sp.DiskPeak, peak)
		}
		if sp.DiskLive != 0 {
			t.Fatalf("workers=%d: %d extent bytes still live after the run", workers, sp.DiskLive)
		}
		if r := res.Run.Robust(); r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
			t.Fatalf("workers=%d: leaks after spilled run: %+v", workers, r)
		}
		closeTier(t, pool, dir)
	}
}

// TestSpillCrashConsistency is the crash/fault satellite: a fault — error or
// panic — injected mid-spill at the spill_write site on every eviction
// attempt demotes the eviction to stall-and-retry. No half-written extent
// record is ever visible, the block stays resident and is re-derived from
// RAM on delivery, and results stay golden-identical. Injected read faults at
// spill_read exercise the bounded fault-in retry the same way. The fact scan
// computes a projection, so its output is temp blocks the tier evicts: a
// scan that only renames columns emits views, which never spill.
func TestSpillCrashConsistency(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 4<<10)
	base, _ := mustRows(t, buildJoinAggPlanCopied(fact, dim), Options{
		Workers: 1, UoTBlocks: 1, TempBlockBytes: 4 << 10,
	}, "fault-free baseline")

	cases := []struct {
		name string
		site faults.Site
		kind faults.Kind
		rate float64
	}{
		// Rate-1.0 write faults: every eviction attempt dies mid-spill, so
		// nothing must ever reach disk and everything re-derives from RAM.
		{"write-error", faults.SpillWrite, faults.KindError, 1},
		{"write-panic", faults.SpillWrite, faults.KindPanic, 1},
		// Sub-1.0 read faults: fault-ins stall and retry within the bound
		// (rate^8 makes exhausting it vanishingly unlikely).
		{"read-error", faults.SpillRead, faults.KindError, 0.15},
		{"read-panic", faults.SpillRead, faults.KindPanic, 0.15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := faults.New(faults.Config{
				Seed:  11,
				Rates: map[faults.Site]float64{tc.site: tc.rate},
				Kinds: []faults.Kind{tc.kind},
			})
			pool, dir := spillPool(t, inj)
			opts := Options{
				Workers: 2, UoTBlocks: 2, TempBlockBytes: 4 << 10, Pool: pool,
				Faults: inj,
			}
			rows, res := mustRows(t, buildJoinAggPlanCopied(fact, dim), opts, "faulted spill")
			if !sameRows(base, rows) {
				t.Fatal("faulted spill run differs from fault-free baseline")
			}
			sp := pool.SpillCounters()
			switch tc.site {
			case faults.SpillWrite:
				if sp.WriteFaults == 0 {
					t.Fatal("spill_write site never fired")
				}
				if sp.BlocksOut != 0 {
					t.Fatalf("%d blocks reached disk despite rate-1.0 write faults", sp.BlocksOut)
				}
			case faults.SpillRead:
				if sp.ReadFaults == 0 {
					t.Fatal("spill_read site never fired")
				}
				if sp.BlocksIn == 0 {
					t.Fatal("no fault-ins despite spill traffic; retry path untested")
				}
			}
			if sp.DiskLive != 0 {
				t.Fatalf("%d extent bytes live after the run", sp.DiskLive)
			}
			if r := res.Run.Robust(); r.LeakedBlocks != 0 || r.LeakedBytes != 0 {
				t.Fatalf("leaks after faulted spill run: %+v", r)
			}
			closeTier(t, pool, dir)
		})
	}
}

// TestSpillPersistentReadFaultFailsCleanly: when every fault-in attempt
// faults (rate 1.0), the retry bound is exhausted, the delivery is abandoned,
// and the run fails with the spill error — but nothing leaks: edge-buffered
// and refcounted blocks are reclaimed, disk records freed, and the spill
// directory removed on the failure path too.
func TestSpillPersistentReadFaultFailsCleanly(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 4<<10)
	inj := faults.New(faults.Config{
		Seed:  3,
		Rates: map[faults.Site]float64{faults.SpillRead: 1},
		Kinds: []faults.Kind{faults.KindError},
	})
	pool, dir := spillPool(t, inj)
	_, err := Execute(buildJoinAggPlan(fact, dim), Options{
		Workers: 2, UoTBlocks: 2, TempBlockBytes: 4 << 10, Pool: pool, Faults: inj,
	})
	if err == nil {
		t.Fatal("run succeeded despite rate-1.0 persistent read faults")
	}
	if !strings.Contains(err.Error(), "spill fault-in failed") {
		t.Fatalf("unexpected error: %v", err)
	}
	if sp := pool.SpillCounters(); sp.DiskLive != 0 || sp.Outstanding != 0 {
		t.Fatalf("failed run left the tier holding blocks: %+v", sp)
	}
	closeTier(t, pool, dir)
}
