package bench

import (
	"math"
	"slices"
	"strconv"
	"testing"

	"repro/internal/ssb"
	"repro/internal/storage"
)

// Shape tests: these assert the qualitative results the paper reports — who
// wins, in which regime — so a regression that silently flips a conclusion
// fails CI, not just reads oddly in EXPERIMENTS.md. They run the real
// experiment runners at reduced scale.

func cell(t *testing.T, r *Report, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(r.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, r.Rows[row][col], err)
	}
	return v
}

func TestShapeEq1BothRegimesNearOneAtScale(t *testing.T) {
	h := tiny()
	r, err := h.Eq1RatioSweep()
	if err != nil {
		t.Fatal(err)
	}
	// Find the 2MB / T=20 row: p1' must be 1 and both ratios within
	// [0.5, 2] (the Section V-A "very close to 1" claim).
	found := false
	for i, row := range r.Rows {
		if row[0] == "2MB" && row[1] == "20" {
			found = true
			if p1 := cell(t, r, i, 2); p1 != 1 {
				t.Errorf("p1' = %v, want 1", p1)
			}
			for col := 3; col <= 4; col++ {
				if v := cell(t, r, i, col); v < 0.5 || v > 2 {
					t.Errorf("ratio col %d = %v, want near 1", col, v)
				}
			}
		}
	}
	if !found {
		t.Fatal("2MB/T=20 row missing")
	}
}

func TestShapeSec5CPipeliningWinsOnDisk(t *testing.T) {
	h := tiny()
	r, err := h.Sec5CPersistentStore()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Rows {
		high, low := cell(t, r, i, 1), cell(t, r, i, 2)
		if high < 50*low {
			t.Errorf("row %d: disk advantage only %vx", i, high/low)
		}
	}
}

// TestShapeSSBInversion: on a star schema the low UoT never holds more temp
// memory than the high UoT, and once the fact pipeline spans enough blocks
// it holds strictly less on every flight (pipelining wins the memory
// comparison when hash tables are small). At SF 0.01 the fact scans, which
// pass their blocks on as views, leave only q3.1 inverted (0.37 against
// 0.75 MiB); TestShapeSSBTiesAtTinyScale covers the flights that tie there.
// SF 0.05 is the scale EXPERIMENTS.md's SEC6B table reports.
func TestShapeSSBInversion(t *testing.T) {
	for _, sf := range []float64{0.01, 0.05} {
		r, err := New(Config{SF: sf, Workers: 4, Runs: 1, Best: 1}).Sec6BSSBFootprint()
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range r.Rows {
			lowTemp, highTemp := cell(t, r, i, 2), cell(t, r, i, 4)
			if lowTemp > highTemp {
				t.Errorf("SF %v, %s: low temp %v > high temp %v", sf, row[0], lowTemp, highTemp)
			}
			if sf == 0.05 && lowTemp >= highTemp {
				t.Errorf("SF %v, %s: no inversion: low temp %v, high temp %v", sf, row[0], lowTemp, highTemp)
			}
		}
	}
}

// TestShapeSSBTiesAtTinyScale: while the fact pipeline is a block or two,
// neither end wins the memory comparison. The fact scans emit views (4
// bytes a row, none for a dense view of an unfiltered scan), so the high end
// buffers only the probes' outputs whole. Both ends then hold at most one
// 128 KiB output block per operator, and they differ by less than one
// block: every flight at SF 0.005, and at SF 0.01 every flight but q3.1,
// whose two probe outputs the high end buffers whole. A scan that copied
// its projection again would put the high end a block or more above the
// low end.
func TestShapeSSBTiesAtTinyScale(t *testing.T) {
	const block = 128.0 / 1024 // MiB
	const rounding = 0.01      // the report prints MiB to two decimals
	for _, tie := range []struct {
		sf      float64
		flights []string
	}{
		{0.005, ssb.Flights()},
		{0.01, []string{"q1.1", "q2.1", "q4.1"}},
	} {
		r, err := New(Config{SF: tie.sf, Workers: 4, Runs: 1, Best: 1}).Sec6BSSBFootprint()
		if err != nil {
			t.Fatal(err)
		}
		d := ssb.Load(tie.sf, 128<<10, storage.ColumnStore)
		for i, row := range r.Rows {
			if !slices.Contains(tie.flights, row[0]) {
				continue
			}
			b, err := ssb.Build(d, row[0])
			if err != nil {
				t.Fatal(err)
			}
			ops := float64(len(b.Plan().Ops))
			lowTemp, highTemp := cell(t, r, i, 2), cell(t, r, i, 4)
			for _, temp := range []float64{lowTemp, highTemp} {
				if temp > ops*block+rounding {
					t.Errorf("SF %v, %s: temp %v MiB exceeds one block for each of %v operators", tie.sf, row[0], temp, ops)
				}
			}
			if math.Abs(lowTemp-highTemp) > block+rounding {
				t.Errorf("SF %v, %s: low temp %v and high temp %v differ by more than one block", tie.sf, row[0], lowTemp, highTemp)
			}
		}
	}
}

func TestShapeLIPPrunes(t *testing.T) {
	h := tiny()
	r, err := h.Sec6CLIP()
	if err != nil {
		t.Fatal(err)
	}
	noLIP, withLIP := cell(t, r, 0, 1), cell(t, r, 1, 1)
	if withLIP*5 > noLIP {
		t.Errorf("LIP pruned %v -> %v rows; expected >5x reduction", noLIP, withLIP)
	}
}

func TestShapeTab6PrefetchDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the SF-0.2 row-store datasets")
	}
	// The probe/build penalty is a contention effect and needs the
	// paper's T=20; at low thread counts prefetching legitimately breaks
	// even (sequential savings dominate).
	h := New(Config{SF: 0.005, Workers: 20, Runs: 1, Best: 1})
	r, err := h.Tab6Prefetching()
	if err != nil {
		t.Fatal(err)
	}
	// Largest block size row: select must benefit from prefetching,
	// build and probe must be hurt by it (Table VI's directions).
	last := len(r.Rows) - 1
	if selYes, selNo := cell(t, r, last, 1), cell(t, r, last, 2); selYes >= selNo {
		t.Errorf("select: prefetch on %v should beat off %v", selYes, selNo)
	}
	if buildYes, buildNo := cell(t, r, last, 3), cell(t, r, last, 4); buildYes <= buildNo {
		t.Errorf("build: prefetch on %v should cost more than off %v", buildYes, buildNo)
	}
	if probeYes, probeNo := cell(t, r, last, 5), cell(t, r, last, 6); probeYes <= probeNo {
		t.Errorf("probe: prefetch on %v should cost more than off %v", probeYes, probeNo)
	}
}

func TestShapeFig9SmallHashTableScalesBetter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the SF-0.2 dataset")
	}
	h := New(Config{SF: 0.005, Workers: 20, Runs: 1, Best: 1})
	r, err := h.Fig9Scalability()
	if err != nil {
		t.Fatal(err)
	}
	// At T=20 (last row): small-HT probe speedup must exceed large-HT
	// probe speedup by at least 2x, and the large one must be capped well
	// below ideal.
	last := len(r.Rows) - 1
	small, large := cell(t, r, last, 2), cell(t, r, last, 3)
	if small < 2*large {
		t.Errorf("small-HT speedup %v should dominate large-HT %v", small, large)
	}
	if large > 10 {
		t.Errorf("large-HT probe speedup %v should be contention-capped", large)
	}
}
