package memmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTableIIOverheads(t *testing.T) {
	// Q7-style cascade: three hash tables.
	hts := []int64{100 << 20, 2400 << 20, 50 << 20}
	low := LowUoTOverhead(hts)
	if low != (2400+50)<<20 {
		t.Fatalf("low overhead = %d", low)
	}
	high := HighUoTOverhead(224 << 20)
	if high != 224<<20 {
		t.Fatalf("high overhead = %d", high)
	}
	// The paper's Q07 point: with LIP the materialized intermediate
	// (224 MB) is far below the live hash tables (2.45 GB), so high UoT
	// can have the LOWER footprint.
	if high >= low {
		t.Fatal("Section VI-C example: high-UoT overhead should be lower here")
	}
}

func TestLowUoTOverheadEdgeCases(t *testing.T) {
	if LowUoTOverhead(nil) != 0 || LowUoTOverhead([]int64{5}) != 0 {
		t.Fatal("single-join cascade has no extra live hash tables")
	}
}

func TestHashTableSizeModel(t *testing.T) {
	// M = 1 GB of 100-byte tuples, 40-byte buckets, f = 0.5:
	// (1G/100)*(40/0.5) = 800 MB... 1e9/100 = 1e7 entries * 80 = 8e8.
	got := HashTableSize(1e9, 100, 40, 0.5)
	if got != 8e8 {
		t.Fatalf("ht size = %d, want 8e8", got)
	}
	if HashTableSize(100, 0, 40, 0.5) != 0 || HashTableSize(100, 8, 40, 0) != 0 {
		t.Fatal("degenerate inputs should return 0")
	}
	// Lower load factor -> bigger table.
	if HashTableSize(1e6, 10, 40, 0.25) <= HashTableSize(1e6, 10, 40, 0.75) {
		t.Fatal("size must grow as load factor drops")
	}
}

// TestDenseIndexSizeModel: 75 000 orders keyed 1..75 000 with payload cost
// 4 B per key plus 4 B per entry; a key-only index (no refs) only the
// offsets. The dense index beats 5 B slots at f = 7/8 plus 8 B keys when the
// range is dense and loses when it is sparse.
func TestDenseIndexSizeModel(t *testing.T) {
	if got := DenseIndexSize(75000, 75000, 4, 4); got != 600000 {
		t.Fatalf("dense index = %d, want 600000", got)
	}
	if got := DenseIndexSize(75000, 7499, 4, 0); got != 29996 {
		t.Fatalf("key-only dense index = %d, want 29996", got)
	}
	hash := HashTableSize(75000*16, 16, 5, 0.875) + 75000*8
	if dense := DenseIndexSize(75000, 75000, 4, 4); dense >= hash {
		t.Fatalf("dense %d should undercut hash %d on a 1..n range", dense, hash)
	}
	if sparse := DenseIndexSize(75000, 75000*32, 4, 4); sparse <= hash {
		t.Fatalf("dense %d over a 32x sparse range should exceed hash %d", sparse, hash)
	}
}

func TestMeasureAndTotal(t *testing.T) {
	// Paper Table III, Q03 on lineitem: s=53.9%, p=13.1%, total 7.0%.
	s := SelectStats{Selectivity: 0.539, Projectivity: 0.131}
	if math.Abs(s.Total()-0.0706) > 0.001 {
		t.Fatalf("total = %v", s.Total())
	}
	m := Measure(1000, 539, 157, 21)
	if math.Abs(m.Selectivity-0.539) > 1e-9 {
		t.Fatalf("selectivity = %v", m.Selectivity)
	}
	if math.Abs(m.Projectivity-21.0/157.0) > 1e-9 {
		t.Fatalf("projectivity = %v", m.Projectivity)
	}
}

func TestMeasureZeroInputs(t *testing.T) {
	m := Measure(0, 0, 0, 10)
	if m.Selectivity != 0 || m.Projectivity != 0 {
		t.Fatal("zero inputs should measure zero")
	}
}

// Property: total is always within [0, 1] for valid measures.
func TestTotalBoundedProperty(t *testing.T) {
	f := func(rowsOut uint16, widthOut uint8) bool {
		in, out := int64(60000), int64(rowsOut)%60001
		wIn, wOut := 200, int(widthOut)%201
		m := Measure(in, out, wIn, wOut)
		tot := m.Total()
		return tot >= 0 && tot <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
