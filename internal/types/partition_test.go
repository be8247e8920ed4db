package types

import "testing"

func TestPartitionBits(t *testing.T) {
	cases := []struct {
		parts int
		bits  uint
	}{
		{-1, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{8, 3}, {9, 4}, {16, 4}, {64, 6}, {1024, 10},
	}
	for _, c := range cases {
		if got := PartitionBits(c.parts); got != c.bits {
			t.Errorf("PartitionBits(%d) = %d, want %d", c.parts, got, c.bits)
		}
	}
}

func TestPartitionerRange(t *testing.T) {
	for _, parts := range []int{0, 1, 2, 3, 7, 8, 16, 64} {
		p := NewPartitioner(parts)
		want := 1
		for want < parts {
			want <<= 1
		}
		if p.Parts() != want {
			t.Fatalf("NewPartitioner(%d).Parts() = %d, want %d", parts, p.Parts(), want)
		}
		seen := make(map[int]bool)
		for i := 0; i < 100000; i++ {
			h := Mix64(uint64(i))
			got := p.Of(h)
			if got < 0 || got >= p.Parts() {
				t.Fatalf("parts=%d: Of(%#x) = %d out of range [0,%d)", parts, h, got, p.Parts())
			}
			seen[got] = true
		}
		if len(seen) != p.Parts() {
			t.Errorf("parts=%d: only %d of %d partitions hit over 100k hashes", parts, len(seen), p.Parts())
		}
	}
}

// The partitioner must agree with the hand-rolled top-bits Radix it replaces.
func TestPartitionerMatchesRadix(t *testing.T) {
	for _, parts := range []int{1, 2, 4, 8, 16, 64} {
		p := NewPartitioner(parts)
		bits := PartitionBits(parts)
		for i := 0; i < 4096; i++ {
			h := Mix64(uint64(i) * 0x9e3779b97f4a7c15)
			if got, want := uint64(p.Of(h)), Radix(h, bits); got != want {
				t.Fatalf("parts=%d: Of(%#x) = %d, Radix = %d", parts, h, got, want)
			}
		}
	}
}

// The zero value is the single-partition identity: it maps every hash to 0,
// which is what merge kernels rely on to mean "all partitions".
func TestPartitionerZeroValue(t *testing.T) {
	var p Partitioner
	if p.Parts() != 1 || p != NewPartitioner(1) {
		t.Fatalf("zero Partitioner: Parts=%d, or it differs from NewPartitioner(1)", p.Parts())
	}
	for _, h := range []uint64{0, 1, ^uint64(0), 0x8000000000000000} {
		if p.Of(h) != 0 {
			t.Fatalf("zero Partitioner.Of(%#x) = %d, want 0", h, p.Of(h))
		}
	}
}
