package types

import (
	"testing"
	"testing/quick"
)

func TestDatumConstructorsAndViews(t *testing.T) {
	if d := NewInt64(42); d.Int() != 42 || d.Float() != 42 {
		t.Fatalf("int datum views: %+v", d)
	}
	if d := NewFloat64(2.5); d.Float() != 2.5 {
		t.Fatalf("float datum view: %+v", d)
	}
	if d := NewDate(100); d.Int() != 100 || d.Float() != 100 {
		t.Fatalf("date datum views: %+v", d)
	}
	if d := NewString("abc"); string(d.Bytes()) != "abc" {
		t.Fatalf("char datum view: %+v", d)
	}
}

func TestTrimPad(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc\x00\x00", "abc"},
		{"abc", "abc"},
		{"", ""},
		{"\x00\x00", ""},
		{"a\x00b\x00", "a\x00b"},
	}
	for _, c := range cases {
		if got := string(TrimPad([]byte(c.in))); got != c.want {
			t.Errorf("TrimPad(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCompareNumeric(t *testing.T) {
	if Compare(NewInt64(1), NewInt64(2)) != -1 {
		t.Error("1 < 2")
	}
	if Compare(NewInt64(2), NewInt64(2)) != 0 {
		t.Error("2 == 2")
	}
	if Compare(NewFloat64(1.5), NewInt64(1)) != 1 {
		t.Error("1.5 > 1 (mixed)")
	}
	if Compare(NewInt64(1), NewFloat64(1.5)) != -1 {
		t.Error("1 < 1.5 (mixed)")
	}
	if Compare(NewDate(10), NewDate(11)) != -1 {
		t.Error("date ordering")
	}
}

func TestCompareChar(t *testing.T) {
	// Padding must not affect ordering or equality.
	if Compare(NewChar([]byte("ab\x00\x00")), NewString("ab")) != 0 {
		t.Error("padded == unpadded")
	}
	if Compare(NewString("ab"), NewString("abc")) != -1 {
		t.Error("prefix sorts first")
	}
	if Compare(NewString("b"), NewString("ab")) != 1 {
		t.Error("b > ab")
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(NewInt64(a), NewInt64(b)) == -Compare(NewInt64(b), NewInt64(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDateRoundTrip(t *testing.T) {
	// Every day in the TPC-H date range must round-trip.
	start := ToDays(1992, 1, 1)
	end := ToDays(1998, 12, 31)
	for d := start; d <= end; d++ {
		y, m, day := FromDays(d)
		if back := ToDays(y, m, day); back != d {
			t.Fatalf("day %d -> %04d-%02d-%02d -> %d", d, y, m, day, back)
		}
	}
}

func TestKnownDates(t *testing.T) {
	if d := ToDays(1970, 1, 1); d != 0 {
		t.Errorf("epoch = %d, want 0", d)
	}
	if d := ToDays(1970, 1, 2); d != 1 {
		t.Errorf("epoch+1 = %d, want 1", d)
	}
	if d := ToDays(1995, 3, 15); Year(d) != 1995 {
		t.Errorf("Year(1995-03-15) = %d", Year(d))
	}
	// 1996 was a leap year: Feb has 29 days.
	feb29 := ToDays(1996, 2, 29)
	if y, m, d := FromDays(feb29); y != 1996 || m != 2 || d != 29 {
		t.Errorf("leap day decoded as %04d-%02d-%02d", y, m, d)
	}
}

func TestMix64Distributes(t *testing.T) {
	// Sequential keys must not collide in the low bits (bucket selection).
	seen := map[uint64]bool{}
	for i := int64(0); i < 10000; i++ {
		h := HashInt64(i) & 0xffff
		seen[h] = true
	}
	// With 10k keys over 65536 slots, expect substantial spread; a weak
	// hash (identity) would give exactly 10000 distinct but clustered —
	// check spread over high bits too.
	if len(seen) < 5000 {
		t.Errorf("low-bit spread too small: %d", len(seen))
	}
}

func TestHashPairOrderSensitivity(t *testing.T) {
	if HashPair(1, 2) == HashPair(2, 1) {
		t.Error("HashPair should be order-sensitive")
	}
}

func TestDatumString(t *testing.T) {
	if s := NewDate(ToDays(1995, 3, 15)).String(); s != "1995-03-15" {
		t.Errorf("date string = %q", s)
	}
	if s := NewInt64(-3).String(); s != "-3" {
		t.Errorf("int string = %q", s)
	}
	if s := NewString("hi").String(); s != "hi" {
		t.Errorf("char string = %q", s)
	}
}

func TestHashPairVecMatchesHashPair(t *testing.T) {
	k0 := []int64{0, 1, -1, 1 << 40, 7, 7}
	k1 := []int64{0, 2, -2, 3, 0, 1}
	hs := HashPairVec(k0, k1, nil)
	if len(hs) != len(k0) {
		t.Fatalf("len = %d", len(hs))
	}
	for i := range k0 {
		want := HashPair(k0[i], k1[i])
		if want == 0 {
			want = 1
		}
		if hs[i] != want {
			t.Errorf("HashPairVec[%d] = %#x, want %#x", i, hs[i], want)
		}
	}
	// nil k1 means all-zero second keys.
	hs0 := HashPairVec(k0, nil, nil)
	for i := range k0 {
		want := HashPair(k0[i], 0)
		if want == 0 {
			want = 1
		}
		if hs0[i] != want {
			t.Errorf("single-key HashPairVec[%d] = %#x, want %#x", i, hs0[i], want)
		}
	}
	// Scratch reuse: a big-enough dst is reused, not reallocated.
	dst := make([]uint64, 0, 16)
	hs2 := HashPairVec(k0, k1, dst)
	if &hs2[0] != &dst[:1][0] {
		t.Error("HashPairVec did not reuse dst")
	}
	// Empty input.
	if got := HashPairVec(nil, nil, nil); len(got) != 0 {
		t.Errorf("empty input returned %v", got)
	}
	// No zero hashes (0 tags an empty hash-table slot).
	for i := int64(-5000); i < 5000; i++ {
		if h := HashPairVec([]int64{i}, nil, nil)[0]; h == 0 {
			t.Fatalf("zero hash for key %d", i)
		}
	}
}
