package types

// Hashing for join keys and group-by keys. The engine keys hash tables on
// 64-bit mixes; splitmix64 is fast, stateless, and has full avalanche, which
// keeps linear-probing clusters short.

// Mix64 applies the splitmix64 finalizer to x.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashInt64 hashes a single integer key.
func HashInt64(v int64) uint64 { return Mix64(uint64(v)) }

// HashPair hashes a composite two-integer key.
func HashPair(a, b int64) uint64 {
	return Mix64(Mix64(uint64(a)) ^ uint64(b)*0x9e3779b97f4a7c15)
}

// HashPairVec hashes the composite keys (k0[i], k1[i]) into dst, reusing
// dst's backing array when it is large enough (block-granular batch hashing
// for the join build/probe kernels). k1 may be nil, meaning all-zero second
// keys — equivalent to HashPair(k0[i], 0) — so single-key tables avoid
// materializing a zero column. Hash values of 0 are forced to 1, so the
// output is usable directly as hash-table slot tags (0 = empty slot).
func HashPairVec(k0, k1 []int64, dst []uint64) []uint64 {
	n := len(k0)
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	if k1 == nil {
		for i, a := range k0 {
			h := Mix64(Mix64(uint64(a)))
			if h == 0 {
				h = 1
			}
			dst[i] = h
		}
		return dst
	}
	_ = k1[n-1]
	for i, a := range k0 {
		h := Mix64(Mix64(uint64(a)) ^ uint64(k1[i])*0x9e3779b97f4a7c15)
		if h == 0 {
			h = 1
		}
		dst[i] = h
	}
	return dst
}

// Radix returns the radix partition of a hash value: its top `bits` bits.
// Partition bits are taken from the top of the hash so they are independent
// of both the hash-table slot index (low bits) and the join shard selector
// (bits 48..53); the parallel aggregation merge fans out one work order per
// partition.
func Radix(h uint64, bits uint) uint64 { return h >> (64 - bits) }

// PartitionBits returns the number of top hash bits needed to address parts
// radix partitions: the smallest b with 1<<b >= parts (0 for parts <= 1).
func PartitionBits(parts int) uint {
	bits := uint(0)
	for 1<<bits < parts {
		bits++
	}
	return bits
}

// Partitioner maps hash values onto a fixed set of radix partitions, so
// callers configure a partition *count* instead of hand-computing top-bit
// shifts at every site. The count is rounded up to a power of two (radix
// partitioning is top-bits based); Parts reports the effective count.
//
// The zero value and NewPartitioner(1) are the single-partition identity:
// every hash maps to partition 0 — which also makes it the "match all
// partitions" filter for merge kernels that test Of(h) == part.
type Partitioner struct {
	bits uint
	mask uint64
}

// NewPartitioner returns a partitioner over parts radix partitions, rounded
// up to a power of two (minimum 1).
func NewPartitioner(parts int) Partitioner {
	bits := PartitionBits(parts)
	return Partitioner{bits: bits, mask: 1<<bits - 1}
}

// Of returns the partition of hash value h: its top log2(Parts()) bits.
// Consistent with Radix(h, PartitionBits(parts)).
func (p Partitioner) Of(h uint64) int { return int((h >> (64 - p.bits)) & p.mask) }

// Parts returns the effective (power-of-two) partition count.
func (p Partitioner) Parts() int { return 1 << p.bits }

// HashBytes hashes a byte string (FNV-1a folded through Mix64).
func HashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return Mix64(h)
}
