// Package bloom implements a blocked bloom filter used for lookahead
// information passing (LIP) [Zhu et al., VLDB 2017]: build-side join keys
// populate the filter, and the filter is pushed sideways into the probe-side
// select operator so non-joining tuples are dropped before materialization.
// This reproduces the Section VI-C discussion: LIP cuts the size of
// materialized intermediates by an order of magnitude on queries like Q07.
package bloom

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/types"
)

// Filter is a blocked bloom filter over 64-bit keys. Each key sets k bits
// within one 64-byte (512-bit) block chosen by the high hash bits, keeping
// each membership test within a single cache line. Adds use lock-free atomic
// ORs on the block words, so concurrent build work orders populate the
// filter without any external mutex; probes are plain atomic loads and may
// run concurrently with the build.
type Filter struct {
	blocks []uint64 // 8 words per 512-bit block
	mask   uint64   // block index mask
	k      int
}

// New sizes a filter for n expected keys at roughly bitsPerKey bits each
// (10 bits/key ≈ 1% false-positive rate). k is fixed at 6.
func New(n int, bitsPerKey int) *Filter {
	if n < 1 {
		n = 1
	}
	if bitsPerKey < 1 {
		bitsPerKey = 10
	}
	bits := n * bitsPerKey
	nBlocks := nextPow2((bits + 511) / 512)
	return &Filter{blocks: make([]uint64, nBlocks*8), mask: uint64(nBlocks - 1), k: 6}
}

// orWord ORs v into *p atomically, skipping the CAS when every bit is
// already set (the common case once the filter warms up).
func orWord(p *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if old&v == v {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, old|v) {
			return
		}
	}
}

// Add inserts a key. Safe for concurrent use with other Adds and with
// MayContain.
func (f *Filter) Add(key int64) {
	h := types.HashInt64(key)
	base := (h & f.mask) * 8
	// Derive k bit positions within the 512-bit block from two independent
	// 9-bit streams (double hashing).
	h1 := (h >> 16) & 511
	h2 := ((h >> 32) & 511) | 1
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) & 511
		orWord(&f.blocks[base+bit/64], 1<<(bit%64))
	}
}

// AddMany inserts a batch of keys (a join build's bloom work order hands
// over a chunk of its table source's first keys at once). Bits landing in
// the same word of a key's cache-line block are coalesced into one atomic
// OR, so a k=6 add issues at most 6 — typically fewer — atomics per key and
// zero when the block is already saturated.
func (f *Filter) AddMany(keys []int64) {
	words, mask, k := f.blocks, f.mask, f.k
	for _, key := range keys {
		h := types.HashInt64(key)
		base := (h & mask) * 8
		h1 := (h >> 16) & 511
		h2 := ((h >> 32) & 511) | 1
		var masks [8]uint64
		var dirty uint8
		for i := 0; i < k; i++ {
			bit := (h1 + uint64(i)*h2) & 511
			w := bit >> 6
			masks[w] |= 1 << (bit & 63)
			dirty |= 1 << w
		}
		// Walk only the touched words (no data-dependent branch per word).
		for dirty != 0 {
			w := uint64(bits.TrailingZeros8(dirty))
			dirty &= dirty - 1
			orWord(&words[base+w], masks[w])
		}
	}
}

// MayContain reports whether the key might have been added; false means
// definitely absent. Safe for concurrent use with Add.
func (f *Filter) MayContain(key int64) bool {
	h := types.HashInt64(key)
	base := (h & f.mask) * 8
	h1 := (h >> 16) & 511
	h2 := ((h >> 32) & 511) | 1
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) & 511
		if atomic.LoadUint64(&f.blocks[base+bit/64])&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Bytes returns the filter's memory footprint.
func (f *Filter) Bytes() int64 { return int64(len(f.blocks) * 8) }

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
