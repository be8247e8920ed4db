// Package memmodel implements the paper's memory-footprint analysis
// (Section VI): the Table II comparison between the two UoT extremes for a
// selection→probe-cascade plan fragment, the (M/w)·(c/f) hash-table size
// model and its dense-index alternative, and the selectivity/projectivity accounting behind Tables III
// and IV.
package memmodel

// LowUoTOverhead is the memory overhead of the pipelining strategy for a
// cascade of n probes: every hash table except the current one must be live
// at once, so the overhead relative to "one join at a time" is Σ_{i=2..n}
// |H_i| (Table II).
func LowUoTOverhead(hashTableBytes []int64) int64 {
	var sum int64
	for i, h := range hashTableBytes {
		if i == 0 {
			continue
		}
		sum += h
	}
	return sum
}

// HighUoTOverhead is the memory overhead of the blocking strategy: the
// materialized selection output |σ(R)| (Table II).
func HighUoTOverhead(selectionOutputBytes int64) int64 { return selectionOutputBytes }

// HashTableSize is the Section VI-B model: a table over M input bytes of
// w-byte tuples with c-byte buckets at load factor f occupies (M/w)·(c/f)
// bytes.
func HashTableSize(inputBytes int64, tupleWidth int, bucketBytes int, loadFactor float64) int64 {
	if tupleWidth <= 0 || loadFactor <= 0 {
		return 0
	}
	entries := float64(inputBytes) / float64(tupleWidth)
	return int64(entries * float64(bucketBytes) / loadFactor)
}

// DenseIndexSize is the Section VI-B cost of a dense join index, the
// alternative to c/f buckets when a table's one key spans a small range: an
// o-byte offset per key of the range plus an e-byte entry ref per entry,
// keyRange·o + entries·e bytes.
func DenseIndexSize(entries, keyRange int64, offsetBytes, refBytes int) int64 {
	return keyRange*int64(offsetBytes) + entries*int64(refBytes)
}

// SelectStats captures how a selection shrinks its input (Section VI-A).
type SelectStats struct {
	// Selectivity is s = N_s / N: the fraction of rows that pass.
	Selectivity float64
	// Projectivity is p = C_s / C: the fraction of the tuple width that is
	// projected.
	Projectivity float64
}

// Measure derives the stats from observed row counts and schema widths.
func Measure(rowsIn, rowsOut int64, inWidth, outWidth int) SelectStats {
	var s SelectStats
	if rowsIn > 0 {
		s.Selectivity = float64(rowsOut) / float64(rowsIn)
	}
	if inWidth > 0 {
		s.Projectivity = float64(outWidth) / float64(inWidth)
	}
	return s
}

// Total is the materialized-intermediate size relative to the base table:
// s·p (the "Total" column of Tables III and IV).
func (s SelectStats) Total() float64 { return s.Selectivity * s.Projectivity }
