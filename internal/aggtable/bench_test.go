package aggtable

import (
	"testing"

	"repro/internal/types"
)

// benchRows is the rows each benchmark folds: about SF 0.05's lineitem.
const (
	benchRows  = 300_000
	benchBlock = 8192
)

// sinkBytes keeps each benchmark's result alive.
var sinkBytes int64

// benchInput is a lineitem-shaped key column: orders of four lines each,
// their keys spread over four times their count the way TPC-H order keys
// are, so 300 000 rows make 75 000 groups (Q18's per-order SUM).
type benchInput struct {
	k0, k1 []int64
	hashes []uint64
	vals   []float64
}

// newBenchInput makes the rows of a one-key table of groups groups, or of a
// two-key table of four.
func newBenchInput(groups int, twoKeys bool) benchInput {
	in := benchInput{k0: make([]int64, benchRows), vals: make([]float64, benchRows)}
	if twoKeys {
		in.k1 = make([]int64, benchRows)
	}
	for r := range in.k0 {
		o := r * groups / benchRows
		in.k0[r] = int64(o)*4 + 1
		if twoKeys { // Q1: (returnflag, linestatus), four combinations
			in.k0[r], in.k1[r] = int64(r%2), int64(r/7%2)
		}
		in.vals[r] = float64(r%50 + 1)
	}
	in.hashes = types.HashPairVec(in.k0, in.k1, nil)
	return in
}

// fold upserts the input a block at a time and folds vals into every
// column, as an aggregation work order does.
func (in benchInput) fold(tab *Table, lo, hi int, groups []int32) []int32 {
	for at := lo; at < hi; at += benchBlock {
		end := min(at+benchBlock, hi)
		var k1 []int64
		if in.k1 != nil {
			k1 = in.k1[at:end]
		}
		groups = tab.UpsertBlock(in.k0[at:end], k1, in.hashes[at:end], groups)
		for j, a := range tab.aggs {
			if a.Kind == Count {
				tab.AccumCount(j, groups)
			} else {
				tab.AccumFloat(j, groups, in.vals[at:end])
			}
		}
	}
	return groups
}

// q1Aggs are Q1's eight aggregates: four sums, three averages, a count.
var q1Aggs = []Agg{
	{Kind: Sum, Float: true}, {Kind: Sum, Float: true}, {Kind: Sum, Float: true}, {Kind: Sum, Float: true},
	{Kind: Avg, Float: true}, {Kind: Avg, Float: true}, {Kind: Avg, Float: true}, {Kind: Count},
}

// BenchmarkUpsertAccum builds one partial table from 300 000 rows: Q18's
// shape (75 000 groups, one float SUM) and Q1's (4 groups, 8 aggregates).
func BenchmarkUpsertAccum(b *testing.B) {
	for _, c := range []struct {
		name    string
		groups  int
		twoKeys bool
		aggs    []Agg
	}{
		{"q18", 75_000, false, []Agg{{Kind: Sum, Float: true}}},
		{"q1", 4, true, q1Aggs},
	} {
		b.Run(c.name, func(b *testing.B) {
			in := newBenchInput(c.groups, c.twoKeys)
			var groups []int32
			for range b.N {
				tab := New(0, c.twoKeys, 256).Layout(c.aggs)
				groups = in.fold(tab, 0, benchRows, groups)
				sinkBytes = tab.Bytes()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
			b.ReportMetric(float64(sinkBytes), "table-B")
		})
	}
}

// BenchmarkMergePartition merges two Q18-shaped partials, each fed every
// other block of the input, over 16 radix partitions into fresh tables, as
// the 16 merge work orders of an aggregation at Workers 2 do.
func BenchmarkMergePartition(b *testing.B) {
	in := newBenchInput(75_000, false)
	aggs := []Agg{{Kind: Sum, Float: true}}
	parts := []*Table{New(0, false, 256).Layout(aggs), New(0, false, 256).Layout(aggs)}
	var groups []int32
	for i, at := 0, 0; at < benchRows; i, at = i+1, at+benchBlock {
		groups = in.fold(parts[i%2], at, min(at+benchBlock, benchRows), groups)
	}
	pr := types.NewPartitioner(16)
	n := parts[0].Len() + parts[1].Len()
	b.ResetTimer()
	for range b.N {
		for p := range pr.Parts() {
			dst := parts[0].NewLike(n/pr.Parts() + 16)
			for _, src := range parts {
				dst.MergePartition(src, p, pr, aggs)
			}
			sinkBytes = dst.Bytes()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/group")
}
