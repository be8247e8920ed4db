// Package costmodel implements the paper's analytical model (Section V): the
// extra work incurred at the two ends of the UoT spectrum for a
// select→probe producer/consumer pair, the Eq. 1 cost ratio, and the
// persistent-store variant of Section V-C. The model deliberately counts
// only cost *differences* between the strategies; work common to both (e.g.
// the probe itself) is excluded, exactly as in the paper.
package costmodel

// Params mirrors Table I. Per-line costs are in ticks (≈ns) per 64-byte
// cache line; per-event costs are in ticks.
type Params struct {
	// B is the UoT size in bytes; T is the number of worker threads.
	B int64
	T int

	// L3Bytes and LineBytes describe the shared cache.
	L3Bytes   int64
	LineBytes int64

	// ARL3Line is the amortized per-line cost of a prefetched sequential
	// read (AR_L3 per line). A single-UoT read (R_L3) pays one extra miss
	// on top: the prefetcher locks onto the stream after the first miss,
	// so AR_L3 << R_L3 only in the per-event sense, while both remain
	// proportional to B — exactly the relationship Section V-A relies on.
	ARL3Line int64
	// WMemLine is the per-line cost of writing materialized output back to
	// memory (W_mem per line).
	WMemLine int64
	// ML3 is the penalty of one L3 miss event when a UoT's access is
	// disrupted (M_L3).
	ML3 int64
	// IC is the instruction-cache cost of one work-order context switch.
	IC int64

	// P1 is the probability that a probe-input read misses L3 after the
	// random hash-table accesses disrupt the sequential stream (high-UoT
	// term); P2 is the probability that the select operator misses L3
	// after the context switch back from the probe (low-UoT term).
	P1 float64
	P2 float64

	// NProbeIn is the number of probe-input UoTs (= N_select_out, as the
	// paper observes).
	NProbeIn int64
}

// Default returns parameters matching the cachesim defaults and the paper's
// Haswell platform: 25 MB L3, 64 B lines.
func Default(B int64, T int) Params {
	return Params{
		B: B, T: T,
		L3Bytes: 25 << 20, LineBytes: 64,
		ARL3Line: 8, WMemLine: 25, ML3: 90, IC: 2000,
		P1: 0.5, P2: 0.5,
		NProbeIn: 1000,
	}
}

func (p Params) lines() float64 {
	if p.LineBytes == 0 {
		return float64(p.B)
	}
	return float64(p.B) / float64(p.LineBytes)
}

// RL3 is the cost of reading one UoT from memory on its own: an initial
// miss, then the prefetcher streams the rest.
func (p Params) RL3() float64 { return float64(p.ML3) + p.lines()*float64(p.ARL3Line) }

// ARL3 is the amortized cost of reading one UoT sequentially with the
// prefetcher engaged.
func (p Params) ARL3() float64 { return p.lines() * float64(p.ARL3Line) }

// WMem is the cost of writing one UoT of materialized output to memory.
func (p Params) WMem() float64 { return p.lines() * float64(p.WMemLine) }

// P1Prime is min(1, 2BT / |L3|): the likelihood that a probe input written
// by the producer has been evicted before the consumer reads it, because T
// threads each keep ~2 UoTs (input + output) live in the shared L3.
func (p Params) P1Prime() float64 {
	v := 2 * float64(p.B) * float64(p.T) / float64(p.L3Bytes)
	if v > 1 {
		return 1
	}
	return v
}

// HighUoTExtra is the additional work of the non-pipelining strategy:
//
//	W_mem·N_out + AR_L3·N_in + p1·N_in·M_L3
func (p Params) HighUoTExtra() float64 {
	n := float64(p.NProbeIn)
	return p.WMem()*n + p.ARL3()*n + p.P1*n*float64(p.ML3)
}

// LowUoTExtra is the additional work of the pipelining strategy:
//
//	(N_out+N_in)·IC + p2·N_in·(M_L3+R_L3) + p1'·(M_L3+R_L3+W_mem)·N_in
func (p Params) LowUoTExtra() float64 {
	n := float64(p.NProbeIn)
	return 2*n*float64(p.IC) +
		p.P2*n*(float64(p.ML3)+p.RL3()) +
		p.P1Prime()*(float64(p.ML3)+p.RL3()+p.WMem())*n
}

// Ratio is Eq. 1: HighUoTExtra / LowUoTExtra with the IC terms dropped (the
// paper drops them because they are negligible at multi-megabyte UoTs). A
// ratio near 1 means the two strategies are equivalent; above 1 means the
// pipelining (low-UoT) strategy has the advantage.
func (p Params) Ratio() float64 {
	num := p.ARL3() + p.WMem() + p.P1*float64(p.ML3)
	den := p.P2*(float64(p.ML3)+p.RL3()) + p.P1Prime()*(float64(p.ML3)+p.RL3()+p.WMem())
	return num / den
}

// HighRegime returns p with the probability assignments the paper argues for
// at high UoT values (size > |L3| / 2T): p1' saturates at 1 via B, p2 low.
func (p Params) HighRegime() Params {
	p.P1 = 0.8
	p.P2 = 0.1
	return p
}

// LowRegime returns p with the low-UoT assignments: p2 close to 1 (storage
// management overhead disrupts the select's stream), p1 moderate.
func (p Params) LowRegime() Params {
	p.P1 = 0.3
	p.P2 = 0.9
	return p
}

// DefaultStatefulBytes is the admission estimator's footprint for one
// stateful operator (hash-table build, aggregation, sort). The estimator has
// no cardinality model (memmodel.HashTableSize is the Section VI one), so the
// figure is fixed, and deliberately conservative for the small-to-medium
// scale factors the serving experiments run at.
const DefaultStatefulBytes = 4 << 20

// maxEstimatedUoT clamps per-edge UoT values in the admission estimate: an
// edge at UoTTable buffers the whole intermediate table, which the estimator
// cannot bound, so it charges a deep-but-finite backlog instead.
const maxEstimatedUoT = 64

// QueryMemory estimates the peak temporary-block memory of one query, the
// figure the admission controller charges against the global budget. It is
// a structural upper-sketch, not a cardinality model: every pipelined edge
// may hold up to its UoT threshold in buffered blocks awaiting delivery,
// every in-flight work order holds one output block being filled, and every
// stateful operator (build, agg, sort) keeps materialized state.
//
// edgeUoTs are the resolved per-edge UoT thresholds in blocks (see
// core.ResolveUoT); workers is the query's in-flight work-order cap;
// blockBytes the temp-block size; statefulOps the count of state-keeping
// operators, each charged DefaultStatefulBytes.
func QueryMemory(edgeUoTs []int, workers int, blockBytes int64, statefulOps int) int64 {
	if workers < 1 {
		workers = 1
	}
	if blockBytes <= 0 {
		blockBytes = 128 << 10
	}
	buffered := int64(0)
	for _, u := range edgeUoTs {
		if u <= 0 {
			u = 1
		}
		if u > maxEstimatedUoT {
			u = maxEstimatedUoT
		}
		buffered += int64(u)
	}
	return (buffered+int64(workers))*blockBytes + int64(statefulOps)*DefaultStatefulBytes
}

// SpillRAMClamp is the per-edge UoT clamp of the RAM-resident share of a
// spilling query's estimate. Once the spill tier is on, a deep edge backlog
// does not have to be resident: only a few blocks per edge — the ones being
// filled, delivered, or faulted in — must live in RAM at once, and the rest
// of the 64-block charge (maxEstimatedUoT) can sit on disk. Four blocks per
// edge is the pin window the scheduler actually needs: current output,
// in-delivery group, plus slack for a fault-in racing an eviction.
const SpillRAMClamp = 4

// QueryMemorySplit is QueryMemory split into the bytes that must stay
// RAM-resident under a spill tier and the bytes the tier may keep on disk.
// The invariant ram+spillable == QueryMemory(...) holds for every input: the
// split only re-labels the per-edge backlog charge above SpillRAMClamp, it
// never changes the total. Admission with spill enabled charges ram against
// the memory budget and spillable against the disk budget, fixing the
// double-count where a spilling query was shed because its full 64-block
// UoT clamp was held against RAM it will never occupy.
func QueryMemorySplit(edgeUoTs []int, workers int, blockBytes int64, statefulOps int) (ram, spillable int64) {
	if blockBytes <= 0 {
		blockBytes = 128 << 10
	}
	for _, u := range edgeUoTs {
		if u <= 0 {
			u = 1
		}
		if u > maxEstimatedUoT {
			u = maxEstimatedUoT
		}
		if u > SpillRAMClamp {
			spillable += int64(u-SpillRAMClamp) * blockBytes
		}
	}
	total := QueryMemory(edgeUoTs, workers, blockBytes, statefulOps)
	return total - spillable, spillable
}

// StoreParams models the persistent-store setting of Section V-C, where the
// hash table stays in the buffer pool (p1 ≈ p2 ≈ 0) and UoT reads/writes hit
// the storage device.
type StoreParams struct {
	// RStore and WStore are the costs of reading/writing one UoT from/to
	// the persistent store, in ticks.
	RStore, WStore int64
	// IC is the instruction-cache switch cost.
	IC int64
	// NProbeIn is the number of probe-input UoTs.
	NProbeIn int64
}

// DefaultStore models a 128 KB UoT on an SSD-class device: ~200 µs per UoT
// read/write.
func DefaultStore(nUoTs int64) StoreParams {
	return StoreParams{RStore: 200_000, WStore: 250_000, IC: 2000, NProbeIn: nUoTs}
}

// HighUoTExtra is R_store·N_in + W_store·N_out (seconds for thousands of
// UoTs).
func (s StoreParams) HighUoTExtra() float64 {
	return float64(s.NProbeIn) * float64(s.RStore+s.WStore)
}

// LowUoTExtra is (N_in+N_out)·IC (microseconds for thousands of UoTs).
func (s StoreParams) LowUoTExtra() float64 {
	return 2 * float64(s.NProbeIn) * float64(s.IC)
}

// Advantage is the non-pipelining extra cost divided by the pipelining extra
// cost — the factor by which pipelining wins in the disk setting.
func (s StoreParams) Advantage() float64 { return s.HighUoTExtra() / s.LowUoTExtra() }

// RecomputeCost estimates the ticks to recompute a materialized
// intermediate of the given byte size produced by a subplan of nOps
// operators: every operator level at minimum streams its input in
// (prefetched sequential read, AR_L3 per line) and writes its output back
// to memory (W_mem per line), so the floor is nOps read+write passes over
// the result's bytes. Deliberately a conservative lower bound — hash
// probes, aggregations, and sorts cost strictly more — used by
// internal/reuse as the Dursun-style benefit numerator (recompute ticks
// saved per cached byte).
func RecomputeCost(bytes int64, nOps int) float64 {
	if bytes <= 0 {
		return 0
	}
	if nOps < 1 {
		nOps = 1
	}
	p := Default(bytes, 1)
	lines := float64(bytes) / float64(p.LineBytes)
	return float64(nOps) * lines * float64(p.ARL3Line+p.WMemLine)
}
