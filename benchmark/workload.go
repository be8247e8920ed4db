package main

// The workload generator: (workload, seed, client count) → per-round request
// lists and cache-invalidation points. It is pure — no clock, no engine, no
// shared state — so the same arguments always give the same requests, and
// the engine sees nothing of the seed but the generated lists.

import "sort"

// The four workloads. Each stresses a different set of layers; see
// README.md for why each one exists.
const (
	TPCHPipelined = "tpch_pipelined"
	TPCHBlocking  = "tpch_blocking"
	ServeSpill    = "serve_spill"
	ServeReuse    = "serve_reuse"
)

var workloadNames = []string{TPCHPipelined, TPCHBlocking, ServeSpill, ServeReuse}

// numQueries is the size of the TPC-H query set; a round is one pass of
// numQueries requests per client.
const numQueries = 22

// reuseBumpEvery is K: client 0 of serve_reuse bumps the version of `orders`
// before every K-th of its submissions, counted across rounds. Chosen once so
// the root-hit ratio lands in 0.25–0.40 (see README.md); a constant, not a
// knob.
const reuseBumpEvery = 2

// reuseRank orders the 22 queries by popularity for serve_reuse, most
// popular first. The order is fixed, not seeded: a seeded ranking would put a
// 190 ms query on top for one seed and a 4 ms query for the next, and runs
// with different seeds could not be compared. The four most popular queries
// read `orders`, so the writer invalidates them; the ten that do not (6, 14,
// 19, 1, 15, 17, 2, 20, 11, 16) always hit once filled and sit further down,
// where together they make about a fifth of the requests.
var reuseRank = [numQueries]int{3, 10, 12, 4, 6, 5, 13, 14, 18, 19, 7, 1, 8, 15, 22, 17, 9, 2, 21, 20, 11, 16}

// Round is one pass of every client over its request list.
type Round struct {
	// Clients[c] is client c's TPC-H query numbers in submission order.
	Clients [][]int
	// Bump[i] reports that client 0 bumps the version of `orders` just
	// before its i-th submission of the round. Nil except on serve_reuse.
	Bump []bool
}

// Generator produces the rounds of one workload for one seed.
type Generator struct {
	Workload string
	Seed     uint64
	Clients  int
}

// Round returns round r (0 is the warm-up round). It depends only on the
// generator's fields and r, never on which rounds were asked for before.
func (g Generator) Round(r int) Round {
	switch g.Workload {
	case ServeReuse:
		return g.reuseRound(r)
	default:
		rd := Round{Clients: make([][]int, g.Clients)}
		for c := range rd.Clients {
			qs := make([]int, numQueries)
			for i := range qs {
				qs[i] = i + 1
			}
			g.rng(r, c).shuffle(qs)
			rd.Clients[c] = qs
		}
		return rd
	}
}

// reuseRound deals a Zipf(1.0)-shaped multiset of Clients×22 requests over
// reuseRank. The multiset is the same every round (counts apportioned by
// largest remainder, not drawn), so the seed changes who asks for what and
// when, not how much work a round holds.
func (g Generator) reuseRound(r int) Round {
	total := g.Clients * numQueries
	deck := make([]int, 0, total)
	for rank, n := range zipfCounts(numQueries, total) {
		for i := 0; i < n; i++ {
			deck = append(deck, reuseRank[rank])
		}
	}
	g.rng(r, -1).shuffle(deck)
	rd := Round{Clients: make([][]int, g.Clients), Bump: make([]bool, numQueries)}
	for c := range rd.Clients {
		rd.Clients[c] = deck[c*numQueries : (c+1)*numQueries]
	}
	for i := range rd.Bump {
		n := r*numQueries + i // client 0's submission count so far
		rd.Bump[i] = n > 0 && n%reuseBumpEvery == 0
	}
	return rd
}

// zipfCounts apportions total requests over n ranks with weights 1/rank by
// the largest-remainder method.
func zipfCounts(n, total int) []int {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := total
	for i := range counts {
		want := float64(total) / (h * float64(i+1))
		counts[i] = int(want)
		rem[i] = want - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; i < left; i++ {
		counts[order[i]]++
	}
	return counts
}

// rng is the stream of one (round, client). The workload is not part of it:
// tpch_pipelined and tpch_blocking must run the same lists, so that nothing
// but the UoT differs between them.
func (g Generator) rng(round, client int) *rng {
	return newRNG(g.Seed, uint64(round), uint64(int64(client)))
}

// rng is splitmix64: tiny, and its sequence can never change under us the
// way a library generator's might.
type rng uint64

func newRNG(parts ...uint64) *rng {
	var r rng
	for _, p := range parts {
		r = rng(r.next() ^ p)
	}
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shuffle is Fisher–Yates.
func (r *rng) shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}
