package main

import (
	"reflect"
	"sort"
	"testing"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a := Generator{Workload: w, Seed: 7, Clients: 3}
		b := Generator{Workload: w, Seed: 7, Clients: 3}
		// Ask b for its rounds in another order: a round depends on its
		// index only.
		later := b.Round(5)
		for r := 0; r < 5; r++ {
			if !reflect.DeepEqual(a.Round(r), b.Round(r)) {
				t.Errorf("%s: round %d differs between two generators with the same seed", w, r)
			}
		}
		if !reflect.DeepEqual(a.Round(5), later) {
			t.Errorf("%s: round 5 depends on the rounds asked for before it", w)
		}
		other := Generator{Workload: w, Seed: 8, Clients: 3}
		if reflect.DeepEqual(a.Round(1), other.Round(1)) {
			t.Errorf("%s: seeds 7 and 8 give the same round", w)
		}
	}
}

// The two ends of the UoT spectrum differ in the UoT and in nothing else.
func TestTPCHWorkloadsRunTheSameLists(t *testing.T) {
	a := Generator{Workload: TPCHPipelined, Seed: 3, Clients: 1}
	b := Generator{Workload: TPCHBlocking, Seed: 3, Clients: 1}
	for r := 0; r < 3; r++ {
		if !reflect.DeepEqual(a.Round(r), b.Round(r)) {
			t.Errorf("round %d: tpch_pipelined and tpch_blocking run different lists", r)
		}
	}
}

func TestRoundsHoldTheSameWork(t *testing.T) {
	for _, w := range workloadNames {
		var want []int
		for seed := uint64(1); seed <= 3; seed++ {
			g := Generator{Workload: w, Seed: seed, Clients: 2}
			for r := 0; r < 3; r++ {
				rd := g.Round(r)
				var all []int
				for _, list := range rd.Clients {
					if len(list) != numQueries {
						t.Fatalf("%s: a client has %d requests, want %d", w, len(list), numQueries)
					}
					all = append(all, list...)
				}
				sort.Ints(all)
				if want == nil {
					want = all
				} else if !reflect.DeepEqual(all, want) {
					t.Errorf("%s seed %d round %d: the multiset of queries changed", w, seed, r)
				}
				if (rd.Bump != nil) != (w == ServeReuse) {
					t.Errorf("%s: invalidation points present = %v", w, rd.Bump != nil)
				}
			}
		}
	}
}

func TestZipfCounts(t *testing.T) {
	counts := zipfCounts(numQueries, 2*numQueries)
	sum := 0
	for i, c := range counts {
		sum += c
		if i > 0 && c > counts[i-1] {
			t.Errorf("rank %d is asked for more often (%d) than rank %d (%d)", i+1, c, i, counts[i-1])
		}
	}
	if sum != 2*numQueries {
		t.Errorf("counts sum to %d, want %d", sum, 2*numQueries)
	}
	if counts[0] < 3*counts[3] {
		t.Errorf("counts %v are not Zipf-shaped: rank 1 should be about 4× rank 4", counts)
	}
}

func TestBumpsFollowSubmissionCount(t *testing.T) {
	g := Generator{Workload: ServeReuse, Seed: 1, Clients: 2}
	n := 0
	for r := 0; r < 4; r++ {
		for i, bump := range g.Round(r).Bump {
			sub := r*numQueries + i
			if want := sub > 0 && sub%reuseBumpEvery == 0; bump != want {
				t.Fatalf("round %d submission %d: bump = %v, want %v", r, i, bump, want)
			}
			if bump {
				n++
			}
		}
	}
	if want := (4*numQueries - 1) / reuseBumpEvery; n != want {
		t.Errorf("%d bumps in 4 rounds, want %d", n, want)
	}
}
