package faults

import (
	"errors"
	"sync"
	"testing"
)

// drive consults every site n times from g goroutines and returns the fired
// events (via the injector's own log).
func drive(in *Injector, n int, g int) {
	var wg sync.WaitGroup
	per := n / g
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for _, s := range Sites() {
					func() {
						defer func() { recover() }() // swallow KindPanic
						_ = in.At(s)
					}()
				}
			}
		}()
	}
	wg.Wait()
}

func scheduleKey(evs []Event) map[Event]int {
	m := make(map[Event]int, len(evs))
	for _, e := range evs {
		m[e]++
	}
	return m
}

func TestSameSeedSameSchedule(t *testing.T) {
	mk := func() *Injector {
		return New(Config{Seed: 42, Rate: 0.05, Kinds: []Kind{KindError}})
	}
	a, b := mk(), mk()
	drive(a, 4096, 1)
	drive(b, 4096, 1)
	sa, sb := a.Schedule(), b.Schedule()
	if len(sa) == 0 {
		t.Fatal("no faults fired at 5% over 4096 consultations")
	}
	if len(sa) != len(sb) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

func TestDecisionSetIndependentOfConcurrency(t *testing.T) {
	// The decision for consultation n of a site is a pure function of
	// (seed, site, n): the multiset of fired events must not depend on how
	// many goroutines consult the sites.
	a := New(Config{Seed: 7, Rate: 0.03})
	b := New(Config{Seed: 7, Rate: 0.03})
	drive(a, 4096, 1)
	drive(b, 4096, 8)
	sa, sb := scheduleKey(a.Schedule()), scheduleKey(b.Schedule())
	if len(sa) != len(sb) {
		t.Fatalf("distinct events differ: %d vs %d", len(sa), len(sb))
	}
	for e, n := range sa {
		if sb[e] != n {
			t.Fatalf("event %+v count %d vs %d", e, n, sb[e])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(Config{Seed: 1, Rate: 0.05, Kinds: []Kind{KindError}})
	b := New(Config{Seed: 2, Rate: 0.05, Kinds: []Kind{KindError}})
	drive(a, 4096, 1)
	drive(b, 4096, 1)
	sa, sb := a.Schedule(), b.Schedule()
	if len(sa) == len(sb) {
		same := true
		for i := range sa {
			if sa[i] != sb[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 1 and 2 produced identical schedules")
		}
	}
}

func TestRateRoughlyRespected(t *testing.T) {
	in := New(Config{Seed: 9, Rate: 0.01, Kinds: []Kind{KindError}})
	const n = 100_000
	fired := 0
	for i := 0; i < n; i++ {
		if in.At(HashInsert) != nil {
			fired++
		}
	}
	// 1% of 100k = 1000 expected; accept a generous ±50% band.
	if fired < 500 || fired > 1500 {
		t.Fatalf("fired %d/%d at rate 0.01", fired, n)
	}
}

func TestZeroRateNeverFires(t *testing.T) {
	in := New(Config{Seed: 3})
	drive(in, 2048, 2)
	if got := in.Injected(); got != 0 {
		t.Fatalf("zero-rate injector fired %d faults", got)
	}
}

func TestPerSiteRateOverride(t *testing.T) {
	in := New(Config{
		Seed:  11,
		Rate:  0,
		Rates: map[Site]float64{AggUpsert: 1},
		Kinds: []Kind{KindError},
	})
	if err := in.At(HashInsert); err != nil {
		t.Fatalf("rate-0 site fired: %v", err)
	}
	if err := in.At(AggUpsert); err == nil {
		t.Fatal("rate-1 site did not fire")
	}
}

func TestReplayReproducesSchedule(t *testing.T) {
	in := New(Config{Seed: 5, Rate: 0.1})
	drive(in, 1024, 1)
	want := in.Schedule()
	if len(want) == 0 {
		t.Fatal("nothing fired")
	}

	rp := Replay(want)
	drive(rp, 1024, 1)
	got := rp.Schedule()
	if len(got) != len(want) {
		t.Fatalf("replay fired %d events, want %d", len(got), len(want))
	}
	wm, gm := scheduleKey(want), scheduleKey(got)
	for e, n := range wm {
		if gm[e] != n {
			t.Fatalf("replay event %+v count %d vs %d", e, gm[e], n)
		}
	}
}

func TestFaultIsTransientError(t *testing.T) {
	in := New(Config{Seed: 1, Rate: 1, Kinds: []Kind{KindAlloc}})
	err := in.At(AggUpsert)
	if err == nil {
		t.Fatal("rate-1 injector returned nil")
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error is %T, want *Fault", err)
	}
	if !f.Transient() {
		t.Fatal("injected fault not transient")
	}
	if f.Kind != KindAlloc || f.Site != AggUpsert {
		t.Fatalf("fault = %+v", f)
	}
}

func TestPanicKindPanicsWithFault(t *testing.T) {
	in := New(Config{Seed: 1, Rate: 1, Kinds: []Kind{KindPanic}})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if _, ok := r.(*Fault); !ok {
			t.Fatalf("panic value is %T, want *Fault", r)
		}
	}()
	_ = in.At(BlockMaterialize)
}
