package main

import (
	"math"
	"reflect"
	"testing"
)

func names(progs []program) []string {
	out := make([]string, len(progs))
	for i, p := range progs {
		out[i] = p.Name
	}
	return out
}

func pairNames(ps []pair) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = pairKey(p)
	}
	return out
}

// TestSameSeedSameInputs pins determinism: one seed always yields the same
// draw, cycle order, serving programs and request sequence, sources
// included.
func TestSameSeedSameInputs(t *testing.T) {
	const seed = 7
	if a, b := simDraw(seed), simDraw(seed); !reflect.DeepEqual(a, b) {
		t.Errorf("sim draw differs between calls: %v vs %v", names(a), names(b))
	}
	pool := compilePool()
	if a, b := cycles(seed, "cold", pool, 2), cycles(seed, "cold", pool, 2); !reflect.DeepEqual(pairNames(a), pairNames(b)) {
		t.Error("cold-compile order differs between calls")
	}
	s1, s2 := newServeSet(seed), newServeSet(seed)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("serving programs differ between calls")
	}
	if a, b := s1.schedule(seed, "serve", 0, 500), s2.schedule(seed, "serve", 0, 500); !reflect.DeepEqual(a, b) {
		t.Error("request schedule differs between calls")
	}
	if a, b := withSuffix("x", seed, "c1"), withSuffix("x", seed, "c1"); a != b {
		t.Errorf("suffix differs: %q vs %q", a, b)
	}
}

// TestSeedsDrawDifferentlyAndCoverTraits checks that another seed draws
// other programs, and that every draw still covers each trait.
func TestSeedsDrawDifferentlyAndCoverTraits(t *testing.T) {
	if a, b := names(simDraw(1)), names(simDraw(2)); reflect.DeepEqual(a, b) {
		t.Errorf("seeds 1 and 2 drew the same programs: %v", a)
	}
	if a, b := newServeSet(1), newServeSet(2); reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 generated the same serving programs")
	}
	for seed := uint64(0); seed < 64; seed++ {
		traits := map[string]int{}
		for _, p := range simDraw(seed) {
			traits[p.Trait]++
		}
		for _, tr := range []string{"memory-bound", "branchy", "polybench", "spec"} {
			if traits[tr] == 0 {
				t.Errorf("seed %d: draw %v has no %s program", seed, names(simDraw(seed)), tr)
			}
		}
		if got := len(simDraw(seed)); got != len(simMemory)+len(branchy)+len(simGroups) {
			t.Errorf("seed %d: draw has %d programs", seed, got)
		}
	}
}

// TestSimGroupsPartitionStrata checks that the draw's groups hold every
// Polybench kernel and light SPEC program exactly once, and that no group
// mixes strata.
func TestSimGroupsPartitionStrata(t *testing.T) {
	stratum := func(name string) string {
		switch {
		case contains(lightSPEC, name):
			return "light SPEC"
		case contains(largePolybench, name):
			return "large Polybench"
		}
		return "small Polybench"
	}
	seen := map[string]int{}
	for _, g := range simGroups {
		for _, n := range g {
			seen[n]++
			if stratum(n) != stratum(g[0]) {
				t.Errorf("group %v mixes %s and %s", g, stratum(g[0]), stratum(n))
			}
		}
	}
	want := append([]string{}, lightSPEC...)
	for _, p := range catalogue() {
		if p.Trait == "polybench" {
			want = append(want, p.Name)
		}
	}
	for _, n := range want {
		if seen[n] != 1 {
			t.Errorf("%s is in %d groups, want 1", n, seen[n])
		}
	}
	if len(seen) != len(want) {
		t.Errorf("groups name %d programs, want %d", len(seen), len(want))
	}
}

// TestCyclesAreWholePermutations checks that every cycle compiles each pair
// exactly once, so all seeds compile the same multiset.
func TestCyclesAreWholePermutations(t *testing.T) {
	pool := compilePool()
	ops := cycles(3, "cold", pool, 2)
	if len(ops) != 2*len(pool) {
		t.Fatalf("got %d operations, want %d", len(ops), 2*len(pool))
	}
	for c := 0; c < 2; c++ {
		seen := map[string]int{}
		for _, p := range ops[c*len(pool) : (c+1)*len(pool)] {
			seen[pairKey(p)]++
		}
		for _, p := range pool {
			if seen[pairKey(p)] != 1 {
				t.Errorf("cycle %d compiles %s %d times", c, pairKey(p), seen[pairKey(p)])
			}
		}
	}
}

// TestScheduleShares checks the serving mix's fixed kind shares and that
// cold sources never repeat.
func TestScheduleShares(t *testing.T) {
	set := newServeSet(5)
	q := set.schedule(5, "serve", 1, 10*serveBlock)
	count := map[string]int{}
	srcs := map[string]bool{}
	for _, r := range q {
		count[r.Kind]++
		if r.Kind == kindCold {
			if srcs[r.Src] {
				t.Errorf("cold source repeats")
			}
			srcs[r.Src] = true
		}
	}
	want := map[string]int{kindWarm: 10 * mixWarm, kindIO: 10 * mixIO, kindCold: 10 * mixCold}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("kind counts %v, want %v", count, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op.request", Start: 0, End: 100},
		{Name: "serve.rtt", Parent: 1, Start: 10, End: 90},
		{Name: "kernel.spawn", Parent: 2, Start: 20, End: 50},
	}
	got := selfTimes(spans)
	want := map[string]float64{"op": 20e-6, "serve": 50e-6, "kernel": 30e-6}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}
