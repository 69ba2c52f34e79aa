package perf

import "testing"

func TestCountersSubAndGet(t *testing.T) {
	a := Counters{Loads: 100, Stores: 50, Cycles: 1000, Instructions: 400}
	b := Counters{Loads: 30, Stores: 10, Cycles: 200, Instructions: 100}
	d := a.Sub(&b)
	if d.Loads != 70 || d.Stores != 40 || d.Cycles != 800 {
		t.Errorf("sub wrong: %+v", d)
	}
	if d.Get(AllLoadsRetired) != 70 || d.Get(CPUCycles) != 800 {
		t.Error("get wrong")
	}
}

func TestRawPMU(t *testing.T) {
	if RawPMU(AllLoadsRetired) != "r81d0" || RawPMU(InstructionsRetired) != "r1c0" {
		t.Error("raw descriptors wrong")
	}
	if RawPMU(CPUCycles) != "" {
		t.Error("cpu-cycles has no raw descriptor in the paper")
	}
}

func TestSeconds(t *testing.T) {
	c := Counters{Cycles: 3_500_000_000}
	if s := c.Seconds(); s != 1.0 {
		t.Errorf("3.5G cycles = %g s, want 1", s)
	}
}

// TestArchSubset pins the functional-tier counter contract field by field:
// the five architectural counters are the arch subset (FidelityRow.ArchExact
// and the fuzzer's oracle compare on it), the five timing counters are what
// TimingZero checks.
func TestArchSubset(t *testing.T) {
	arch := []func(*Counters){
		func(c *Counters) { c.Loads = 1 },
		func(c *Counters) { c.Stores = 1 },
		func(c *Counters) { c.Branches = 1 },
		func(c *Counters) { c.CondBranches = 1 },
		func(c *Counters) { c.Instructions = 1 },
	}
	timing := []func(*Counters){
		func(c *Counters) { c.Cycles = 1 },
		func(c *Counters) { c.L1IMisses = 1 },
		func(c *Counters) { c.L1DMisses = 1 },
		func(c *Counters) { c.L2Misses = 1 },
		func(c *Counters) { c.BranchMiss = 1 },
	}
	for i, set := range arch {
		var c Counters
		set(&c)
		if c.Arch() != c || !c.TimingZero() {
			t.Errorf("arch field %d: Arch() = %+v, TimingZero = %v", i, c.Arch(), c.TimingZero())
		}
		if (FidelityRow{Exact: c}).ArchExact() {
			t.Errorf("arch field %d: ArchExact misses a difference", i)
		}
	}
	for i, set := range timing {
		var c Counters
		set(&c)
		if c.Arch() != (Counters{}) || c.TimingZero() {
			t.Errorf("timing field %d: Arch() = %+v, TimingZero = %v", i, c.Arch(), c.TimingZero())
		}
		if !(FidelityRow{Exact: c}).ArchExact() {
			t.Errorf("timing field %d: ArchExact compares a timing counter", i)
		}
	}
}
