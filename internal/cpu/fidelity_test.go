package cpu

// Fidelity-tier tests: the functional fast path must be architecturally
// bit-identical to the exact engine (same return value, memory image,
// registers, and architectural counters — with timing counters untouched).

import (
	"errors"
	"testing"

	"repro/internal/codegen"
	"repro/internal/perf"
)

// runGoldenFidelity runs the golden program under a tier and returns the
// finished machine for state inspection.
func runGoldenFidelity(t *testing.T, f codegen.Fidelity) (uint64, *Machine) {
	t.Helper()
	m := NewMachine(buildGoldenProgram(), 1, 1)
	m.SetFidelity(f)
	ret, err := m.Call(0)
	if err != nil {
		t.Fatalf("golden program trapped under %v: %v", f, err)
	}
	return ret, m
}

// linearImage returns m's whole logical linear memory: the buffer up to
// the logical size, which must read zero outside the two materialized runs
// (the prefix and the window, which must be a view of the same buffer).
func linearImage(t *testing.T, m *Machine) []byte {
	t.Helper()
	img := m.Linear[:m.LinearSize()]
	lo, hi := int(m.hiLo), int(m.hiLo)+len(m.hi)
	if len(m.hi) > 0 && (lo <= len(m.Linear) || &m.hi[0] != &img[lo]) {
		t.Fatalf("window [%d, %d) is not a view of the buffer above the %d-byte prefix", lo, hi, len(m.Linear))
	}
	for i := len(m.Linear); i < len(img); i++ {
		if (i < lo || i >= hi) && img[i] != 0 {
			t.Fatalf("linear memory outside the runs [0, %d) and [%d, %d) is dirty at %d", len(m.Linear), lo, hi, i)
		}
	}
	return img
}

// archCounters extracts the architectural (non-timing) counter subset.
func archCounters(c perf.Counters) perf.Counters {
	return perf.Counters{
		Loads:        c.Loads,
		Stores:       c.Stores,
		Branches:     c.Branches,
		CondBranches: c.CondBranches,
		Instructions: c.Instructions,
	}
}

// TestFunctionalMatchesExact demands bit-identical architectural results
// from the functional tier: return value, registers, linear memory, and the
// architectural counters — while all timing counters stay zero.
func TestFunctionalMatchesExact(t *testing.T) {
	retE, me := runGoldenFidelity(t, codegen.FidelityExact)
	retF, mf := runGoldenFidelity(t, codegen.FidelityFunctional)
	if retE != retF {
		t.Errorf("return values differ: exact %d, functional %d", retE, retF)
	}
	if me.Regs != mf.Regs {
		t.Errorf("integer registers differ:\n exact:      %v\n functional: %v", me.Regs, mf.Regs)
	}
	if me.Xmm != mf.Xmm {
		t.Errorf("xmm registers differ")
	}
	if string(linearImage(t, me)) != string(linearImage(t, mf)) {
		t.Errorf("linear memory images differ")
	}
	if ae, af := archCounters(me.Counters), archCounters(mf.Counters); ae != af {
		t.Errorf("architectural counters diverged:\n exact:      %v\n functional: %v",
			ae.String(), af.String())
	}
	c := mf.Counters
	if c.Cycles != 0 || c.L1IMisses != 0 || c.L1DMisses != 0 || c.L2Misses != 0 || c.BranchMiss != 0 {
		t.Errorf("functional tier produced timing counts: %v", c.String())
	}
}

// TestInterruptPollParity pins where an interrupt stops each engine. The
// kernel watchdog enforces its instruction ceiling through SetInterrupt, so
// every engine and tier must stop at the same retired-instruction count and
// rip, and legacy and exact must agree on every counter. One k lands between
// the halves of a fused compare-and-branch pair, which must be split there.
func TestInterruptPollParity(t *testing.T) {
	errStop := errors.New("stop")
	type stop struct {
		rip int
		c   perf.Counters
	}
	run := func(k uint64, legacy bool, f codegen.Fidelity) (stop, *Machine) {
		m := NewMachine(buildGoldenProgram(), 1, 1)
		m.NoPredecode = legacy
		m.SetFidelity(f)
		m.SetInterrupt(k, func() error { return errStop })
		if _, err := m.Call(0); !errors.Is(err, errStop) {
			t.Fatalf("k=%d legacy=%v %v: got %v, want the interrupt's error", k, legacy, f, err)
		}
		return stop{m.rip, m.Counters}, m
	}
	splitPair := false
	for _, k := range []uint64{1, 4, 37, 100, 333, 701} {
		want, ml := run(k, true, codegen.FidelityExact)
		if want.c.Instructions != k {
			t.Errorf("k=%d: legacy stopped after %d instructions", k, want.c.Instructions)
		}
		if r := want.rip; r > 0 && r < len(ml.uops) && ml.uops[r].kind == uJcc {
			switch ml.uops[r-1].kind {
			case uCmpRRJcc, uCmpRIJcc, uTestRRJcc:
				splitPair = true
			}
		}
		for _, f := range []codegen.Fidelity{codegen.FidelityExact, codegen.FidelityFunctional} {
			got, _ := run(k, false, f)
			if got.c.Instructions != want.c.Instructions || got.rip != want.rip {
				t.Errorf("k=%d %v: stopped at insts=%d rip=%d, legacy at insts=%d rip=%d",
					k, f, got.c.Instructions, got.rip, want.c.Instructions, want.rip)
			}
			if f == codegen.FidelityExact && got.c != want.c {
				t.Errorf("k=%d: exact counters diverged from legacy:\n exact:  %v\n legacy: %v",
					k, got.c.String(), want.c.String())
			}
		}
	}
	if !splitPair {
		t.Error("no k stopped between the halves of a fused compare-and-branch pair")
	}
}
