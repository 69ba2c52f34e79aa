package cpu

// Fidelity-tier tests: the functional fast path must be architecturally
// bit-identical to the exact engine (same return value, memory image,
// registers, and architectural counters — with timing counters untouched),
// and the sampled tier must be deterministic and collapse to exact for
// programs that fit inside the first detailed window.

import (
	"testing"

	"repro/internal/perf"
)

// runGoldenFidelity runs the golden program under a tier and returns the
// finished machine for state inspection.
func runGoldenFidelity(t *testing.T, f Fidelity, period, detail, warmup uint64) (uint64, *Machine) {
	t.Helper()
	m := NewMachine(buildGoldenProgram(), 1, 1)
	m.SetFidelity(f, period, detail, warmup)
	ret, err := m.Call(0)
	if err != nil {
		t.Fatalf("golden program trapped under %v: %v", f, err)
	}
	return ret, m
}

// linearImage returns m's whole logical linear memory: the materialized
// prefix followed by the buffer's capacity up to the logical size, which
// must read zero.
func linearImage(t *testing.T, m *Machine) []byte {
	t.Helper()
	img := m.Linear[:m.LinearSize()]
	for i := len(m.Linear); i < len(img); i++ {
		if img[i] != 0 {
			t.Fatalf("linear memory past the materialized prefix (%d bytes) is dirty at %d", len(m.Linear), i)
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
	retE, me := runGoldenFidelity(t, FidelityExact, 0, 0, 0)
	retF, mf := runGoldenFidelity(t, FidelityFunctional, 0, 0, 0)
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

// TestFunctionalBudgetTrap pins that the instruction-budget trap fires at
// the same instruction count and PC in both tiers.
func TestFunctionalBudgetTrap(t *testing.T) {
	trap := func(f Fidelity) (uint64, int) {
		m := NewMachine(buildGoldenProgram(), 1, 1)
		m.SetFidelity(f, 0, 0, 0)
		m.MaxInstructions = 100
		_, err := m.Call(0)
		te, ok := err.(*TrapError)
		if !ok {
			t.Fatalf("budget run under %v: got %v, want trap", f, err)
		}
		return m.Counters.Instructions, te.PC
	}
	ie, pce := trap(FidelityExact)
	if_, pcf := trap(FidelityFunctional)
	if ie != if_ || pce != pcf {
		t.Errorf("budget trap diverged: exact insts=%d pc=%d, functional insts=%d pc=%d",
			ie, pce, if_, pcf)
	}
}

// TestSampledShortProgramIsExact pins that a program shorter than the first
// detailed window is bit-identical to exact under the sampled tier — the
// first period has no warm-up and never leaves the exact engine.
func TestSampledShortProgramIsExact(t *testing.T) {
	retE, me := runGoldenFidelity(t, FidelityExact, 0, 0, 0)
	retS, ms := runGoldenFidelity(t, FidelitySampled, 0, 0, 0)
	if retE != retS {
		t.Errorf("return values differ: exact %d, sampled %d", retE, retS)
	}
	if me.Counters != ms.Counters {
		t.Errorf("counters diverged:\n exact:   %v\n sampled: %v",
			me.Counters.String(), ms.Counters.String())
	}
}

// TestSampledDeterminism runs the sampled tier with windows small enough
// that the golden program spans several periods (and so alternates engines)
// and demands identical counters and results across runs.
func TestSampledDeterminism(t *testing.T) {
	const period, detail, warmup = 150, 40, 20
	ret1, m1 := runGoldenFidelity(t, FidelitySampled, period, detail, warmup)
	ret2, m2 := runGoldenFidelity(t, FidelitySampled, period, detail, warmup)
	if ret1 != ret2 {
		t.Errorf("return values differ across runs: %d vs %d", ret1, ret2)
	}
	if m1.Counters != m2.Counters {
		t.Errorf("sampled counters nondeterministic:\n run1: %v\n run2: %v",
			m1.Counters.String(), m2.Counters.String())
	}
	// Architectural counters must still equal exact's, whatever the windows.
	_, me := runGoldenFidelity(t, FidelityExact, 0, 0, 0)
	if ae, as := archCounters(me.Counters), archCounters(m1.Counters); ae != as {
		t.Errorf("sampled architectural counters diverged from exact:\n exact:   %v\n sampled: %v",
			ae.String(), as.String())
	}
	if ret1 != 7109254968427 {
		t.Errorf("sampled run returned %d, want 7109254968427", ret1)
	}
	// The sampled run did model some timing (detailed windows ran).
	if m1.Counters.Cycles == 0 {
		t.Error("sampled tier produced zero cycles; detailed windows never ran")
	}
}
