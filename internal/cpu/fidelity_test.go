package cpu

// Fidelity-tier tests: the functional fast path must be architecturally
// bit-identical to the exact engine (same return value, memory image,
// registers, and architectural counters — with timing counters untouched),
// and the sampled tier must be deterministic and collapse to exact for
// programs that fit inside the first detailed window.

import (
	"errors"
	"testing"

	"repro/internal/codegen"
	"repro/internal/perf"
)

// runGoldenFidelity runs the golden program under a tier and returns the
// finished machine for state inspection.
func runGoldenFidelity(t *testing.T, f codegen.Fidelity, period, detail, warmup uint64) (uint64, *Machine) {
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
	retE, me := runGoldenFidelity(t, codegen.FidelityExact, 0, 0, 0)
	retF, mf := runGoldenFidelity(t, codegen.FidelityFunctional, 0, 0, 0)
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
		m.SetFidelity(f, 150, 40, 20)
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
		for _, f := range []codegen.Fidelity{codegen.FidelityExact, codegen.FidelityFunctional, codegen.FidelitySampled} {
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

// TestSampledShortProgramIsExact pins that a program shorter than the first
// detailed window is bit-identical to exact under the sampled tier — the
// first period has no warm-up and never leaves the exact engine.
func TestSampledShortProgramIsExact(t *testing.T) {
	retE, me := runGoldenFidelity(t, codegen.FidelityExact, 0, 0, 0)
	retS, ms := runGoldenFidelity(t, codegen.FidelitySampled, 0, 0, 0)
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
	ret1, m1 := runGoldenFidelity(t, codegen.FidelitySampled, period, detail, warmup)
	ret2, m2 := runGoldenFidelity(t, codegen.FidelitySampled, period, detail, warmup)
	if ret1 != ret2 {
		t.Errorf("return values differ across runs: %d vs %d", ret1, ret2)
	}
	if m1.Counters != m2.Counters {
		t.Errorf("sampled counters nondeterministic:\n run1: %v\n run2: %v",
			m1.Counters.String(), m2.Counters.String())
	}
	// Architectural counters must still equal exact's, whatever the windows.
	_, me := runGoldenFidelity(t, codegen.FidelityExact, 0, 0, 0)
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

// sampledGoldenCounters is the golden program's full counter snapshot under
// the sampled tier with 150/40/20 windows. Run-to-run equality alone would
// not catch a moved window boundary or warm-up discard; this pin does.
var sampledGoldenCounters = perf.Counters{
	Loads:        70,
	Stores:       68,
	Branches:     169,
	CondBranches: 82,
	Instructions: 790,
	Cycles:       2212,
	L1IMisses:    12,
	L1DMisses:    9,
	L2Misses:     9,
	BranchMiss:   2,
}

func TestSampledGoldenCounters(t *testing.T) {
	_, m := runGoldenFidelity(t, codegen.FidelitySampled, 150, 40, 20)
	if m.Counters != sampledGoldenCounters {
		t.Errorf("sampled counters diverged:\n got:  %v\n want: %v", m.Counters.String(), sampledGoldenCounters.String())
	}
}
