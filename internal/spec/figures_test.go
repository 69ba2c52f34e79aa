package spec_test

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/perf"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// figuresGolden holds the renderings of the synthetic suites below. The
// figures are a pure function of the result matrix, so any change to their
// bytes is a change to the paper's output and must be deliberate.
const figuresGolden = "testdata/figures.golden"

// syntheticCounters derives a distinct, fixed counter set from seed so that
// every Figure 9 / Table 4 ratio is a non-trivial number.
func syntheticCounters(seed uint64) perf.Counters {
	return perf.Counters{
		Loads:        1000 + 37*seed,
		Stores:       400 + 11*seed,
		Branches:     900 + 23*seed,
		CondBranches: 700 + 19*seed,
		Instructions: 10000 + 301*seed,
		Cycles:       15000 + 577*seed,
		L1IMisses:    50 + 7*seed,
		L1DMisses:    30 + 5*seed,
		L2Misses:     9 + seed,
		BranchMiss:   20 + 3*seed,
	}
}

// syntheticSuites builds a wasm suite (native, chrome, firefox) and an
// asm.js suite (asmjs-chrome, asmjs-firefox) over four workloads:
//   - w-alpha and w-delta are ordinary rows;
//   - w-beta's chrome run failed, so the wasm row renders FAILED and stays
//     out of every geomean;
//   - w-gamma's native run counted no loads and no icache misses, the
//     counterRatio zero-denominator path;
//   - w-delta's asm.js row failed, so Figures 5 and 6 drop it while the
//     wasm figures keep it.
func syntheticSuites() (wasmRes, asmRes *spec.SuiteResults) {
	names := []string{"w-alpha", "w-beta", "w-gamma", "w-delta"}
	ws := make([]*workloads.Workload, len(names))
	for i, n := range names {
		ws[i] = &workloads.Workload{Name: n}
	}
	res := func(bench, engine string, secs float64, seed uint64, share float64, syscalls uint64) *spec.Result {
		return &spec.Result{Bench: bench, Engine: engine, Seconds: secs,
			Counters: syntheticCounters(seed), BrowsixShare: share, Syscalls: syscalls}
	}
	failed := errors.New("synthetic failure")

	gammaNative := res("w-gamma", "native", 0.25, 3, 0.0004, 9)
	gammaNative.Counters.Loads = 0
	gammaNative.Counters.L1IMisses = 0

	wasmRes = &spec.SuiteResults{
		Workloads: ws,
		Engines:   spec.EngineSet(),
		R: [][]*spec.Result{
			{res("w-alpha", "native", 1.0, 1, 0.001, 12), res("w-alpha", "chrome", 1.05, 4, 0.0021, 12), res("w-alpha", "firefox", 1.3, 6, 0.0034, 12)},
			{res("w-beta", "native", 2.0, 2, 0.0005, 40), {Bench: "w-beta", Engine: "chrome", Err: failed}, res("w-beta", "firefox", 2.9, 8, 0.0123, 40)},
			{gammaNative, res("w-gamma", "chrome", 0.4, 9, 0.0007, 9), res("w-gamma", "firefox", 0.35, 7, 0.0006, 9)},
			{res("w-delta", "native", 0.5, 5, 0.002, 3), res("w-delta", "chrome", 1.2, 13, 0.0049, 3), res("w-delta", "firefox", 1.1, 11, 0.0041, 3)},
		},
	}
	asmRes = &spec.SuiteResults{
		Workloads: ws,
		Engines:   spec.AsmJSEngines(),
		R: [][]*spec.Result{
			{res("w-alpha", "asmjs-chrome", 1.6, 10, 0, 0), res("w-alpha", "asmjs-firefox", 1.45, 9, 0, 0)},
			{res("w-beta", "asmjs-chrome", 3.1, 12, 0, 0), res("w-beta", "asmjs-firefox", 3.3, 14, 0, 0)},
			{res("w-gamma", "asmjs-chrome", 0.55, 10, 0, 0), res("w-gamma", "asmjs-firefox", 0.6, 11, 0, 0)},
			{{Bench: "w-delta", Engine: "asmjs-chrome", Err: failed}, res("w-delta", "asmjs-firefox", 1.9, 15, 0, 0)},
		},
	}
	return wasmRes, asmRes
}

// TestFiguresGolden renders every matrix-driven figure and table from the
// synthetic suites and compares the bytes with the golden file.
func TestFiguresGolden(t *testing.T) {
	s, asm := syntheticSuites()
	var sb strings.Builder
	for _, f := range []struct{ name, out string }{
		{"fig1", spec.Fig1(s)},
		{"fig3", spec.Fig3(s, "Figure 3b — SPEC CPU")},
		{"table1", spec.Table1(s)},
		{"fig4", spec.Fig4(s)},
		{"fig5", spec.Fig5(s, asm)},
		{"fig6", spec.Fig6(s, asm)},
		{"fig9", spec.Fig9(s)},
		{"fig10", spec.Fig10(s)},
		{"table4", spec.Table4(s)},
	} {
		sb.WriteString("== " + f.name + " ==\n" + f.out)
	}
	want, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("figure renderings differ from %s:\n--- got\n%s\n--- want\n%s", figuresGolden, got, want)
	}
}
