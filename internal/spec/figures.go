package spec

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// SuiteResults is the matrix RunSuite returns: rows are workloads, columns
// follow the engine order passed to RunSuite.
type SuiteResults struct {
	Workloads []*workloads.Workload
	Engines   []*codegen.EngineConfig
	R         [][]*Result
}

// Suite is one measured matrix of the evaluation: a workload list, its
// -short subset (the same workloads at the same sizes), and the engines
// every workload runs on. Suites is the only place that pairs them; the
// CLIs, the benchmarks and the tests all read it.
type Suite struct {
	Name        string
	full, short func() []*workloads.Workload
	engines     func() []*codegen.EngineConfig
}

// Suites lists the paper's matrices: Polybench (Figures 1 and 3a) and SPEC
// (Figures 3b, 4, 9 and 10, Tables 1 and 4) on native and the wasm
// engines, and SPEC on the asm.js engines (Figures 5 and 6).
var Suites = []Suite{
	{"polybench", workloads.Polybench, workloads.ShortPolybench, EngineSet},
	{"spec", workloads.SPECCPU, workloads.ShortSPEC, EngineSet},
	{"asmjs", workloads.SPECCPU, workloads.ShortSPEC, AsmJSEngines},
}

// SuiteNamed returns the suite called name, or nil.
func SuiteNamed(name string) *Suite {
	for i := range Suites {
		if Suites[i].Name == name {
			return &Suites[i]
		}
	}
	return nil
}

// Workloads returns the suite's workloads: the -short subset when short.
func (s *Suite) Workloads(short bool) []*workloads.Workload {
	if short {
		return s.short()
	}
	return s.full()
}

// Configs returns fresh engine configs, in column order, with the
// simulation tier stamped on them.
func (s *Suite) Configs(tier codegen.Fidelity) []*codegen.EngineConfig {
	cfgs := s.engines()
	for _, cfg := range cfgs {
		cfg.Fidelity = tier
	}
	return cfgs
}

// Relative returns, per workload, time(engine col)/time(col 0).
func (s *SuiteResults) Relative(col int) []float64 {
	out := make([]float64, len(s.R))
	for i, row := range s.R {
		out[i] = rel(row, col)
	}
	return out
}

// CounterRatios returns per-benchmark event ratios engine-col/native for ev.
func (s *SuiteResults) CounterRatios(ev perf.Event, col int) []float64 {
	out := make([]float64, len(s.R))
	for i, row := range s.R {
		out[i] = counterRatio(row, ev, col)
	}
	return out
}

// rowOK reports whether a row is measurable: every engine produced a real
// result (non-nil, no Err). Degraded suite runs return failed rows too, so
// every figure guards with this and renders FAILED lines instead of
// plotting zeros — and keeps failed rows out of its aggregates.
func rowOK(row []*Result) bool {
	if len(row) == 0 {
		return false
	}
	for _, r := range row {
		if r == nil || r.Err != nil {
			return false
		}
	}
	return true
}

// rowOK reports whether workload i's row is measurable.
func (s *SuiteResults) rowOK(i int) bool { return rowOK(s.R[i]) }

// failedLine is the rendered form of a failed row in line-based figures.
func failedLine(name string) string {
	return fmt.Sprintf("%-16s %10s\n", name, "FAILED")
}

// rel returns row[col]'s time relative to the native column.
func rel(row []*Result, col int) float64 { return row[col].Seconds / row[0].Seconds }

// counterRatio returns row[col]'s event count relative to native.
func counterRatio(row []*Result, ev perf.Event, col int) float64 {
	n := row[0].Counters.Get(ev)
	if n == 0 {
		n = 1
	}
	return float64(row[col].Counters.Get(ev)) / float64(n)
}

// ratioPanel writes one chrome/firefox ratio panel: the column header, one
// line per workload (FAILED unless ok(i)), and the geomean of each column
// over the measured rows in workload order.
func ratioPanel(sb *strings.Builder, ws []*workloads.Workload, ok func(i int) bool, ratios func(i int) (chrome, firefox float64)) {
	fmt.Fprintf(sb, "%-16s %10s %10s\n", "benchmark", "chrome", "firefox")
	var cs, fs []float64
	for i, w := range ws {
		if !ok(i) {
			sb.WriteString(failedLine(w.Name))
			continue
		}
		c, f := ratios(i)
		cs = append(cs, c)
		fs = append(fs, f)
		fmt.Fprintf(sb, "%-16s %10.2f %10.2f\n", w.Name, c, f)
	}
	fmt.Fprintf(sb, "%-16s %10.2f %10.2f\n", "geomean", stats.Geomean(cs), stats.Geomean(fs))
}

// Fig3 renders the relative-execution-time figure for a suite (3a for
// Polybench, 3b for SPEC).
func Fig3(s *SuiteResults, title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — relative execution time (native = 1.0)\n", title)
	ratioPanel(&sb, s.Workloads, s.rowOK, func(i int) (float64, float64) {
		return rel(s.R[i], 1), rel(s.R[i], 2)
	})
	return sb.String()
}

// Table1 renders the SPEC absolute-times table. Simulated times are in
// milliseconds (problem sizes are scaled down; see EXPERIMENTS.md).
func Table1(s *SuiteResults) string {
	var sb strings.Builder
	sb.WriteString("Table 1 — SPEC CPU execution times (simulated ms)\n")
	fmt.Fprintf(&sb, "%-16s %12s %12s %12s\n", "benchmark", "native", "chrome", "firefox")
	var chrome, firefox []float64
	for i, row := range s.R {
		name := s.Workloads[i].Name
		if !rowOK(row) {
			fmt.Fprintf(&sb, "%-16s %12s %12s %12s\n", name, "FAILED", "-", "-")
			continue
		}
		n := row[0].Seconds * 1000
		c := row[1].Seconds * 1000
		f := row[2].Seconds * 1000
		chrome = append(chrome, c/n)
		firefox = append(firefox, f/n)
		fmt.Fprintf(&sb, "%-16s %12.2f %12.2f %12.2f\n", name, n, c, f)
	}
	fmt.Fprintf(&sb, "%-16s %12s %11.2fx %11.2fx\n", "Slowdown: geomean", "-", stats.Geomean(chrome), stats.Geomean(firefox))
	fmt.Fprintf(&sb, "%-16s %12s %11.2fx %11.2fx\n", "Slowdown: median", "-", stats.Median(chrome), stats.Median(firefox))
	return sb.String()
}

// Table2 renders compile times: "Clang" is the native pipeline (mini-C
// frontend + optimizing backend), "Chrome" the V8 backend alone (the wasm
// module arrives pre-compiled, as in the paper).
func (h *Harness) Table2() (string, error) {
	var sb strings.Builder
	sb.WriteString("Table 2 — compile times (ms)\n")
	fmt.Fprintf(&sb, "%-16s %12s %12s\n", "benchmark", "clang", "chrome")
	for _, w := range workloads.SPECCPU() {
		nat, err := h.build(context.Background(), w.Name, w.Source, codegen.Native())
		if err != nil {
			return "", err
		}
		chr, err := h.build(context.Background(), w.Name, w.Source, codegen.Chrome())
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%-16s %12.2f %12.2f\n", w.Name,
			nat.CompileTime.Seconds()*1000, chr.CompileTime.Seconds()*1000)
	}
	return sb.String(), nil
}

// Fig4 renders the Browsix-overhead figure: % of time in Browsix syscalls
// (Firefox column, like the paper).
func Fig4(s *SuiteResults) string {
	var sb strings.Builder
	sb.WriteString("Figure 4 — % of time spent in Browsix (Firefox)\n")
	var shares []float64
	for i, row := range s.R {
		name := s.Workloads[i].Name
		if !rowOK(row) {
			sb.WriteString(failedLine(name))
			continue
		}
		share := row[2].BrowsixShare * 100
		shares = append(shares, share)
		fmt.Fprintf(&sb, "%-16s %8.3f%%   (%d syscalls)\n", name, share, row[2].Syscalls)
	}
	fmt.Fprintf(&sb, "%-16s %8.3f%%\n", "average", stats.Mean(shares))
	return sb.String()
}

// Fig5 renders asm.js-vs-wasm relative time per browser.
func Fig5(wasmRes, asmRes *SuiteResults) string {
	var sb strings.Builder
	sb.WriteString("Figure 5 — asm.js relative to WebAssembly (wasm = 1.0)\n")
	ok := func(i int) bool { return wasmRes.rowOK(i) && asmRes.rowOK(i) }
	ratioPanel(&sb, wasmRes.Workloads, ok, func(i int) (float64, float64) {
		return asmRes.R[i][0].Seconds / wasmRes.R[i][1].Seconds, asmRes.R[i][1].Seconds / wasmRes.R[i][2].Seconds
	})
	return sb.String()
}

// Fig6 renders best-asm.js vs best-wasm relative time.
func Fig6(wasmRes, asmRes *SuiteResults) string {
	var sb strings.Builder
	sb.WriteString("Figure 6 — best asm.js relative to best WebAssembly\n")
	var ratios []float64
	for i, w := range wasmRes.Workloads {
		if !wasmRes.rowOK(i) || !asmRes.rowOK(i) {
			sb.WriteString(failedLine(w.Name))
			continue
		}
		bestWasm := stats.Min([]float64{wasmRes.R[i][1].Seconds, wasmRes.R[i][2].Seconds})
		bestAsm := stats.Min([]float64{asmRes.R[i][0].Seconds, asmRes.R[i][1].Seconds})
		r := bestAsm / bestWasm
		ratios = append(ratios, r)
		fmt.Fprintf(&sb, "%-16s %10.2f\n", w.Name, r)
	}
	fmt.Fprintf(&sb, "%-16s %10.2f\n", "geomean", stats.Geomean(ratios))
	return sb.String()
}

// Fig9Events lists the counter panels of Figure 9 in order (a)-(f).
var Fig9Events = []perf.Event{
	perf.AllLoadsRetired, perf.AllStoresRetired, perf.BranchesRetired,
	perf.ConditionalBranches, perf.InstructionsRetired, perf.CPUCycles,
}

// Fig9 renders the six counter panels.
func Fig9(s *SuiteResults) string {
	var sb strings.Builder
	sb.WriteString("Figure 9 — performance counters relative to native (native = 1.0)\n")
	for pi, ev := range Fig9Events {
		fmt.Fprintf(&sb, "\n(%c) %s\n", 'a'+pi, ev)
		ratioPanel(&sb, s.Workloads, s.rowOK, func(i int) (float64, float64) {
			return counterRatio(s.R[i], ev, 1), counterRatio(s.R[i], ev, 2)
		})
	}
	return sb.String()
}

// Fig10 renders L1 icache miss ratios.
func Fig10(s *SuiteResults) string {
	var sb strings.Builder
	sb.WriteString("Figure 10 — L1-icache-load-misses relative to native\n")
	ratioPanel(&sb, s.Workloads, s.rowOK, func(i int) (float64, float64) {
		return counterRatio(s.R[i], perf.L1ICacheLoadMisses, 1), counterRatio(s.R[i], perf.L1ICacheLoadMisses, 2)
	})
	return sb.String()
}

// Table3 renders the perf-event table.
func Table3() string {
	var sb strings.Builder
	sb.WriteString("Table 3 — performance counters (raw PMU descriptors as in the paper)\n")
	fmt.Fprintf(&sb, "%-26s %-8s %s\n", "perf event", "raw", "summary")
	for _, row := range perf.Table3() {
		raw := row.Raw
		if raw == "" {
			raw = "-"
		}
		fmt.Fprintf(&sb, "%-26s %-8s %s\n", row.Event, raw, row.Summary)
	}
	return sb.String()
}

// Table4 renders the geomean counter increases: the Figure 9 panels plus
// icache misses.
func Table4(s *SuiteResults) string {
	var sb strings.Builder
	sb.WriteString("Table 4 — geomean of counter increases (SPEC, wasm vs native)\n")
	fmt.Fprintf(&sb, "%-26s %10s %10s\n", "counter", "chrome", "firefox")
	for _, ev := range append(append([]perf.Event{}, Fig9Events...), perf.L1ICacheLoadMisses) {
		var chrome, firefox []float64
		for _, row := range s.R {
			if rowOK(row) {
				chrome = append(chrome, counterRatio(row, ev, 1))
				firefox = append(firefox, counterRatio(row, ev, 2))
			}
		}
		fmt.Fprintf(&sb, "%-26s %9.2fx %9.2fx\n", ev, stats.Geomean(chrome), stats.Geomean(firefox))
	}
	return sb.String()
}

// Fig1Historical holds the thresholds series the paper shows for earlier
// measurements (read from Figure 1; the 1.1x values are stated in the text).
var Fig1Historical = []struct {
	Label  string
	Counts map[float64]int
}{
	{"PLDI 2017", map[float64]int{1.1: 7, 1.5: 17, 2.0: 22, 2.5: 24}},
	{"April 2018", map[float64]int{1.1: 11, 1.5: 18, 2.0: 23, 2.5: 24}},
}

// Fig1 counts Polybench kernels within each threshold of native (best
// browser per kernel) and renders the comparison with the historical series.
func Fig1(s *SuiteResults) string {
	counts := map[float64]int{}
	for _, row := range s.R {
		if !rowOK(row) {
			continue
		}
		best := stats.Min([]float64{rel(row, 1), rel(row, 2)})
		for _, th := range []float64{1.1, 1.5, 2.0, 2.5} {
			if best < th {
				counts[th]++
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("Figure 1 — # PolybenchC benchmarks within x of native\n")
	fmt.Fprintf(&sb, "%-12s %8s %8s %8s %8s\n", "series", "<1.1x", "<1.5x", "<2x", "<2.5x")
	for _, h := range Fig1Historical {
		fmt.Fprintf(&sb, "%-12s %8d %8d %8d %8d   (of 24; recorded from the paper)\n",
			h.Label, h.Counts[1.1], h.Counts[1.5], h.Counts[2.0], h.Counts[2.5])
	}
	fmt.Fprintf(&sb, "%-12s %8d %8d %8d %8d   (of %d; measured)\n",
		"This paper", counts[1.1], counts[1.5], counts[2.0], counts[2.5], len(s.R))
	return sb.String()
}

// MatmulSource returns the §5 case-study kernel at the given sizes.
func MatmulSource(ni, nk, nj int) string {
	return fmt.Sprintf(`
int NI = %d; int NK = %d; int NJ = %d;
int A[%d]; int B[%d]; int C[%d];
void matmul() {
  int i; int k; int j;
  for (i = 0; i < NI; i++) {
    for (k = 0; k < NK; k++) {
      for (j = 0; j < NJ; j++) {
        C[i * NJ + j] += A[i * NK + k] * B[k * NJ + j];
      }
    }
  }
}
int main() {
  int i;
  for (i = 0; i < NI * NK; i++) { A[i] = (i * 7 + 3) %% 251; }
  for (i = 0; i < NK * NJ; i++) { B[i] = (i * 5 + 1) %% 241; }
  for (i = 0; i < NI * NJ; i++) { C[i] = 0; }
  matmul();
  int s = 0;
  for (i = 0; i < NI * NJ; i++) { s += C[i]; }
  print_int(s); print_nl();
  return 0;
}`, ni, nk, nj, ni*nk, nk*nj, ni*nj)
}

// Fig7 returns the case-study listings: the matmul codegen of Clang vs
// Chrome with instruction counts (the paper's Figure 7b/7c).
func Fig7() (string, error) {
	src := MatmulSource(16, 18, 19)
	var sb strings.Builder
	sb.WriteString("Figure 7 — matmul code generation\n\n")
	for _, cfg := range []*codegen.EngineConfig{codegen.Native(), codegen.Chrome()} {
		cm, err := pipeline.Compile(context.Background(), &pipeline.Request{Module: src, Config: cfg})
		if err != nil {
			return "", err
		}
		d, ok := cm.DisasmFunc("matmul")
		if !ok {
			return "", fmt.Errorf("spec: no matmul function")
		}
		fmt.Fprintf(&sb, "--- %s ---\n%s\n", cfg.Name, d)
	}
	return sb.String(), nil
}

// Fig8Sizes are the scaled matmul sweep sizes (the paper sweeps
// 200x220x240 .. 2000x2200x2400; the 10:11:12 ratio is preserved).
var Fig8Sizes = [][3]int{
	{10, 11, 12}, {20, 22, 24}, {30, 33, 36}, {40, 44, 48}, {50, 55, 60},
	{60, 66, 72}, {70, 77, 84}, {80, 88, 96}, {90, 99, 108}, {100, 110, 120},
}

// Fig8 runs the matmul sweep, a Polybench-style kernel, on the Polybench
// suite's engines at the exact tier and renders relative times.
func (h *Harness) Fig8() (string, error) {
	cfgs := SuiteNamed("polybench").Configs(codegen.FidelityExact)
	var sb strings.Builder
	sb.WriteString("Figure 8 — matmul relative execution time across sizes (native = 1.0)\n")
	fmt.Fprintf(&sb, "%-16s %10s %10s\n", "size (NIxNKxNJ)", "chrome", "firefox")
	for _, sz := range Fig8Sizes {
		w := &workloads.Workload{
			Name:   fmt.Sprintf("matmul-%dx%dx%d", sz[0], sz[1], sz[2]),
			Source: MatmulSource(sz[0], sz[1], sz[2]),
		}
		rs, err := h.RunSuite(context.Background(), []*workloads.Workload{w}, cfgs)
		if err != nil {
			return "", err
		}
		row := rs.R[0]
		fmt.Fprintf(&sb, "%-16s %10.2f %10.2f\n",
			fmt.Sprintf("%dx%dx%d", sz[0], sz[1], sz[2]), rel(row, 1), rel(row, 2))
	}
	return sb.String(), nil
}
