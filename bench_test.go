package repro_test

// One benchmark per table and figure in the paper's evaluation. Each runs
// the corresponding experiment and reports the paper's headline aggregate as
// custom benchmark metrics (ratios vs native, counts, shares). Run with:
//
//	go test -bench . -benchtime 1x -v
//
// The suites are deterministic; results are memoized within a run.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/browserfs"
	"repro/internal/codegen"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/toolchain"
	"repro/internal/workloads"
)

var (
	harness   = spec.NewHarness()
	specOnce  sync.Once
	polyOnce  sync.Once
	asmOnce   sync.Once
	specSuite *spec.SuiteResults
	polySuite *spec.SuiteResults
	asmSuite  *spec.SuiteResults
)

func specResults(b *testing.B) *spec.SuiteResults {
	specOnce.Do(func() {
		r, err := harness.RunSPEC()
		if err != nil {
			b.Fatal(err)
		}
		specSuite = r
	})
	if specSuite == nil {
		b.Skip("earlier suite failure")
	}
	return specSuite
}

func polyResults(b *testing.B) *spec.SuiteResults {
	polyOnce.Do(func() {
		r, err := harness.RunPolybench()
		if err != nil {
			b.Fatal(err)
		}
		polySuite = r
	})
	if polySuite == nil {
		b.Skip("earlier suite failure")
	}
	return polySuite
}

func asmResults(b *testing.B) *spec.SuiteResults {
	asmOnce.Do(func() {
		r, err := harness.RunAsmJS()
		if err != nil {
			b.Fatal(err)
		}
		asmSuite = r
	})
	if asmSuite == nil {
		b.Skip("earlier suite failure")
	}
	return asmSuite
}

// BenchmarkFig1_PolybenchThresholds counts kernels within 1.1x/1.5x/2x/2.5x
// of native (paper: 13 of 24 within 1.1x in 2019).
func BenchmarkFig1_PolybenchThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := polyResults(b)
		counts := map[float64]int{}
		for r := range s.R {
			best := stats.Min([]float64{
				s.R[r][1].Seconds / s.R[r][0].Seconds,
				s.R[r][2].Seconds / s.R[r][0].Seconds,
			})
			for _, th := range []float64{1.1, 1.5, 2.0, 2.5} {
				if best < th {
					counts[th]++
				}
			}
		}
		b.ReportMetric(float64(counts[1.1]), "within1.1x")
		b.ReportMetric(float64(counts[1.5]), "within1.5x")
		b.ReportMetric(float64(counts[2.0]), "within2x")
		b.ReportMetric(float64(counts[2.5]), "within2.5x")
		b.Log("\n" + spec.Fig1(s))
	}
}

// BenchmarkFig3a_PolybenchRelative reports Polybench wasm-vs-native geomeans
// (paper: near parity, far below the SPEC gap).
func BenchmarkFig3a_PolybenchRelative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := polyResults(b)
		b.ReportMetric(stats.Geomean(s.Relative(1)), "chrome-x")
		b.ReportMetric(stats.Geomean(s.Relative(2)), "firefox-x")
		b.Log("\n" + spec.Fig3(s, "Figure 3a — PolybenchC"))
	}
}

// BenchmarkFig3b_SPECRelative reports the headline result (paper: 1.55x
// Chrome, 1.45x Firefox geomean).
func BenchmarkFig3b_SPECRelative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := specResults(b)
		b.ReportMetric(stats.Geomean(s.Relative(1)), "chrome-x")
		b.ReportMetric(stats.Geomean(s.Relative(2)), "firefox-x")
		b.Log("\n" + spec.Fig3(s, "Figure 3b — SPEC CPU"))
	}
}

// BenchmarkTable1_SPECTimes reports geomean and median slowdowns (paper:
// geomean 1.55x/1.45x, median 1.53x/1.54x).
func BenchmarkTable1_SPECTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := specResults(b)
		b.ReportMetric(stats.Geomean(s.Relative(1)), "chrome-geomean-x")
		b.ReportMetric(stats.Median(s.Relative(1)), "chrome-median-x")
		b.ReportMetric(stats.Geomean(s.Relative(2)), "firefox-geomean-x")
		b.ReportMetric(stats.Median(s.Relative(2)), "firefox-median-x")
		b.Log("\n" + spec.Table1(s))
	}
}

// BenchmarkTable2_CompileTimes reports the Clang/Chrome compile-time ratio
// (paper: Clang is orders of magnitude slower than the wasm JIT).
func BenchmarkTable2_CompileTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, w := range workloads.SPECCPU() {
			nat, err := toolchain.Build(w.Source, codegen.Native())
			if err != nil {
				b.Fatal(err)
			}
			chr, err := toolchain.Build(w.Source, codegen.Chrome())
			if err != nil {
				b.Fatal(err)
			}
			ratios = append(ratios, nat.CompileTime.Seconds()/chr.CompileTime.Seconds())
		}
		b.ReportMetric(stats.Geomean(ratios), "clang/chrome-x")
		s, err := harness.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + s)
	}
}

// BenchmarkFig4_BrowsixOverhead reports the mean %-time-in-Browsix (paper:
// mean 0.2%, max 1.2%).
func BenchmarkFig4_BrowsixOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := specResults(b)
		var shares []float64
		for r := range s.R {
			shares = append(shares, s.R[r][2].BrowsixShare*100)
		}
		b.ReportMetric(stats.Mean(shares), "mean-%")
		b.ReportMetric(stats.Max(shares), "max-%")
		b.Log("\n" + spec.Fig4(s))
	}
}

// BenchmarkFig5_AsmJS reports wasm's speedup over asm.js per browser
// (paper: 1.54x Chrome, 1.39x Firefox).
func BenchmarkFig5_AsmJS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := specResults(b)
		a := asmResults(b)
		var rc, rf []float64
		for r := range w.R {
			rc = append(rc, a.R[r][0].Seconds/w.R[r][1].Seconds)
			rf = append(rf, a.R[r][1].Seconds/w.R[r][2].Seconds)
		}
		b.ReportMetric(stats.Geomean(rc), "chrome-x")
		b.ReportMetric(stats.Geomean(rf), "firefox-x")
		b.Log("\n" + spec.Fig5(w, a))
	}
}

// BenchmarkFig6_AsmJSBest reports best-asm.js vs best-wasm (paper: 1.3x).
func BenchmarkFig6_AsmJSBest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := specResults(b)
		a := asmResults(b)
		var ratios []float64
		for r := range w.R {
			bw := stats.Min([]float64{w.R[r][1].Seconds, w.R[r][2].Seconds})
			ba := stats.Min([]float64{a.R[r][0].Seconds, a.R[r][1].Seconds})
			ratios = append(ratios, ba/bw)
		}
		b.ReportMetric(stats.Geomean(ratios), "best-x")
		b.Log("\n" + spec.Fig6(w, a))
	}
}

// BenchmarkFig7_MatmulCodegen reports the instruction-count gap of the §5
// case study (paper: 28 Clang instructions vs 53 for Chrome).
func BenchmarkFig7_MatmulCodegen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		src := spec.MatmulSource(16, 18, 19)
		nat, err := toolchain.Build(src, codegen.Native())
		if err != nil {
			b.Fatal(err)
		}
		chr, err := toolchain.Build(src, codegen.Chrome())
		if err != nil {
			b.Fatal(err)
		}
		var ni, ci int
		for _, st := range nat.Stats {
			if st.Name == "matmul" {
				ni = st.Insts
			}
		}
		for _, st := range chr.Stats {
			if st.Name == "matmul" {
				ci = st.Insts
			}
		}
		b.ReportMetric(float64(ni), "native-insts")
		b.ReportMetric(float64(ci), "chrome-insts")
		listing, err := spec.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + listing)
	}
}

// BenchmarkFig8_MatmulSweep reports the matmul slowdown range across sizes
// (paper: always between 2x and 3.4x).
func BenchmarkFig8_MatmulSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var worst, best float64
		for _, sz := range spec.Fig8Sizes {
			w := &workloads.Workload{
				Name:   "matmul-sweep",
				Source: spec.MatmulSource(sz[0], sz[1], sz[2]),
			}
			w.Name = w.Name + "-" + string(rune('a'+sz[0]/10))
			rs, err := harness.RunSuite([]*workloads.Workload{w}, spec.EngineSet())
			if err != nil {
				b.Fatal(err)
			}
			r := rs[0][1].Seconds / rs[0][0].Seconds
			if best == 0 || r < best {
				best = r
			}
			if r > worst {
				worst = r
			}
		}
		b.ReportMetric(best, "chrome-min-x")
		b.ReportMetric(worst, "chrome-max-x")
		s, err := harness.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + s)
	}
}

// BenchmarkFig9_Counters reports the Table 4 geomeans of the Figure 9
// counter panels (paper: loads 2.02x/1.92x, stores 2.30x/2.16x, branches
// 1.75x/1.65x, cond 1.65x/1.62x, instructions 1.80x/1.75x, cycles
// 1.54x/1.38x).
func BenchmarkFig9_Counters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := specResults(b)
		b.ReportMetric(stats.Geomean(s.CounterRatios(perf.AllLoadsRetired, 1)), "loads-chrome-x")
		b.ReportMetric(stats.Geomean(s.CounterRatios(perf.AllStoresRetired, 1)), "stores-chrome-x")
		b.ReportMetric(stats.Geomean(s.CounterRatios(perf.BranchesRetired, 1)), "branches-chrome-x")
		b.ReportMetric(stats.Geomean(s.CounterRatios(perf.InstructionsRetired, 1)), "insts-chrome-x")
		b.ReportMetric(stats.Geomean(s.CounterRatios(perf.CPUCycles, 1)), "cycles-chrome-x")
		b.Log("\n" + spec.Fig9(s))
		b.Log("\n" + spec.Table4(s))
	}
}

// BenchmarkFig10_ICache reports L1 icache miss inflation (paper: 2.83x
// Chrome / 2.04x Firefox geomean; sjeng 26.5x/18.6x).
func BenchmarkFig10_ICache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := specResults(b)
		c := s.CounterRatios(perf.L1ICacheLoadMisses, 1)
		f := s.CounterRatios(perf.L1ICacheLoadMisses, 2)
		b.ReportMetric(stats.Geomean(c), "chrome-x")
		b.ReportMetric(stats.Geomean(f), "firefox-x")
		for wi, w := range s.Workloads {
			if w.Name == "458.sjeng" {
				b.ReportMetric(c[wi], "sjeng-chrome-x")
			}
		}
		b.Log("\n" + spec.Fig10(s))
	}
}

// --- Ablations: isolate each §6 root cause on the matmul case study. ---

func ablationRun(b *testing.B, cfg *codegen.EngineConfig) float64 {
	w := &workloads.Workload{Name: "matmul-ablate-" + cfg.Name, Source: spec.MatmulSource(40, 44, 48)}
	res, err := toolchain.Run(w.Source, cfg, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res.Proc.Inst.Counters.Seconds()
}

// BenchmarkAblation_StackChecks measures the cost of per-function stack
// overflow checks (§6.2.2) by disabling them in the Chrome config.
func BenchmarkAblation_StackChecks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := ablationRun(b, codegen.Chrome())
		cfg := codegen.Chrome()
		cfg.Name = "chrome-nostackchk"
		cfg.StackCheck = false
		off := ablationRun(b, cfg)
		b.ReportMetric(on/off, "with/without-x")
	}
}

// BenchmarkAblation_LoopRotation measures Clang's loop rotation (§5.1.3) by
// disabling it in the native config.
func BenchmarkAblation_LoopRotation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rotated := ablationRun(b, codegen.Native())
		cfg := codegen.Native()
		cfg.Name = "native-norotate"
		cfg.RotateLoops = false
		plain := ablationRun(b, cfg)
		b.ReportMetric(plain/rotated, "unrotated/rotated-x")
	}
}

// BenchmarkAblation_AddressingModes measures x86 addressing-mode fusion
// (§6.1.3) by disabling it in the native config.
func BenchmarkAblation_AddressingModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fused := ablationRun(b, codegen.Native())
		cfg := codegen.Native()
		cfg.Name = "native-nofuse"
		cfg.FuseAddressing = false
		cfg.FuseRMW = false
		plain := ablationRun(b, cfg)
		b.ReportMetric(plain/fused, "unfused/fused-x")
	}
}

// BenchmarkAblation_IndirectChecks measures call_indirect checks (§6.2.3)
// on the dispatch-heavy povray workload.
func BenchmarkAblation_IndirectChecks(b *testing.B) {
	var povray *workloads.Workload
	for _, w := range workloads.SPECCPU() {
		if w.Name == "453.povray" {
			povray = w
		}
	}
	for i := 0; i < b.N; i++ {
		run := func(cfg *codegen.EngineConfig) float64 {
			res, err := toolchain.Run(povray.Source, cfg, nil, povray.Files)
			if err != nil {
				b.Fatal(err)
			}
			return res.Proc.Inst.Counters.Seconds()
		}
		on := run(codegen.Chrome())
		cfg := codegen.Chrome()
		cfg.Name = "chrome-noindchk"
		cfg.IndirectCheck = false
		off := run(cfg)
		b.ReportMetric(on/off, "with/without-x")
	}
}

// BenchmarkAblation_BrowserFSAppend reproduces the §2 BrowserFS fix: the
// original grow-exactly-on-append policy vs the >=4 KiB growth policy
// (paper: 464.h264ref's kernel time went from 25s to under 1.5s).
func BenchmarkAblation_BrowserFSAppend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		measure := func(policy browserfs.GrowthPolicy) (uint64, uint64) {
			fs := browserfs.NewWithPolicy(policy)
			ino, err := fs.Create("/out.dat")
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 64)
			var off int64
			for k := 0; k < 20000; k++ {
				ino.WriteAt(buf, off, policy)
				off += int64(len(buf))
			}
			return ino.GrowCopies, ino.GrowBytes
		}
		copies1, bytes1 := measure(browserfs.GrowExact)
		copies2, bytes2 := measure(browserfs.GrowChunked)
		b.ReportMetric(float64(bytes1)/float64(bytes2+1), "bytes-copied-x")
		b.ReportMetric(float64(copies1), "exact-reallocs")
		b.ReportMetric(float64(copies2), "chunked-reallocs")
		_ = bytes1
	}
}

// BenchmarkSimThroughput measures raw simulator speed — the engine that
// produces every number in this file — as simulated instructions retired
// per wall-clock second. The sim-inst/s metric is the headline for the
// pre-decoded micro-op engine and tracks the speedup trajectory across PRs.
func BenchmarkSimThroughput(b *testing.B) {
	for _, cfg := range []*codegen.EngineConfig{codegen.Native(), codegen.Chrome()} {
		b.Run(cfg.Name, func(b *testing.B) {
			benchSimThroughput(b, cfg, "sim-inst/s")
		})
	}
	// Fidelity-tier variants on the native config: the functional fast path
	// (sim-func-inst/s, the ≥5x target) and the sampled tier at default
	// windows (sim-sampled-inst/s, in between).
	b.Run("native-functional", func(b *testing.B) {
		benchSimThroughput(b, codegen.Native().ApplyFidelity(codegen.FidelityFunctional, codegen.SampleWindows{}), "sim-func-inst/s")
	})
	b.Run("native-sampled", func(b *testing.B) {
		benchSimThroughput(b, codegen.Native().ApplyFidelity(codegen.FidelitySampled, codegen.SampleWindows{}), "sim-sampled-inst/s")
	})
}

func benchSimThroughput(b *testing.B, cfg *codegen.EngineConfig, metric string) {
	w := workloads.Polybench()[0] // 2mm: FP matrix kernel
	cm, err := toolchain.Build(w.Source, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := toolchain.RunCompiled(cm, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Proc.Inst.Counters.Instructions
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(insts)/secs, metric)
	}
}

// spawnReps is the fixed number of spawns BenchmarkSpawnAllocs times for
// its spawn-us metric, so the figure is a per-spawn mean even at
// -benchtime=1x.
const spawnReps = 200

// BenchmarkSpawnAllocs measures the spawn path: build once through the
// shared cache, then spawn/run/tear down repeatedly. allocs/op and B/op are
// per spawn; with the machine-memory recycle pool they stay flat instead of
// scaling with process count (each un-pooled spawn used to allocate the
// full linear/globals/table/stack image). spawn-us is the mean host time of
// one spawn over a fixed loop of spawnReps: the program is short, so it
// tracks the cost of building and recycling a process's machine image.
func BenchmarkSpawnAllocs(b *testing.B) {
	const src = `
int main() {
  int acc; int j;
  acc = 0;
  for (j = 0; j < 1000; j++) { acc += j; }
  print_int(acc);
  print_nl();
  return 0;
}`
	ctx := context.Background()
	cm, err := pipeline.Compile(ctx, &pipeline.Request{Module: src, Config: codegen.Chrome()})
	if err != nil {
		b.Fatal(err)
	}
	spawn := func() {
		res, err := pipeline.Execute(ctx, cm, &pipeline.Request{})
		if err != nil {
			b.Fatal(err)
		}
		if res.ExitCode != 0 {
			b.Fatalf("exit %d", res.ExitCode)
		}
	}
	spawn() // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spawn()
	}
	b.StopTimer()
	start := time.Now()
	for i := 0; i < spawnReps; i++ {
		spawn()
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/spawnReps, "spawn-us")
}

// BenchmarkCompile_Chrome measures raw module compile throughput for the
// browser backend (the "fast to compile" design goal).
func BenchmarkCompile_Chrome(b *testing.B) {
	w := workloads.SPECCPU()[0]
	m, err := toolchain.BuildWasm(w.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Compile(m, codegen.Chrome()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile_Native measures the optimizing backend for comparison.
func BenchmarkCompile_Native(b *testing.B) {
	w := workloads.SPECCPU()[0]
	m, err := toolchain.BuildWasm(w.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Compile(m, codegen.Native()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileAllocs pins the cold-compile path's allocation behaviour
// and wall-clock: a full module compile (no build cache involved) per
// iteration, with the pooled compile arenas keeping allocs/op flat. ns/op is
// the cold-compile latency; allocs/op and B/op track the arena discipline —
// CI records all three into BENCH_ci.json so compile-path regressions show
// up in the trend report alongside sim-inst/s.
func BenchmarkCompileAllocs(b *testing.B) {
	for _, cfg := range []*codegen.EngineConfig{codegen.Native(), codegen.Chrome()} {
		b.Run(cfg.Name, func(b *testing.B) {
			w := workloads.SPECCPU()[0]
			m, err := toolchain.BuildWasm(w.Source)
			if err != nil {
				b.Fatal(err)
			}
			// Warm the scratch pool so the benchmark measures steady state.
			if _, err := codegen.Compile(m, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codegen.Compile(m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
