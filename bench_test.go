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
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/browserfs"
	"repro/internal/codegen"
	"repro/internal/minic"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/workloads"
)

var (
	harness   = spec.NewHarness()
	suitesMu  sync.Mutex
	suiteRuns = map[string]*spec.SuiteResults{}
)

// suiteResults runs the named spec.Suites matrix at the exact tier once per
// process; after a failed run every benchmark that needs it skips.
func suiteResults(b *testing.B, name string) *spec.SuiteResults {
	suitesMu.Lock()
	defer suitesMu.Unlock()
	r, ran := suiteRuns[name]
	if !ran {
		s := spec.SuiteNamed(name)
		var err error
		r, err = harness.RunSuite(context.Background(), s.Workloads(false), s.Configs(codegen.FidelityExact))
		suiteRuns[name] = r
		if err != nil {
			b.Fatal(err)
		}
	}
	if r == nil {
		b.Skip("earlier suite failure")
	}
	return r
}

// BenchmarkFig1_PolybenchThresholds counts kernels within 1.1x/1.5x/2x/2.5x
// of native (paper: 13 of 24 within 1.1x in 2019).
func BenchmarkFig1_PolybenchThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suiteResults(b, "polybench")
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
		s := suiteResults(b, "polybench")
		b.ReportMetric(stats.Geomean(s.Relative(1)), "chrome-x")
		b.ReportMetric(stats.Geomean(s.Relative(2)), "firefox-x")
		b.Log("\n" + spec.Fig3(s, "Figure 3a — PolybenchC"))
	}
}

// BenchmarkFig3b_SPECRelative reports the headline result (paper: 1.55x
// Chrome, 1.45x Firefox geomean).
func BenchmarkFig3b_SPECRelative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suiteResults(b, "spec")
		b.ReportMetric(stats.Geomean(s.Relative(1)), "chrome-x")
		b.ReportMetric(stats.Geomean(s.Relative(2)), "firefox-x")
		b.Log("\n" + spec.Fig3(s, "Figure 3b — SPEC CPU"))
	}
}

// BenchmarkTable1_SPECTimes reports geomean and median slowdowns (paper:
// geomean 1.55x/1.45x, median 1.53x/1.54x).
func BenchmarkTable1_SPECTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suiteResults(b, "spec")
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
			nat, err := pipeline.Compile(context.Background(), &pipeline.Request{Module: w.Source, Config: codegen.Native()})
			if err != nil {
				b.Fatal(err)
			}
			chr, err := pipeline.Compile(context.Background(), &pipeline.Request{Module: w.Source, Config: codegen.Chrome()})
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
		s := suiteResults(b, "spec")
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
		w := suiteResults(b, "spec")
		a := suiteResults(b, "asmjs")
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
		w := suiteResults(b, "spec")
		a := suiteResults(b, "asmjs")
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
		nat, err := pipeline.Compile(context.Background(), &pipeline.Request{Module: src, Config: codegen.Native()})
		if err != nil {
			b.Fatal(err)
		}
		chr, err := pipeline.Compile(context.Background(), &pipeline.Request{Module: src, Config: codegen.Chrome()})
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
		s, err := harness.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		// The same workloads and configs as Fig8's, so the harness memo
		// answers every run.
		cfgs := spec.SuiteNamed("polybench").Configs(codegen.FidelityExact)
		var worst, best float64
		for _, sz := range spec.Fig8Sizes {
			w := &workloads.Workload{
				Name:   fmt.Sprintf("matmul-%dx%dx%d", sz[0], sz[1], sz[2]),
				Source: spec.MatmulSource(sz[0], sz[1], sz[2]),
			}
			rs, err := harness.RunSuite(context.Background(), []*workloads.Workload{w}, cfgs)
			if err != nil {
				b.Fatal(err)
			}
			r := rs.R[0][1].Seconds / rs.R[0][0].Seconds
			if best == 0 || r < best {
				best = r
			}
			if r > worst {
				worst = r
			}
		}
		b.ReportMetric(best, "chrome-min-x")
		b.ReportMetric(worst, "chrome-max-x")
		b.Log("\n" + s)
	}
}

// BenchmarkFig9_Counters reports the Table 4 geomeans of the Figure 9
// counter panels (paper: loads 2.02x/1.92x, stores 2.30x/2.16x, branches
// 1.75x/1.65x, cond 1.65x/1.62x, instructions 1.80x/1.75x, cycles
// 1.54x/1.38x).
func BenchmarkFig9_Counters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := suiteResults(b, "spec")
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
		s := suiteResults(b, "spec")
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
	res, err := pipeline.Do(context.Background(), &pipeline.Request{Module: w.Source, Config: cfg})
	if err != nil {
		b.Fatal(err)
	}
	return res.Counters.Seconds()
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
			res, err := pipeline.Do(context.Background(), &pipeline.Request{Module: povray.Source, Config: cfg, Files: povray.Files})
			if err != nil {
				b.Fatal(err)
			}
			return res.Counters.Seconds()
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
	// The functional tier on the native config (sim-func-inst/s).
	b.Run("native-functional", func(b *testing.B) {
		cfg := codegen.Native()
		cfg.Fidelity = codegen.FidelityFunctional
		benchSimThroughput(b, cfg, "sim-func-inst/s")
	})
}

func benchSimThroughput(b *testing.B, cfg *codegen.EngineConfig, metric string) {
	w := workloads.Polybench()[0] // 2mm: FP matrix kernel
	ctx := context.Background()
	cm, err := pipeline.Compile(ctx, &pipeline.Request{Module: w.Source, Config: cfg})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Execute(ctx, cm, &pipeline.Request{})
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Counters.Instructions
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
	// chainSrc spawns itself on argv[1:] and waits, so run with n
	// arguments it keeps n processes live at once.
	const chainSrc = `
int main(int argc, char **argv) {
  if (argc > 1) { return sys_wait(sys_spawn("/bin/prog", argv + 1)); }
  return 0;
}`
	ctx := context.Background()
	compile := func(src string) *codegen.CompiledModule {
		cm, err := pipeline.Compile(ctx, &pipeline.Request{Module: src, Config: codegen.Chrome()})
		if err != nil {
			b.Fatal(err)
		}
		return cm
	}
	run := func(cm *codegen.CompiledModule, argv []string) {
		res, err := pipeline.Execute(ctx, cm, &pipeline.Request{Argv: argv})
		if err != nil {
			b.Fatal(err)
		}
		if res.ExitCode != 0 {
			b.Fatalf("exit %d", res.ExitCode)
		}
	}
	cm := compile(src)
	spawn := func() { run(cm, nil) }
	// Warm the pool with one recycled image per P. An exiting process
	// parks its machine image in its P's private sync.Pool slot, which a Get on any other P cannot see. The spawning goroutine
	// changes P freely (b.ResetTimer stops the world), so with a single
	// warm image the measured spawn misses whenever it runs on another P,
	// and B/op reads a whole fresh image. A chain of GOMAXPROCS live
	// processes returns GOMAXPROCS images, and at most GOMAXPROCS-1 of them
	// can sit in other Ps' private slots.
	chain := make([]string, runtime.GOMAXPROCS(0))
	for i := range chain {
		chain[i] = "prog"
	}
	run(compile(chainSrc), chain)
	spawn() // the measured program's own first-run allocations
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
	m, err := minic.Compile(w.Source, minic.ABI32)
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
	m, err := minic.Compile(w.Source, minic.ABI32)
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
			m, err := minic.Compile(w.Source, minic.ABI32)
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

// frontEndBenchWorkloads are the programs the front-end and artifact
// benchmarks run: 433.milc has the largest data section in the catalogue
// (3.5 MB, almost all of it bss) and 2mm is a typical Polybench kernel.
func frontEndBenchWorkloads() []*workloads.Workload {
	return workloads.ByName(append(workloads.SPECCPU(), workloads.Polybench()...), "433.milc", "2mm")
}

// warmBenchSource is shaped like a serving request's small warm program:
// about fifteen lines, so the runtime prelude linked into it is most of
// what the front end reads.
const warmBenchSource = `
int v[64];
int main() {
  int i; int k; int s;
  s = 17;
  for (i = 0; i < 64; i++) { v[i] = (i * 7 + s) % 1009; }
  for (k = 0; k < 40; k++) {
    for (i = 1; i < 64; i++) { v[i] = (v[i] + v[i - 1] * 7) % 65521; }
  }
  for (i = 0; i < 64; i++) { s = (s * 31 + v[i]) % 1000003; }
  print_int(s); print_nl();
  return 0;
}
`

// BenchmarkMinicCompile measures the mini-C front end alone (lex, parse,
// wasm generation): ns/op and allocs/op per module. warm compiles the small
// program above, tracking the fixed cost every compile pays.
func BenchmarkMinicCompile(b *testing.B) {
	srcs := []struct{ name, src string }{{"warm", warmBenchSource}}
	for _, w := range frontEndBenchWorkloads() {
		srcs = append(srcs, struct{ name, src string }{w.Name, w.Source})
	}
	for _, s := range srcs {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := minic.Compile(s.src, minic.ABI32); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArtifactDecode measures the artifact store's disk-hit path:
// decoding one encoded module per iteration (ns/op), plus the artifact's
// size (artifact-bytes), which a data image carrying its bss would inflate
// by megabytes. <workload> decodes a chrome module (wasm32 data model);
// <workload>-native decodes a native one, compiled with 8-byte pointers.
func BenchmarkArtifactDecode(b *testing.B) {
	models := []struct {
		suffix string
		cfg    *codegen.EngineConfig
		abi    minic.ABI
	}{{"", codegen.Chrome(), minic.ABI32}, {"-native", codegen.Native(), minic.ABI64}}
	for _, w := range frontEndBenchWorkloads() {
		for _, dm := range models {
			b.Run(w.Name+dm.suffix, func(b *testing.B) {
				cfg := dm.cfg
				m, err := minic.Compile(w.Source, dm.abi)
				if err != nil {
					b.Fatal(err)
				}
				cm, err := codegen.Compile(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				art, err := codegen.EncodeModule(cm)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := codegen.DecodeModule(art, cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(art)), "artifact-bytes")
			})
		}
	}
}
