// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against the system built from this checkout and prints,
// as the last line of stdout, a JSON object with the run's correctness,
// attempted and failed operation counts, and its metrics:
//
//	perfbench -workload sim-suite -seed 1 -seconds 14 -trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	sim-suite     pipeline.Execute of a seeded draw of SPEC and Polybench
//	              programs, exact tier and functional tier alternating
//	compile-cold  pipeline.Compile of never-seen sources (disk store off),
//	              plus store-warm disk hits in a helper process
//	serve-mixed   two HTTP clients against a repro-serve daemon
//
// Every workload reports every end-to-end metric: the metrics its own
// operations do not produce come from short fixed probes. After setup a run
// alternates a slice of the main phase with a slice of each probe for a few
// rounds, so every metric's samples span the whole run. Times are the
// host's own. With -trace 1 the run instead reports per-layer metrics from
// spans recorded around each call into a layer's public API. DESIGN.md has
// the details.
//
// Runs are hermetic: every REPRO_* knob is cleared (the process re-executes
// itself when one is set, since some are read at package init), the
// benchmark's own disk store is off, and the daemon and the store-warm helper
// get fresh private stores under a per-run directory that is removed at
// exit.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/perf"
	"repro/internal/pipeline"
)

const (
	wlSim     = "sim-suite"
	wlCompile = "compile-cold"
	wlServe   = "serve-mixed"
)

// setupReps is how many times a run prepares its workload from cold; setup_s
// is the median.
const setupReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state.
type bench struct {
	ctx      context.Context
	workload string
	seed     uint64
	seconds  time.Duration
	serveBin string
	runDir   string
	traceDir string
	tr       *tracer // nil in untraced runs
	// ref scales sequential operations' times to the reference host speed.
	ref hostRef

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	nextOp    int64

	e2e   map[string]metric
	layer map[string]metric
	// counters collects every simulated counter set the run produced, keyed
	// by program/engine/tier, for the digest.
	counters map[string]perf.Counters
	// browsix collects the Browsix share of traced kernel runs.
	browsix []float64
	// daemonCache is the serve-mixed daemon's cache totals at the end of
	// its main phase.
	daemonCache pipeline.CacheStats

	// setupReps are the repeated whole preparations' times in seconds at
	// the reference host speed; setup_s is their median.
	setupReps []float64
	// rssPeaks are the main phase's per-round peak resident sets.
	rssPeaks []float64
}

// finish sets the end-to-end metrics that span the whole run.
func (b *bench) finish() {
	b.setE2E("setup_s", median(b.setupReps), "s")
	if len(b.rssPeaks) > 0 {
		b.setE2E("rss_mb", slices.Max(b.rssPeaks), "MB")
		b.logf("peak RSS per main round (MB): %.0f", b.rssPeaks)
	}
	if n := len(b.ref.scales); n > 0 {
		b.logf("host speed: %d reference samples, scale median %.3f, quartiles %.3f-%.3f",
			n, median(b.ref.scales), quantile(b.ref.scales, 0.25), quantile(b.ref.scales, 0.75))
	}
}

// op records one attempted operation; a non-nil err counts it as failed.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < 20 {
			b.errs = append(b.errs, err.Error())
		}
	}
}

// opID returns a fresh operation id for span grouping.
func (b *bench) opID() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextOp++
	return b.nextOp
}

func (b *bench) setE2E(name string, v float64, unit string) {
	b.e2e[name] = metric{v, unit}
}

func (b *bench) setLayer(name string, v float64, unit string) {
	b.mu.Lock()
	b.layer[name] = metric{v, unit}
	b.mu.Unlock()
}

// recordCounters files one simulated counter set for the digest, failing the
// operation if the same key produced different counters earlier.
func (b *bench) recordCounters(key string, c perf.Counters) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.counters[key]; ok && prev != c {
		return fmt.Errorf("%s: counters %+v differ from first run %+v", key, c, prev)
	}
	b.counters[key] = c
	return nil
}

// digest hashes every simulated counter set in key order.
func (b *bench) digest() string {
	keys := make([]string, 0, len(b.counters))
	for k := range b.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %+v\n", k, b.counters[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: "+wlSim+", "+wlCompile+" or "+wlServe)
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 14, "measurement time of the main phase, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	serveBin := flag.String("serve-bin", "", "repro-serve binary (serve-mixed)")
	workDir := flag.String("work-dir", ".bench_build", "directory for per-run files and trace output")
	role := flag.String("role", "", "internal: store-child runs the store-warm helper")
	ncycles := flag.Int("cycles", 1, "internal: pool cycles of the store-warm helper")
	storeDir := flag.String("store-dir", "off", "internal: the store-warm helper's private store")
	flag.Parse()

	if *role != "store-child" {
		*storeDir = "off"
	}
	if err := hermetic(*storeDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if *role == "store-child" {
		return storeChildMain(*seed, *ncycles, *trace == 1)
	}
	switch *workload {
	case wlSim, wlCompile, wlServe:
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1\n")
		return 2
	}
	if *workload == wlServe && *serveBin == "" {
		fmt.Fprintf(os.Stderr, "perfbench: serve-mixed needs -serve-bin\n")
		return 2
	}
	work, err := filepath.Abs(*workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	runDir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	b := &bench{
		ctx:      context.Background(),
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		serveBin: *serveBin,
		runDir:   runDir,
		traceDir: filepath.Join(work, "traces"),
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		counters: map[string]perf.Counters{},
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	if err := b.runWorkload(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	b.finish()
	for _, e := range b.errs {
		b.logf("FAILED: %s", e)
	}
	fmt.Printf("counters_digest %s\n", b.digest())
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.e2e}
	if b.tr != nil {
		res.Metrics = b.layer
		if err := b.writeTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// hermetic clears every REPRO_* knob and points this process's disk store at
// storeDir ("off" disables it). Some knobs are read at package init, so when
// one is set the process re-executes itself with a clean environment instead
// of unsetting it late.
func hermetic(storeDir string) error {
	env := cleanEnv()
	if len(env) != len(os.Environ()) {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		return syscall.Exec(exe, os.Args, env)
	}
	return os.Setenv(config.EnvCacheDir, storeDir)
}

// cleanEnv is the environment without any REPRO_* variable.
func cleanEnv() []string {
	var out []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "REPRO_") {
			out = append(out, kv)
		}
	}
	return out
}

// settle collects garbage so a timed slice does not pay for the one
// before it.
func settle() { runtime.GC() }

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A metric a workload's calls do not reach reads 0.
var perLayer = [][2]string{
	{"minic.parse_ms", "ms"}, {"minic.compile_ms", "ms"}, {"minic.wasm_bytes", "bytes"},
	{"codegen.lower_ms", "ms"}, {"codegen.opt_ms", "ms"}, {"codegen.compile_ms", "ms"}, {"codegen.x86_insts", "count"},
	{"ir.liveness_ms", "ms"}, {"regalloc.linearscan_ms", "ms"}, {"regalloc.graphcolor_ms", "ms"}, {"regalloc.spills", "count"},
	{"codegen.encode_ms", "ms"}, {"codegen.verify_ms", "ms"}, {"codegen.decode_ms", "ms"}, {"codegen.artifact_bytes", "bytes"},
	{"pipeline.disk_hit_ms", "ms"}, {"pipeline.mem_hits", "count"}, {"pipeline.disk_hits", "count"}, {"pipeline.misses", "count"},
	{"cpu.load_ms", "ms"}, {"cpu.sim_insts", "count"}, {"cpu.exact_ns_per_inst", "ns"}, {"cpu.func_ns_per_inst", "ns"},
	{"kernel.spawn_ms", "ms"}, {"kernel.run_ms", "ms"}, {"kernel.browsix_share", "ratio"},
	{"serve.rtt_ms", "ms"}, {"serve.inproc_do_ms", "ms"}, {"serve.overhead_ms", "ms"},
	{"serve.queued_peak", "count"}, {"serve.refused", "count"}, {"sched.budget_peak", "count"},
	{"minic.self_ms", "ms"}, {"codegen.self_ms", "ms"}, {"ir.self_ms", "ms"}, {"regalloc.self_ms", "ms"},
	{"pipeline.self_ms", "ms"}, {"cpu.self_ms", "ms"}, {"kernel.self_ms", "ms"}, {"serve.self_ms", "ms"},
	{"trace.overhead_pct", "%"}, {"trace.spans", "count"},
}

// writeTrace fills the per-layer metrics that come from the whole span set
// and writes the spans out.
func (b *bench) writeTrace() error {
	spans := b.tr.snapshot()
	for _, m := range perLayer {
		if _, ok := b.layer[m[0]]; !ok {
			b.layer[m[0]] = metric{0, m[1]}
		}
	}
	for l, v := range selfTimes(spans) {
		if _, ok := b.layer[l+".self_ms"]; ok {
			b.setLayer(l+".self_ms", v, "ms")
		}
	}
	d := durations(spans)
	b.setLayer("cpu.load_ms", median(d["cpu.load"]), "ms")
	b.setLayer("kernel.spawn_ms", median(d["kernel.spawn"]), "ms")
	// The run span that moves sim_mips is a simulation's, not a short
	// serving request's.
	var simRuns []float64
	for _, sp := range spans {
		if sp.Name == "kernel.run" && sp.Parent != 0 && spans[sp.Parent-1].Name == "op.sim" && sp.End > 0 {
			simRuns = append(simRuns, float64(sp.End-sp.Start)/1e6)
		}
	}
	b.setLayer("kernel.run_ms", median(simRuns), "ms")
	if len(b.browsix) > 0 {
		b.setLayer("kernel.browsix_share", sum(b.browsix)/float64(len(b.browsix)), "ratio")
	}
	st := pipeline.Stats()
	b.setLayer("pipeline.mem_hits", float64(st.MemHits+b.daemonCache.MemHits), "count")
	b.setLayer("pipeline.misses", float64(st.Misses+b.daemonCache.Misses), "count")
	b.setLayer("trace.spans", float64(len(spans)), "count")
	if err := os.MkdirAll(b.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.traceDir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Printf("trace %s (%d spans)\n", path, len(spans))
	return nil
}

// check returns nil when ok, else an error with the given description.
func check(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}
