// Package spec implements Browsix-SPEC: the benchmark harness of §3 and
// Figure 2. It builds each workload per engine, constructs the filesystem
// image (speccmds.cmd plus inputs), spawns the runspec → specinvoke →
// benchmark process chain inside a Browsix-Wasm kernel, attaches the perf
// recorder between the runtime's perf_begin/perf_end marks, validates
// outputs across engines with a cmp equivalent, and aggregates results into
// the paper's tables and figures.
package spec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/codegen"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// runspecSrc is the runspec driver: it spawns specinvoke on the command
// file, mirroring the SPEC tooling chain of Figure 2 step 3.
const runspecSrc = `
int main(int argc, char **argv) {
  char *args[3];
  args[0] = "specinvoke";
  args[1] = argc > 1 ? argv[1] : "/spec/speccmds.cmd";
  args[2] = (char*)0;
  int pid = sys_spawn("/bin/specinvoke", args);
  if (pid < 0) { return 120; }
  return sys_wait(pid);
}`

// specinvokeSrc reads speccmds.cmd and spawns the benchmark with its
// arguments (SPEC's specinvoke, compiled from C sources in the paper).
const specinvokeSrc = `
char cmdbuf[1024];
char *argvv[16];
int main(int argc, char **argv) {
  if (argc < 2) { return 121; }
  int fd = sys_open(argv[1], 0, 0);
  if (fd < 0) { return 122; }
  int n = sys_read(fd, cmdbuf, 1023);
  sys_close(fd);
  if (n <= 0) { return 123; }
  cmdbuf[n] = 0;
  int i = 0; int na = 0;
  while (cmdbuf[i] && cmdbuf[i] != '\n' && na < 15) {
    while (cmdbuf[i] == ' ') { cmdbuf[i] = 0; i++; }
    if (cmdbuf[i] == 0 || cmdbuf[i] == '\n') { break; }
    argvv[na] = &cmdbuf[i];
    na++;
    while (cmdbuf[i] && cmdbuf[i] != ' ' && cmdbuf[i] != '\n') { i++; }
  }
  if (cmdbuf[i] == '\n') { cmdbuf[i] = 0; }
  argvv[na] = (char*)0;
  if (na == 0) { return 124; }
  int pid = sys_spawn(argvv[0], argvv);
  if (pid < 0) { return 125; }
  return sys_wait(pid);
}`

// Result is one benchmark execution under one engine.
type Result struct {
	Bench  string
	Engine string
	// Err marks a failed run in a degraded suite: the workload/engine pair
	// that failed and why (a JobPanicError, a pipeline.TimeoutError, an
	// ordinary build or run error). All measurement fields are zero when Err
	// is set; the figures render such rows as FAILED instead of plotting them.
	Err error
	// Seconds is simulated wall time between the perf marks.
	Seconds float64
	// Counters are the perf-recorded interval counters.
	Counters perf.Counters
	// BrowsixShare is time spent in the kernel/transport (Figure 4).
	BrowsixShare float64
	Syscalls     uint64
	// Output is the validated program output (console).
	Output string
	// CompileSeconds is the engine's code-generation time (Table 2).
	CompileSeconds float64
	// CodeBytes is the generated text size.
	CodeBytes uint32
}

// Harness memoizes runs (executions are deterministic). Builds are not
// harness state: they come from the process-wide content-addressed cache in
// internal/pipeline, so concurrent harnesses share compiles.
type Harness struct {
	// Degraded makes suite runs survive individual failures: a workload ×
	// engine run that fails (build error, panic, watchdog timeout, empty or
	// mismatching output) becomes a Result with Err set, its row is still
	// filled in the matrix (rendered as FAILED), and RunSuite returns a
	// *SuiteFailure summarizing every failure — nonzero exit, zero lost
	// rows. Without it, the first failure aborts the suite (the historical
	// strict behavior tests rely on).
	Degraded bool

	mu      sync.Mutex
	results map[string]*Result
}

// FailedRun is one failed workload × engine execution in a degraded suite.
type FailedRun struct {
	Bench  string
	Engine string
	Err    error
}

// SuiteFailure is the error a degraded suite run returns when any run
// failed: the suite completed (every surviving row was measured and
// validated) but the run as a whole must not read as clean.
type SuiteFailure struct {
	Failures []FailedRun
	// Total is the number of workload × engine runs attempted.
	Total int
}

func (e *SuiteFailure) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "spec: %d of %d runs failed (degraded suite)", len(e.Failures), e.Total)
	for _, f := range e.Failures {
		msg := f.Err.Error()
		// Keep the summary one line per failure; panic stacks stay
		// available through errors.As on the Failures slice.
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i] + " ..."
		}
		fmt.Fprintf(&sb, "\n  %s on %s: %s", f.Bench, f.Engine, msg)
	}
	return sb.String()
}

// NewHarness returns an empty harness.
func NewHarness() *Harness {
	return &Harness{
		results: map[string]*Result{},
	}
}

// EngineSet returns the paper's engines in presentation order.
func EngineSet() []*codegen.EngineConfig {
	return []*codegen.EngineConfig{
		codegen.Native(), codegen.Chrome(), codegen.Firefox(),
	}
}

// AsmJSEngines returns the asm.js configurations (Figures 5 and 6).
func AsmJSEngines() []*codegen.EngineConfig {
	return []*codegen.EngineConfig{codegen.AsmJSChrome(), codegen.AsmJSFirefox()}
}

// build compiles src for cfg through the shared pipeline cache; key is only
// used for error context, and ctx only for scheduler-budget accounting
// (see pipeline.Compile).
func (h *Harness) build(ctx context.Context, key, src string, cfg *codegen.EngineConfig) (*codegen.CompiledModule, error) {
	cm, err := pipeline.Compile(ctx, &pipeline.Request{Module: src, Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("spec: building %s for %s: %w", key, cfg.Name, err)
	}
	return cm, nil
}

// Run executes workload w under engine cfg through the full Figure 2 chain
// and returns the measurement. Results are memoized under the same content
// address as builds, so configs that differ in any field — not just the
// name — never share a measurement. The whole process chain (runspec,
// specinvoke, the benchmark) polls ctx while simulating, so cancellation
// preempts an in-flight measurement, not just queued ones. The per-job
// watchdog (pipeline.JobLimits) rides the same polling; a tripped limit
// returns an error wrapping a pipeline.TimeoutError with the benchmark's
// partial counters.
func (h *Harness) Run(ctx context.Context, w *workloads.Workload, cfg *codegen.EngineConfig) (*Result, error) {
	if fault.Enabled() && fault.LabelOf(ctx) == "" {
		// Key the compile/exec fault sites under this run by workload name,
		// so a rule can target one workload out of the suite.
		ctx = fault.WithLabel(ctx, w.Name)
	}
	key := w.Name + "/" + pipeline.Key(w.Source, cfg)
	h.mu.Lock()
	if r, ok := h.results[key]; ok {
		h.mu.Unlock()
		return r, nil
	}
	h.mu.Unlock()

	benchBin, err := h.build(ctx, w.Name, w.Source, cfg)
	if err != nil {
		return nil, err
	}
	runspecBin, err := h.build(ctx, "runspec", runspecSrc, cfg)
	if err != nil {
		return nil, err
	}
	specinvBin, err := h.build(ctx, "specinvoke", specinvokeSrc, cfg)
	if err != nil {
		return nil, err
	}

	// The chain runs under pipeline.ExecuteWith's kernel policy (dispatch,
	// watchdog, exec fault site, w.Files); this spawn adds the command file,
	// the three binaries and the perf recorder between the benchmark's perf
	// marks (Figure 2 steps 4-6). Only the benchmark process is recorded,
	// not runspec/specinvoke.
	res := &Result{Bench: w.Name, Engine: cfg.Name}
	var bench *kernel.Process
	var base perf.Counters
	var browsixBase uint64
	benchPath := "/bin/" + w.Name
	req := &pipeline.Request{Argv: append([]string{w.Name}, w.Args...), Files: w.Files}
	run, err := pipeline.ExecuteWith(ctx, req, func(k *kernel.Kernel, argv []string) (*kernel.Process, error) {
		if err := k.FS.MkdirAll("/spec"); err != nil {
			return nil, err
		}
		cmdline := "/bin/" + strings.Join(argv, " ") + "\n"
		if err := k.FS.WriteFile("/spec/speccmds.cmd", []byte(cmdline)); err != nil {
			return nil, err
		}
		k.RegisterBinary(benchPath, benchBin)
		k.RegisterBinary("/bin/runspec", runspecBin)
		k.RegisterBinary("/bin/specinvoke", specinvBin)
		k.Hooks = kernel.PerfHooks{
			Begin: func(p *kernel.Process) {
				if p.Path != benchPath {
					return
				}
				bench = p
				p.Inst.FlushCycles()
				base = p.Inst.Counters
				browsixBase = p.BrowsixCycles
			},
			End: func(p *kernel.Process) {
				if p.Path != benchPath {
					return
				}
				p.Inst.FlushCycles()
				res.Counters = p.Inst.Counters.Sub(&base)
				res.Seconds = res.Counters.Seconds()
				browsix := p.BrowsixCycles - browsixBase
				if res.Counters.Cycles > 0 {
					res.BrowsixShare = float64(browsix) / float64(res.Counters.Cycles)
				}
				res.Syscalls = p.Syscalls
			},
		}
		return k.Spawn(nil, "/bin/runspec", []string{"runspec", "/spec/speccmds.cmd"}, [3]*kernel.FD{})
	})
	if err != nil {
		// A watchdog kill reports the benchmark's counters, not the waited
		// root's (runspec retires a few dozen instructions); the root's
		// stand in only when the benchmark never reached perf_begin.
		var te *pipeline.TimeoutError
		if errors.As(err, &te) && bench != nil {
			te.Partial = bench.Inst.Counters
		}
		return nil, fmt.Errorf("spec: %s on %s: %w", w.Name, cfg.Name, err)
	}
	if run.ExitCode != 0 {
		return nil, fmt.Errorf("spec: %s on %s: exit code %d (output %q)", w.Name, cfg.Name, run.ExitCode, run.Stdout)
	}
	res.Output = run.Stdout
	res.CompileSeconds = benchBin.CompileTime.Seconds()
	res.CodeBytes = benchBin.Prog.CodeBytes

	h.mu.Lock()
	h.results[key] = res
	h.mu.Unlock()
	return res, nil
}

// RunSuite runs every workload in ws under every engine in cfgs, validating
// outputs across engines with the cmp check, and returns the matrix,
// indexed R[workload][engine]. The simulation tier is the configs' own
// (see Suite.Configs). Executions run in parallel on the shared scheduler
// (each is fully isolated in its own kernel), bounded by the shared
// budget; cancelling ctx stops the suite early, and every failing workload/engine
// pair is reported in the returned error, not just the first. A degraded
// run returns the full matrix alongside the *SuiteFailure: surviving rows
// are real measurements, failed rows carry Err-marked entries, and the
// caller decides whether to render despite the error.
func (h *Harness) RunSuite(ctx context.Context, ws []*workloads.Workload, cfgs []*codegen.EngineConfig) (*SuiteResults, error) {
	out := make([][]*Result, len(ws))
	for wi := range out {
		out[wi] = make([]*Result, len(cfgs))
	}
	var mu sync.Mutex
	var failures []FailedRun
	jobs := make([]sched.WeightedJob, 0, len(ws)*len(cfgs))
	for wi := range ws {
		for ci := range cfgs {
			wi, ci := wi, ci
			jobs = append(jobs, sched.WeightedJob{Weight: ws[wi].ExpectedInstructions(), Run: func(ctx context.Context) error {
				if err := ctx.Err(); err != nil {
					return nil // the scheduler reports the cancellation
				}
				r, err := h.runContained(ctx, ws[wi], cfgs[ci])
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if !h.Degraded {
						return err
					}
					// Degraded: the failure becomes a marked row entry and a
					// summary line; the suite keeps going.
					failures = append(failures, FailedRun{ws[wi].Name, cfgs[ci].Name, err})
					r = &Result{Bench: ws[wi].Name, Engine: cfgs[ci].Name, Err: err}
				}
				row := out[wi]
				row[ci] = r
				if slices.Contains(row, nil) {
					return nil // other engines of this row are still running
				}
				// Last engine in: validate the row. A row with a failed
				// entry skips cmp validation (there is nothing to compare)
				// but stays in the matrix so the figures render it FAILED.
				if !rowOK(row) {
					return nil
				}
				if engine, err := cmpRow(row); err != nil {
					if !h.Degraded {
						return err
					}
					failures = append(failures, FailedRun{ws[wi].Name, engine, err})
					// Mark the whole row: a failed cmp impeaches the
					// comparison, not one engine's measurement.
					for j, rr := range row {
						row[j] = &Result{Bench: rr.Bench, Engine: rr.Engine, Err: err}
					}
				}
				return nil
			}})
		}
	}
	// Weighted dispatch: heavy workloads (by expected simulated
	// instructions) are claimed first, so one long SPEC program overlaps
	// the cheap Polybench kernels instead of starting after them.
	err := sched.RunJobsWeighted(ctx, 0, jobs)
	res := &SuiteResults{Workloads: ws, Engines: cfgs, R: out}
	if len(failures) > 0 {
		return res, errors.Join(err, &SuiteFailure{Failures: failures, Total: len(jobs)})
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// cmpRow is the cross-engine cmp check over one complete row: every engine
// must have printed something, and the same thing. An empty output would
// otherwise match on every engine (a workload that returns early, a broken
// print path) and pass. It returns the engine the check failed on.
func cmpRow(row []*Result) (string, error) {
	for _, r := range row {
		switch {
		case r.Output == "":
			return r.Engine, fmt.Errorf("spec: %s on %s: no output", r.Bench, r.Engine)
		case r.Output != row[0].Output:
			return r.Engine, fmt.Errorf("spec: %s: output mismatch between %s and %s",
				r.Bench, row[0].Engine, r.Engine)
		}
	}
	return "", nil
}

// runContained is Run with the same panic containment the scheduler
// applies at job boundaries, so a degraded suite can turn a panicking run —
// an injected compile fault, an engine bug — into a failed row instead of a
// failed job (which would abandon the whole row's accounting).
func (h *Harness) runContained(ctx context.Context, w *workloads.Workload, cfg *codegen.EngineConfig) (r *Result, err error) {
	defer func() {
		if pe := sched.CapturePanic(w.Name+" on "+cfg.Name, recover()); pe != nil {
			r, err = nil, pe
		}
	}()
	return h.Run(ctx, w, cfg)
}
