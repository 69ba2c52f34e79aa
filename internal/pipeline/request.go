package pipeline

// The unified request API. A Request is the one serializable unit of work
// every entry point shares: the CLI flags of cmd/wasmrun, the suite
// harnesses, and an HTTP body POSTed to cmd/repro-serve all resolve into
// the same struct, and the three canonical verbs all take it:
//
//	Compile(ctx, req)      build req.Module for its engine (cached)
//	Execute(ctx, cm, req)  run an already-built module under req's policy
//	Do(ctx, req)           Compile then Execute — the serving unit
//
// JSON field spellings here are the serving wire format, pinned by golden
// fixtures in wire_test.go. Decoding tolerates unknown fields, so the
// format can grow without breaking older clients.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/codegen"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/perf"
)

// Request is one unit of compile-and-run work. The zero value is not
// runnable: Module and an engine (Engine name or explicit Config) are
// required; everything else defaults.
type Request struct {
	// Module is the program to run: mini-C source text, the toolchain's
	// input language (compiled to the wasm32 or x86-64 data model
	// according to the engine configuration).
	Module string `json:"module"`

	// Wasm is an alternative program form: a raw wasm binary module
	// (base64 on the wire), decoded and validated instead of going through
	// the mini-C front-end. Exactly one of Module and Wasm may be set. The
	// fuzzing oracle feeds generated modules through this field so they
	// share the build cache and kernel policy with every other run path.
	Wasm []byte `json:"wasm,omitempty"`

	// Dispatch selects the simulator's dispatch loop: "" or "predecode"
	// (the default micro-op engine) or "legacy" (the retained
	// instruction-at-a-time interpreter). An execution property, not a
	// build property: it does not enter the build's content address.
	Dispatch string `json:"dispatch,omitempty"`

	// Engine names a stock engine configuration ("native", "chrome",
	// "firefox", "asmjs-chrome", "asmjs-firefox"). It is the wire-friendly
	// way to pick an engine; Config overrides it when both are set.
	Engine string `json:"engine,omitempty"`

	// Config is the full engine configuration, for ablation studies and
	// other custom configurations that have no stock name. In-process
	// callers usually set this; wire clients usually set Engine.
	Config *codegen.EngineConfig `json:"config,omitempty"`

	// Argv is the program's argument vector (argv[0] defaults to "prog";
	// suite paths pass the workload name, which also keys fault rules).
	Argv []string `json:"argv,omitempty"`

	// Files populates the fresh kernel's filesystem before spawn, path →
	// contents (base64 on the wire, per encoding/json []byte convention).
	Files map[string][]byte `json:"files,omitempty"`

	// Fidelity overrides the simulation tier ("exact" or "functional");
	// empty keeps the engine configuration's tier, and any other value is
	// a ClassBadRequest. The effective tier is part of the build's content
	// address, so tiers never share cached artifacts.
	Fidelity string `json:"fidelity,omitempty"`

	// Limits bounds this run: a wall-clock deadline and a retired-
	// instruction ceiling enforced by the per-job watchdog. Zero falls
	// back to the process-wide $REPRO_JOB_TIMEOUT / $REPRO_JOB_MAX_INSTS.
	Limits config.Limits `json:"limits,omitzero"`
}

// ResolveConfig returns the engine configuration this request runs under:
// Config if set, else the stock engine named by Engine, with a non-empty
// Fidelity applied to a copy (the caller's config is never mutated). The
// error is ClassBadRequest — it names accepted values and is safe to echo
// to a wire client.
func (r *Request) ResolveConfig() (*codegen.EngineConfig, error) {
	cfg := r.Config
	if cfg == nil {
		if r.Engine == "" {
			return nil, badRequestf("request needs an engine name or an explicit config")
		}
		c, err := codegen.Engine(r.Engine)
		if err != nil {
			return nil, badRequestf("%v", err)
		}
		cfg = c
	}
	if r.Fidelity == "" {
		return cfg, nil
	}
	f, err := codegen.ParseFidelity(r.Fidelity)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	cp := *cfg
	cp.Fidelity = f
	return &cp, nil
}

// Result is the serializable outcome of one Request: the run's observable
// behavior (exit code, stdout), its full perf counters, and the build-cache
// traffic this request generated (exactly one of mem/disk/miss on success —
// a warm second request reports Misses == 0). Err is set when the daemon
// serializes a failure (see ResultForError); in-process callers get a Go
// error from the verbs instead.
type Result struct {
	ExitCode int           `json:"exit_code"`
	Stdout   string        `json:"stdout"`
	Counters perf.Counters `json:"counters"`
	Cache    CacheStats    `json:"cache"`
	Err      *ErrorInfo    `json:"error,omitempty"`

	// Proc is the in-process handle to the simulated process (kernel
	// state, Browsix share, raw instance); never serialized.
	Proc *kernel.Process `json:"-"`
}

// ErrClass partitions failures for wire clients and dashboards: what a
// retry can fix (timeout, canceled) versus what it cannot (bad_request,
// compile), and what is the service's own problem (internal).
type ErrClass string

// Error classes, from the client's fault to the service's.
const (
	// ClassBadRequest: the request itself is malformed — unknown engine,
	// bad fidelity spelling, missing module.
	ClassBadRequest ErrClass = "bad_request"
	// ClassCompile: the module failed to build (parse or codegen error).
	// Deterministic: identical requests fail identically.
	ClassCompile ErrClass = "compile"
	// ClassTimeout: the per-job watchdog killed the run (wall-clock or
	// instruction limit); partial counters are real data.
	ClassTimeout ErrClass = "timeout"
	// ClassCanceled: the caller (or a draining server) canceled the run.
	ClassCanceled ErrClass = "canceled"
	// ClassFault: an armed fault-injection rule fired.
	ClassFault ErrClass = "fault"
	// ClassRuntime: the program ran and failed in simulation (spawn
	// failure, kernel error) — distinct from a nonzero ExitCode, which is
	// a successful Result.
	ClassRuntime ErrClass = "runtime"
	// ClassInternal: everything else; the service's problem.
	ClassInternal ErrClass = "internal"
)

// ErrorInfo is the wire form of a failed request.
type ErrorInfo struct {
	Class   ErrClass `json:"class"`
	Message string   `json:"message"`
}

func (e *ErrorInfo) Error() string { return fmt.Sprintf("%s: %s", e.Class, e.Message) }

// classedError tags an error with the stage it came from; Classify unwraps
// it after the more specific checks (timeout, fault, cancel) have had their
// chance.
type classedError struct {
	class ErrClass
	err   error
}

func (e *classedError) Error() string { return e.err.Error() }
func (e *classedError) Unwrap() error { return e.err }

func badRequestf(format string, args ...any) error {
	return &classedError{ClassBadRequest, fmt.Errorf("pipeline: "+format, args...)}
}

// Classify maps any error returned by the verbs to its wire class.
// Specific causes win over stage tags: a fault injected during a compile is
// ClassFault, not ClassCompile.
func Classify(err error) ErrClass {
	if err == nil {
		return ""
	}
	var te *TimeoutError
	if errors.As(err, &te) {
		return ClassTimeout
	}
	var ie *fault.InjectedError
	if errors.As(err, &ie) {
		return ClassFault
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCanceled
	}
	var ce *classedError
	if errors.As(err, &ce) {
		return ce.class
	}
	return ClassInternal
}

// ErrorInfoFor converts an error to its wire form (nil for nil).
func ErrorInfoFor(err error) *ErrorInfo {
	if err == nil {
		return nil
	}
	return &ErrorInfo{Class: Classify(err), Message: err.Error()}
}

// ResultForError converts a failed run into a serializable Result: the
// error's class and message, ExitCode -1, and — for watchdog kills — the
// partial counters accumulated up to the kill, which are accurate data
// worth returning to the client.
func ResultForError(err error) *Result {
	res := &Result{ExitCode: -1, Err: ErrorInfoFor(err)}
	var te *TimeoutError
	if errors.As(err, &te) {
		res.Counters = te.Partial
	}
	return res
}

// Compile resolves req's engine and builds req.Module through the shared
// content-addressed cache (memory, then disk store, then the compiler).
// The returned module is shared and immutable; see build for the
// singleflight and cancellation contract.
func Compile(ctx context.Context, req *Request) (*codegen.CompiledModule, error) {
	cm, _, err := compileCounted(ctx, req)
	return cm, err
}

// compileCounted is Compile plus this request's own cache traffic, for
// Result.Cache.
func compileCounted(ctx context.Context, req *Request) (*codegen.CompiledModule, CacheStats, error) {
	cfg, err := req.ResolveConfig()
	if err != nil {
		return nil, CacheStats{}, err
	}
	src := req.Module
	if len(req.Wasm) > 0 {
		if req.Module != "" {
			return nil, CacheStats{}, badRequestf("request sets both mini-C module and raw wasm; pick one")
		}
		src = wasmSrcPrefix + string(req.Wasm)
	}
	cm, delta, err := build(ctx, src, cfg)
	if err != nil {
		return nil, delta, &classedError{ClassCompile, err}
	}
	return cm, delta, nil
}

// legacyDispatch maps Request.Dispatch to the kernel's Legacy flag. The
// error is ClassBadRequest.
func legacyDispatch(d string) (bool, error) {
	switch d {
	case "", "predecode":
		return false, nil
	case "legacy":
		return true, nil
	}
	return false, badRequestf("unknown dispatch %q (want \"predecode\" or \"legacy\")", d)
}

// Execute runs an already-built module under req's policy — argv, files,
// and watchdog limits (req.Limits, falling back to the process-wide knobs)
// — in a fresh kernel, and waits for completion. Every process in the
// run's kernel polls ctx while executing, so cancellation preempts a
// simulation mid-run; a tripped limit returns a TimeoutError (ClassTimeout)
// carrying the partial counters.
func Execute(ctx context.Context, cm *codegen.CompiledModule, req *Request) (*Result, error) {
	return ExecuteWith(ctx, req, func(k *kernel.Kernel, argv []string) (*kernel.Process, error) {
		k.RegisterBinary("/bin/prog", cm)
		return k.Spawn(nil, "/bin/prog", argv, [3]*kernel.FD{})
	})
}

// ExecuteWith is Execute's kernel policy with the spawn left to the caller:
// it builds the kernel (dispatch loop, ctx, watchdog limits), checks the
// exec fault site, writes req.Files, calls spawn with the kernel and the
// resolved argv, and waits for the process spawn returns. spec.Harness.Run
// spawns the Figure 2 chain through it. The fault-site and TimeoutError
// label is the ctx label, else argv[0].
func ExecuteWith(ctx context.Context, req *Request, spawn func(k *kernel.Kernel, argv []string) (*kernel.Process, error)) (*Result, error) {
	argv := req.Argv
	if len(argv) == 0 {
		argv = []string{"prog"}
	}
	label := fault.LabelOf(ctx)
	if label == "" {
		label = argv[0]
	}
	legacy, err := legacyDispatch(req.Dispatch)
	if err != nil {
		return nil, err
	}
	timeout, maxInsts := effectiveLimits(req.Limits)
	k := kernel.New(nil)
	k.Legacy = legacy
	k.Ctx = ctx
	if timeout > 0 {
		// One deadline for the whole process tree: when the watchdog kills
		// a hung child, its parent (blocked in sys_wait) unwinds with the
		// same error, so the WaitPID below surfaces the kill no matter
		// which process hung.
		k.Deadline = time.Now().Add(timeout)
	}
	k.MaxInsts = maxInsts
	// The exec fault site sits after the deadline is armed, so an injected
	// delay ("hang") burns the job's wall-clock budget and the watchdog
	// kills the run at its first interrupt poll — the honest simulation of
	// a hung workload, partial counters included.
	if err := fault.Check(fault.SiteExec, label); err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", label, err)
	}
	for p, data := range req.Files {
		if err := k.FS.WriteFileAll(p, data); err != nil {
			return nil, &classedError{ClassRuntime, fmt.Errorf("pipeline: populating %s: %w", p, err)}
		}
	}
	p, err := spawn(k, argv)
	if err != nil {
		return nil, &classedError{ClassRuntime, err}
	}
	code, err := k.WaitPID(p.PID)
	if err != nil {
		var we *kernel.WatchdogError
		if errors.As(err, &we) {
			return nil, &TimeoutError{
				Label:    label,
				Wall:     we.Wall,
				Timeout:  timeout,
				MaxInsts: maxInsts,
				Partial:  p.Inst.Counters,
			}
		}
		return nil, &classedError{ClassRuntime, fmt.Errorf("pipeline: process failed: %w", err)}
	}
	return &Result{
		ExitCode: code,
		Stdout:   string(k.Console),
		Counters: p.Inst.Counters,
		Proc:     p,
	}, nil
}

// Do is the serving unit: Compile then Execute, one Request in, one Result
// out. The Result carries this request's own build-cache traffic — a warm
// repeat of an identical request reports Cache.Misses == 0.
func Do(ctx context.Context, req *Request) (*Result, error) {
	// When faults are armed, default the fault-site label to argv[0] (the
	// workload name on suite paths) so compile/exec rules can target one
	// workload without every caller threading WithLabel itself.
	if fault.Enabled() && fault.LabelOf(ctx) == "" && len(req.Argv) > 0 {
		ctx = fault.WithLabel(ctx, req.Argv[0])
	}
	cm, delta, err := compileCounted(ctx, req)
	if err != nil {
		return nil, err
	}
	res, err := Execute(ctx, cm, req)
	if err != nil {
		return nil, err
	}
	res.Cache = delta
	return res, nil
}
