package fuzzgen

// The differential oracle. One generated module runs through the reference
// interpreter and then, per engine configuration, through the candidate
// matrix the rest of the repo already pins pairwise:
//
//	predecode/exact   — the default micro-op engine, reference fidelity
//	legacy/exact      — the instruction-at-a-time dispatcher, same code
//	predecode/functional — the fast tier (architectural counters only)
//
// Candidates run through pipeline.Do like every other workload, so the
// oracle also exercises the build cache, the kernel, and the watchdog. The
// agreement contract:
//
//	predecode/exact vs interpreter  same exit code, same trap kind
//	legacy vs predecode (exact)     bit-identical perf counters
//	functional vs exact (predecode) identical architectural counters,
//	                                zero timing counters
//
// Trap kinds, not messages, are compared: each engine words its traps
// differently, and the checked configurations funnel their table-bounds,
// signature, and stack checks to one out-of-line ud2 stub, so a machine
// "unreachable" matches a reference indirect-call or stack trap.

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/wasm"
)

// TrapKind is a normalized trap category, comparable across the
// interpreter's and the machine's message vocabularies.
type TrapKind string

// Trap kinds, in classification order.
const (
	TrapNone        TrapKind = ""
	TrapConversion  TrapKind = "bad-conversion"  // float→int of NaN or out-of-range
	TrapDivZero     TrapKind = "div-zero"        // integer division by zero
	TrapOverflow    TrapKind = "overflow"        // INT_MIN / -1
	TrapOOB         TrapKind = "oob-memory"      // linear-memory bounds
	TrapIndirect    TrapKind = "bad-indirect"    // table bounds, null entry, signature
	TrapUnreachable TrapKind = "unreachable"     // unreachable, and every engine-check ud2
	TrapStack       TrapKind = "stack-exhausted" // call depth / stack limit
	TrapFuel        TrapKind = "fuel"            // interpreter fuel or watchdog instruction limit
	TrapOther       TrapKind = "other"
)

// TrapKindOf classifies a trap message from either the reference
// interpreter (wasm.Trap) or the simulator (cpu.TrapError).
func TrapKindOf(msg string) TrapKind {
	switch {
	case msg == "":
		return TrapNone
	case strings.Contains(msg, "conversion"):
		return TrapConversion
	case strings.Contains(msg, "divide by zero"):
		return TrapDivZero
	case strings.Contains(msg, "integer overflow"):
		return TrapOverflow
	case strings.Contains(msg, "out-of-bounds"):
		return TrapOOB
	case strings.Contains(msg, "call_indirect"), strings.Contains(msg, "indirect call"),
		strings.Contains(msg, "table index"), strings.Contains(msg, "null table"),
		strings.Contains(msg, "signature mismatch"):
		return TrapIndirect
	case strings.Contains(msg, "unreachable"):
		return TrapUnreachable
	case strings.Contains(msg, "stack"):
		return TrapStack
	case strings.Contains(msg, "fuel"), strings.Contains(msg, "budget"),
		strings.Contains(msg, "instruction limit"):
		return TrapFuel
	default:
		return TrapOther
	}
}

// TrapMatches reports whether a machine trap kind is consistent with the
// reference interpreter's. Exact matches aside, the checked engine
// configurations implement table-bounds, signature, and stack checks as
// jumps to a shared ud2 stub, so those reference kinds legitimately
// surface as "unreachable" in the machine.
func TrapMatches(machine, ref TrapKind) bool {
	if machine == ref {
		return true
	}
	return machine == TrapUnreachable && (ref == TrapIndirect || ref == TrapStack)
}

// Outcome is one run's observable behavior, in either engine family.
type Outcome struct {
	ExitCode int
	TrapKind TrapKind
	TrapMsg  string
	Stdout   string
	Counters perf.Counters
	HasCtrs  bool  // counters are only observable on non-trapping runs
	Err      error // infrastructure failure (compile rejection, kernel error)
}

func (o *Outcome) String() string {
	switch {
	case o.Err != nil:
		return fmt.Sprintf("error: %v", o.Err)
	case o.TrapKind != TrapNone:
		return fmt.Sprintf("trap[%s]: %s", o.TrapKind, o.TrapMsg)
	default:
		return fmt.Sprintf("exit %d", o.ExitCode)
	}
}

// Divergence is one oracle disagreement: which candidate variant, which
// compared field, and the two sides.
type Divergence struct {
	Variant string // "engine/dispatch/fidelity"
	Field   string // "exit-code", "trap-kind", "counters", "arch-counters", "timing-counters", "stdout", "error"
	Want    string // reference / baseline side
	Got     string // candidate side
}

func (d *Divergence) String() string {
	return fmt.Sprintf("%s: %s diverged: want %s, got %s", d.Variant, d.Field, d.Want, d.Got)
}

// Verdict is the oracle's result for one module: the reference outcome,
// every candidate outcome, and the first divergence found (nil = all
// engines agree). Skipped is set when the module cannot be judged (the
// reference ran out of fuel) — not an agreement, not a failure.
type Verdict struct {
	Seed       uint64 // filled by RunSeed; 0 when diffing a raw module
	Reference  *Outcome
	Runs       map[string]*Outcome
	Divergence *Divergence
	Skipped    string
}

// OK reports agreement (a skipped module is not OK and not divergent).
func (v *Verdict) OK() bool { return v.Divergence == nil && v.Skipped == "" }

func (v *Verdict) String() string {
	switch {
	case v.Skipped != "":
		return "skipped: " + v.Skipped
	case v.Divergence != nil:
		return v.Divergence.String()
	default:
		return fmt.Sprintf("agree: %s", v.Reference)
	}
}

// DiffConfig names the candidate engine configurations to oracle against
// the interpreter.
type DiffConfig struct {
	// Engines lists stock engine names; nil means the default oracle
	// matrix (native, chrome, firefox — the asm.js configurations mask
	// addresses instead of bounds-checking, so their out-of-bounds
	// semantics legitimately differ from wasm's).
	Engines []string

	// MaxInsts bounds each candidate run (default 2e9); the reference
	// interpreter gets a proportional fuel budget. Instruction limits, not
	// wall clocks: verdicts stay deterministic under load.
	MaxInsts uint64
}

// DefaultEngines is the stock oracle matrix.
func DefaultEngines() []string { return []string{"native", "chrome", "firefox"} }

// refFuel is the interpreter step budget: generated programs finish in
// thousands of steps, so hitting this means a generator bug, and the module
// is reported Skipped rather than judged.
const refFuel = 50_000_000

// diffArgv is the argv every oracle run uses — fixed so the kernel's
// argument block (which _start folds into the checksum) is identical
// between the reference and every candidate.
var diffArgv = []string{"fuzz"}

// runReference executes the module on the interpreter, replicating the
// kernel loader's contract: the argument block at argsBase with 4-byte
// pointer slots, then _start(argc, argv).
func runReference(m *wasm.Module) (*Outcome, error) {
	inst, err := wasm.Instantiate(m, nil)
	if err != nil {
		return nil, fmt.Errorf("instantiating reference: %w", err)
	}
	inst.MaxSteps = refFuel
	const argsBase = 1024
	lin := inst.Mem.Bytes
	ptrs := argsBase
	off := argsBase + 4*(len(diffArgv)+1)
	for i, a := range diffArgv {
		putU32(lin, ptrs+4*i, uint32(off))
		copy(lin[off:], a)
		lin[off+len(a)] = 0
		off += len(a) + 1
	}
	putU32(lin, ptrs+4*len(diffArgv), 0)
	ret, err := inst.Invoke("_start", uint64(len(diffArgv)), argsBase)
	if err != nil {
		var tr *wasm.Trap
		if errors.As(err, &tr) {
			return &Outcome{ExitCode: 128, TrapKind: TrapKindOf(tr.Msg), TrapMsg: tr.Msg}, nil
		}
		return nil, err
	}
	if len(ret) != 1 {
		return nil, fmt.Errorf("reference _start returned %d values", len(ret))
	}
	return &Outcome{ExitCode: int(int32(ret[0]))}, nil
}

func putU32(b []byte, off int, v uint32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}

// runCandidate executes the encoded module through the pipeline under one
// engine × dispatch × fidelity variant.
func runCandidate(ctx context.Context, wasmBytes []byte, engine, dispatch, fidelity string, maxInsts uint64) *Outcome {
	req := &pipeline.Request{
		Wasm:     wasmBytes,
		Engine:   engine,
		Dispatch: dispatch,
		Fidelity: fidelity,
		Argv:     diffArgv,
		Limits:   config.Limits{MaxInsts: maxInsts},
	}
	res, err := pipeline.Do(ctx, req)
	if err != nil {
		var te *cpu.TrapError
		if errors.As(err, &te) {
			return &Outcome{ExitCode: 128, TrapKind: TrapKindOf(te.Msg), TrapMsg: te.Msg}
		}
		var to *pipeline.TimeoutError
		if errors.As(err, &to) {
			return &Outcome{ExitCode: 128, TrapKind: TrapFuel, TrapMsg: "instruction limit exceeded"}
		}
		return &Outcome{Err: err}
	}
	return &Outcome{ExitCode: res.ExitCode, Stdout: res.Stdout, Counters: res.Counters, HasCtrs: true}
}

// Diff runs one module through the reference interpreter and the full
// candidate matrix, returning the first divergence found. The error return
// is for oracle infrastructure problems only (an interpreter that cannot
// even instantiate the module); engine disagreements, including compile
// rejections of a valid module, are Divergences.
func Diff(ctx context.Context, m *wasm.Module, cfg DiffConfig) (*Verdict, error) {
	engines := cfg.Engines
	if len(engines) == 0 {
		engines = DefaultEngines()
	}
	maxInsts := cfg.MaxInsts
	if maxInsts == 0 {
		maxInsts = 2_000_000_000
	}
	ref, err := runReference(m)
	if err != nil {
		return nil, err
	}
	v := &Verdict{Reference: ref, Runs: map[string]*Outcome{}}
	if ref.TrapKind == TrapFuel {
		v.Skipped = "reference interpreter ran out of fuel"
		return v, nil
	}
	bytes := wasm.Encode(m)
	diverge := func(variant, field, want, got string) {
		if v.Divergence == nil {
			v.Divergence = &Divergence{Variant: variant, Field: field, Want: want, Got: got}
		}
	}
	for _, eng := range engines {
		exact := runCandidate(ctx, bytes, eng, "predecode", "exact", maxInsts)
		legacy := runCandidate(ctx, bytes, eng, "legacy", "exact", maxInsts)
		functional := runCandidate(ctx, bytes, eng, "predecode", "functional", maxInsts)
		v.Runs[eng+"/predecode/exact"] = exact
		v.Runs[eng+"/legacy/exact"] = legacy
		v.Runs[eng+"/predecode/functional"] = functional

		// Candidate vs reference: behavior. Fixed slice order, not a map:
		// when several variants diverge, the reported one must be
		// deterministic (the shrinker keys on variant+field).
		for _, vo := range []struct {
			variant string
			o       *Outcome
		}{
			{eng + "/predecode/exact", exact},
			{eng + "/legacy/exact", legacy},
			{eng + "/predecode/functional", functional},
		} {
			variant, o := vo.variant, vo.o
			switch {
			case o.Err != nil:
				diverge(variant, "error", ref.String(), o.String())
			case !TrapMatches(o.TrapKind, ref.TrapKind):
				diverge(variant, "trap-kind", ref.String(), o.String())
			case o.TrapKind == TrapNone && o.ExitCode != ref.ExitCode:
				diverge(variant, "exit-code", ref.String(), o.String())
			case o.Stdout != "":
				diverge(variant, "stdout", `""`, fmt.Sprintf("%q", o.Stdout))
			}
		}

		// Legacy vs predecode: bit-identical counters (PR 1's contract).
		if exact.HasCtrs && legacy.HasCtrs && exact.Counters != legacy.Counters {
			diverge(eng+"/legacy/exact", "counters",
				fmt.Sprintf("%+v", exact.Counters), fmt.Sprintf("%+v", legacy.Counters))
		}

		// Functional vs exact: architectural counters identical, timing zero.
		if exact.HasCtrs && functional.HasCtrs {
			if exact.Counters.Arch() != functional.Counters.Arch() {
				diverge(eng+"/predecode/functional", "arch-counters",
					fmt.Sprintf("%+v", exact.Counters), fmt.Sprintf("%+v", functional.Counters))
			} else if !functional.Counters.TimingZero() {
				diverge(eng+"/predecode/functional", "timing-counters",
					"all zero", fmt.Sprintf("%+v", functional.Counters))
			}
		}
	}
	return v, nil
}

// RunSeed generates the module for one seed and diffs it: the fuzzing
// loop's unit of work.
func RunSeed(ctx context.Context, seed uint64, opt Options, cfg DiffConfig) (*Verdict, error) {
	v, err := Diff(ctx, Generate(seed, opt), cfg)
	if err != nil {
		return nil, err
	}
	v.Seed = seed
	return v, nil
}
