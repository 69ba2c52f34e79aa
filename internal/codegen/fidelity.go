package codegen

// Simulation-fidelity tier selection. The tier lives on EngineConfig — not
// because it changes generated code (it does not), but because everything
// downstream keys on the config: pipeline.Key hashes every EngineConfig
// field, so compiled artifacts, the disk store, and the spec harness's
// memoized results can never mix fidelities. internal/cpu interprets the
// tier (see cpu.Machine.SetFidelity); this file only defines the knob and
// its spelling, keeping codegen the single package a caller needs to
// configure an engine. Stock engine constructors never read
// $REPRO_FIDELITY themselves — a stray environment must not silently change
// what a test or golden harness measures — so callers resolve the knob
// (config.String) and set EngineConfig.Fidelity explicitly.

import "fmt"

// Fidelity selects how much of the microarchitecture the simulator models.
type Fidelity uint8

const (
	// FidelityExact is the full micro-op engine: every dcache/icache access
	// and branch prediction modeled on every retired instruction. The zero
	// value, and the oracle the functional tier is measured against.
	FidelityExact Fidelity = iota
	// FidelityFunctional retires instructions and updates architectural
	// state plus the exact-by-construction counters (instructions, loads,
	// stores, branches) but models no caches, branch predictor, or cycles.
	FidelityFunctional
)

// String returns the tier's knob spelling.
func (f Fidelity) String() string {
	if f == FidelityFunctional {
		return "functional"
	}
	return "exact"
}

// ParseFidelity parses a $REPRO_FIDELITY / -fidelity value.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "", "exact":
		return FidelityExact, nil
	case "functional":
		return FidelityFunctional, nil
	}
	return FidelityExact, fmt.Errorf("codegen: unknown fidelity %q (want exact or functional)", s)
}
