package workloads

// Fidelity comparison: run a workload set twice through the full pipeline
// — once at the exact tier (the oracle) and once at the functional tier —
// and pair up the whole-run counters (perf.FidelityRow).

import (
	"context"
	"fmt"

	"repro/internal/codegen"
	"repro/internal/perf"
	"repro/internal/pipeline"
)

// MeasureFidelity runs every workload in suite under base at the exact
// tier and again at the functional tier and returns the counter pairs.
// base itself is never mutated; each run uses a copy, so the two tiers get
// distinct content-addressed cache entries.
func MeasureFidelity(ctx context.Context, suite []*Workload, base *codegen.EngineConfig) ([]perf.FidelityRow, error) {
	var rows []perf.FidelityRow
	for _, wl := range suite {
		exact, err := runCounters(ctx, wl, base, codegen.FidelityExact)
		if err != nil {
			return nil, fmt.Errorf("workloads: %s exact: %w", wl.Name, err)
		}
		approx, err := runCounters(ctx, wl, base, codegen.FidelityFunctional)
		if err != nil {
			return nil, fmt.Errorf("workloads: %s functional: %w", wl.Name, err)
		}
		rows = append(rows, perf.FidelityRow{Workload: wl.Name, Exact: exact, Approx: approx})
	}
	return rows, nil
}

// runCounters executes one workload at one tier and returns the machine's
// whole-run counters (kernel plus program — everything simulated).
func runCounters(ctx context.Context, w *Workload, base *codegen.EngineConfig, f codegen.Fidelity) (perf.Counters, error) {
	cfg := *base
	cfg.Fidelity = f
	res, err := pipeline.Do(ctx, &pipeline.Request{
		Module: w.Source,
		Config: &cfg,
		Argv:   append([]string{w.Name}, w.Args...),
		Files:  w.Files,
	})
	if err != nil {
		return perf.Counters{}, err
	}
	if res.ExitCode != 0 {
		return perf.Counters{}, fmt.Errorf("exit %d, stdout %q", res.ExitCode, res.Stdout)
	}
	return res.Proc.Inst.Counters, nil
}

// ByName returns the named workloads from suite, in the order given,
// panicking on an unknown name (a typo in a test or CI job, not a runtime
// condition).
func ByName(suite []*Workload, names ...string) []*Workload {
	out := make([]*Workload, 0, len(names))
	for _, n := range names {
		found := false
		for _, w := range suite {
			if w.Name == n {
				out = append(out, w)
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("workloads: no workload named %q", n))
		}
	}
	return out
}
