package perf

// Fidelity comparison: one workload's counters on the exact oracle and on
// the functional tier. The architectural counters — loads, stores,
// branches, conditional branches, instructions — are exact by construction
// in every tier, so any divergence there is a bug, not an approximation.

// FidelityRow is one workload's counter comparison.
type FidelityRow struct {
	Workload      string
	Exact, Approx Counters
}

// ArchExact reports whether the architectural counter subset is
// bit-identical — the invariant every tier must uphold.
func (r FidelityRow) ArchExact() bool {
	return r.Exact.Loads == r.Approx.Loads &&
		r.Exact.Stores == r.Approx.Stores &&
		r.Exact.Branches == r.Approx.Branches &&
		r.Exact.CondBranches == r.Approx.CondBranches &&
		r.Exact.Instructions == r.Approx.Instructions
}
