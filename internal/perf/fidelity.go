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
func (r FidelityRow) ArchExact() bool { return r.Exact.Arch() == r.Approx.Arch() }

// Arch returns the architectural counter subset of c — loads, stores,
// branches, conditional branches, instructions — with every timing counter
// zero. Tiers compare on it: they must agree on it bit for bit.
func (c Counters) Arch() Counters {
	return Counters{
		Loads:        c.Loads,
		Stores:       c.Stores,
		Branches:     c.Branches,
		CondBranches: c.CondBranches,
		Instructions: c.Instructions,
	}
}

// TimingZero reports whether every timing counter of c is zero, the
// functional tier's contract: it must not fabricate cycles or miss counts.
func (c Counters) TimingZero() bool { return c == c.Arch() }
