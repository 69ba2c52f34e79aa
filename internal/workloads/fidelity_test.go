package workloads

import (
	"context"
	"testing"

	"repro/internal/codegen"
)

// TestFunctionalSuiteArchExact pins the functional tier through the full
// pipeline (kernel, syscalls, host calls — not just the bare machine): the
// architectural counters must be bit-identical to exact and the timing
// counters must be zero.
func TestFunctionalSuiteArchExact(t *testing.T) {
	ws := ByName(Polybench(), "2mm")
	rows, err := MeasureFidelity(context.Background(), ws, codegen.Native())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.ArchExact() {
			t.Errorf("%s: architectural counters diverged under functional tier:\n exact:      %v\n functional: %v",
				r.Workload, r.Exact.String(), r.Approx.String())
		}
		c := r.Approx
		if c.Cycles != 0 || c.L1IMisses != 0 || c.L1DMisses != 0 || c.L2Misses != 0 || c.BranchMiss != 0 {
			t.Errorf("%s: functional tier produced timing counts: %v", r.Workload, c.String())
		}
	}
}
