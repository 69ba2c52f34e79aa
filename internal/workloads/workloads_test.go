package workloads_test

import (
	"testing"

	"repro/internal/workloads"
)

func TestWorkloadCounts(t *testing.T) {
	if n := len(workloads.Polybench()); n != 23 {
		t.Errorf("polybench has %d kernels, want 23", n)
	}
	if n := len(workloads.SPECCPU()); n != 15 {
		t.Errorf("spec suite has %d benchmarks, want 15", n)
	}
}
