package workloads_test

import (
	"context"
	"os"
	"testing"

	"repro/internal/codegen"
	"repro/internal/pipeline"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// TestMain prints the build-cache summary after the suite: with a warm
// artifact store a full run reports zero misses (every module came from
// memory or disk), which is the cheap way to spot a cold CI cache.
func TestMain(m *testing.M) {
	code := m.Run()
	pipeline.ReportTotals("workloads")
	os.Exit(code)
}

// runSuiteSharded runs every workload × engine combination through the
// Browsix-SPEC suite runner (spec.Harness.RunSuite) in strict mode: the
// suite is one sharded job list with bounded parallelism, every failure is
// reported (not just the first), and the cmp validation compares each row's
// outputs across engines.
func runSuiteSharded(t *testing.T, suite []*workloads.Workload, cfgs []*codegen.EngineConfig) {
	t.Helper()
	before := pipeline.Stats()
	if _, err := spec.NewHarness().RunSuite(context.Background(), suite, cfgs); err != nil {
		t.Fatal(err)
	}
	t.Logf("suite cache: %v", pipeline.Stats().Sub(before))
}

// TestPolybenchDifferential runs every Polybench kernel on native and
// Chrome through the Figure 2 harness and requires identical output (the
// cmp validation). Short mode runs the scaled-down subset.
func TestPolybenchDifferential(t *testing.T) {
	suite := workloads.Polybench()
	if testing.Short() {
		suite = workloads.ShortPolybench()
	}
	runSuiteSharded(t, suite, []*codegen.EngineConfig{codegen.Native(), codegen.Chrome()})
}

// TestSPECDifferential runs every SPEC-shaped workload on native, Chrome,
// and Firefox through the Figure 2 harness and requires identical output.
// Short mode runs the scaled-down subset.
func TestSPECDifferential(t *testing.T) {
	suite := workloads.SPECCPU()
	if testing.Short() {
		suite = workloads.ShortSPEC()
	}
	runSuiteSharded(t, suite, spec.EngineSet())
}

func TestWorkloadCounts(t *testing.T) {
	if n := len(workloads.Polybench()); n != 23 {
		t.Errorf("polybench has %d kernels, want 23", n)
	}
	if n := len(workloads.SPECCPU()); n != 15 {
		t.Errorf("spec suite has %d benchmarks, want 15", n)
	}
}
