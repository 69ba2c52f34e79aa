package spec_test

// The acceptance shape of the failure-containment work, end to end: with a
// panic injected into one workload's compile and a hang injected into
// another's exec, a degraded suite run completes — the two faulted
// workloads come back as typed failed rows (JobPanicError with a stack,
// TimeoutError with partial counters), every other row is bit-identical to
// a fault-free run, and the suite-level error is a SuiteFailure.
//
// The workload sources carry marker comments: comments lex away (identical
// artifacts) but change the pipeline cache key, so the fault-poisoned cache
// entries this test creates can never be served to the real suites.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// degradedSrc builds a distinct spin workload: the marker comment isolates
// this test's cache keys, and the loop retires well past one watchdog poll
// interval so an armed deadline is actually observed. degradedSpins sets
// its length, shorter under the race detector.
func degradedSrc(name, marker string) string {
	return fmt.Sprintf(`/* degraded-suite-test %s %s */
int spin(int n) {
  int i; int acc;
  acc = 0;
  for (i = 0; i < n; i++) { acc += i * 3 + 1; }
  return acc;
}
int main() {
  int r; int k;
  r = 0;
  for (k = 0; k < %d; k++) { r += spin(10000); }
  print_int(r);
  print_nl();
  return 0;
}`, name, marker, degradedSpins)
}

func degradedSuite(marker string) []*workloads.Workload {
	mk := func(name string) *workloads.Workload {
		return &workloads.Workload{Name: name, Source: degradedSrc(name, marker)}
	}
	return []*workloads.Workload{mk("deg-a"), mk("deg-b"), mk("deg-c"), mk("deg-d")}
}

// degradedRuns numbers the runs of TestDegradedSuiteContainsInjectedFaults
// in this process: the injected compile panic poisons the build-cache
// entry of the faulted deg-b source, so each run needs a source of its own
// for its compile to reach the fault site again (-count=N).
var degradedRuns atomic.Int64

func TestDegradedSuiteContainsInjectedFaults(t *testing.T) {
	if testing.Short() {
		// A wall-clock run around a 4 s injected hang: the full tier runs
		// it, under -race too (with degradedSpins shortened to keep the
		// honest rows inside the 2 s watchdog). In the short tier the
		// codegen fault stress test covers containment.
		t.Skip("wall-clock watchdog run; full tier only")
	}
	cfgs := []*codegen.EngineConfig{codegen.Native(), codegen.Chrome()}

	// Fault-free reference run. deg-b gets a different marker here so the
	// faulted run's compile is a cache miss (the fault site lives inside the
	// build path; a memory hit would never reach it). Comments don't change
	// the artifact, so this does not perturb any measurement.
	base := degradedSuite("baseline")
	base[1].Source = degradedSrc("deg-b", "baseline-only")
	h0 := spec.NewHarness()
	baseRes, err := h0.RunSuite(context.Background(), base, cfgs)
	if err != nil {
		t.Fatal(err)
	}

	disarm, err := fault.ArmSpec("compile@deg-b=panic:*,exec@deg-c=delay:*:4s")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	restore := pipeline.SetJobLimits(2*time.Second, 0)
	defer restore()

	faulted := degradedSuite("baseline")
	faulted[1].Source = degradedSrc("deg-b", fmt.Sprintf("faulted-only-%d", degradedRuns.Add(1)))
	h1 := spec.NewHarness()
	h1.Degraded = true
	out, err := h1.RunSuite(context.Background(), faulted, cfgs)
	if err == nil {
		t.Fatal("degraded run with armed faults must return an error")
	}
	var sf *spec.SuiteFailure
	if !errors.As(err, &sf) {
		t.Fatalf("error is not a SuiteFailure: %v", err)
	}
	if len(sf.Failures) != 4 || sf.Total != 8 {
		t.Fatalf("want 4 of 8 runs failed, got %d of %d: %v", len(sf.Failures), sf.Total, err)
	}
	if out == nil {
		t.Fatal("degraded run must still return the partial result matrix")
	}

	for wi, w := range faulted {
		for ci := range cfgs {
			r := out[wi][ci]
			switch w.Name {
			case "deg-b": // injected compile panic
				var pe *sched.JobPanicError
				if r.Err == nil || !errors.As(r.Err, &pe) {
					t.Errorf("%s/%s: want JobPanicError, got %v", w.Name, cfgs[ci].Name, r.Err)
					continue
				}
				if len(pe.Stack) == 0 {
					t.Errorf("%s/%s: contained panic lost its stack", w.Name, cfgs[ci].Name)
				}
			case "deg-c": // injected exec hang, killed by the watchdog
				var te *pipeline.TimeoutError
				if r.Err == nil || !errors.As(r.Err, &te) {
					t.Errorf("%s/%s: want TimeoutError, got %v", w.Name, cfgs[ci].Name, r.Err)
					continue
				}
				if !te.Wall {
					t.Errorf("%s/%s: watchdog kill should be wall-clock, got %+v", w.Name, cfgs[ci].Name, te)
				}
				// The deadline has passed before the chain spawns, so the
				// benchmark dies at its first poll; runspec, the waited root,
				// retires only a few dozen instructions.
				if te.Partial.Instructions < kernel.DefaultPollInterval {
					t.Errorf("%s/%s: partial counters are not the benchmark's: %d insts", w.Name, cfgs[ci].Name, te.Partial.Instructions)
				}
			default: // surviving rows: bit-identical to the fault-free run
				if r.Err != nil {
					t.Errorf("%s/%s: unfaulted run failed: %v", w.Name, cfgs[ci].Name, r.Err)
					continue
				}
				if !reflect.DeepEqual(r, baseRes[wi][ci]) {
					t.Errorf("%s/%s: result differs from fault-free run:\n got %+v\nwant %+v",
						w.Name, cfgs[ci].Name, r, baseRes[wi][ci])
				}
			}
		}
	}
}

// TestInstructionCeiling runs a workload into the retired-instruction
// ceiling through both callers of the shared kernel policy
// (pipeline.ExecuteWith): a single binary via pipeline.Do with per-request
// limits, and the Figure 2 chain via spec.Harness.Run under the
// process-wide limits. Both must report an instruction-limit TimeoutError
// labelled with the workload and carrying the benchmark's partial counters.
func TestInstructionCeiling(t *testing.T) {
	// Below one poll interval, so the kill comes at the first poll.
	const maxInsts = kernel.DefaultPollInterval / 2
	w := &workloads.Workload{Name: "ceiling", Source: degradedSrc("ceiling", "instruction-ceiling")}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"pipeline.Do", func() error {
			_, err := pipeline.Do(ctx, &pipeline.Request{
				Module: w.Source,
				Config: codegen.Native(),
				Argv:   []string{w.Name},
				Limits: config.Limits{MaxInsts: maxInsts},
			})
			return err
		}},
		{"spec.Harness.Run", func() error {
			defer pipeline.SetJobLimits(0, maxInsts)()
			_, err := spec.NewHarness().Run(ctx, w, codegen.Native())
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			var te *pipeline.TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("want TimeoutError, got %v", err)
			}
			if te.Wall {
				t.Errorf("kill should be the instruction limit, got wall clock: %v", te)
			}
			if te.Label != w.Name {
				t.Errorf("label %q, want %q", te.Label, w.Name)
			}
			if te.Partial.Instructions < maxInsts {
				t.Errorf("partial counters retired %d insts, want >= %d", te.Partial.Instructions, maxInsts)
			}
			if c := pipeline.Classify(err); c != pipeline.ClassTimeout {
				t.Errorf("Classify = %q, want %q", c, pipeline.ClassTimeout)
			}
		})
	}
}
