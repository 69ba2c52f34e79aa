package workloads

// Degraded-capable differential suite runner: every workload × engine pair
// runs through the shared pipeline scheduler, failures are contained (a
// panicking or hung job becomes a failed row, not an aborted suite), and
// surviving rows are cmp-validated across engines. This is the engine
// behind both the workloads differential tests and cmd/runsuite (the CI
// fault-smoke entry point).

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/codegen"
	"repro/internal/pipeline"
	"repro/internal/sched"
)

// RunFailure is one failed workload × engine execution in a differential
// suite run.
type RunFailure struct {
	Workload string
	Engine   string
	Err      error
}

// SuiteReport summarizes one RunDifferential call.
type SuiteReport struct {
	// Rows is the number of workload × engine runs attempted.
	Rows int
	// Failed lists every failed run (empty on a clean suite).
	Failed []RunFailure
	// Outputs holds each workload's per-engine stdout, indexed
	// [workload][engine]; failed cells are empty.
	Outputs [][]string
	// Cache is the build-cache traffic the suite generated.
	Cache pipeline.CacheStats
}

// Err returns nil for a clean report, or an error summarizing every
// failure (one line each; panic stacks are truncated — the full errors stay
// in Failed).
func (r *SuiteReport) Err() error {
	if len(r.Failed) == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "workloads: %d of %d runs failed", len(r.Failed), r.Rows)
	for _, f := range r.Failed {
		msg := f.Err.Error()
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i] + " ..."
		}
		fmt.Fprintf(&sb, "\n  %s on %s: %s", f.Workload, f.Engine, msg)
	}
	return fmt.Errorf("%s", sb.String())
}

// RunDifferential runs every workload in suite under every engine in cfgs
// through the pipeline scheduler and cmp-validates each workload's outputs
// across engines. With degraded set, individual failures — build errors,
// contained panics, watchdog timeouts, output mismatches — become Failed
// entries and the suite keeps going; the report's Err reflects them.
// Without it, the first failure aborts the run (the scheduler still reports
// every already-failed job, not just the first).
func RunDifferential(ctx context.Context, suite []*Workload, cfgs []*codegen.EngineConfig, degraded bool) (*SuiteReport, error) {
	before := pipeline.Stats()
	rep := &SuiteReport{Rows: len(suite) * len(cfgs), Outputs: make([][]string, len(suite))}
	failed := make([][]bool, len(suite))
	for wi := range suite {
		rep.Outputs[wi] = make([]string, len(cfgs))
		failed[wi] = make([]bool, len(cfgs))
	}
	var mu sync.Mutex
	jobs := make([]sched.WeightedJob, 0, rep.Rows)
	for wi := range suite {
		for ci := range cfgs {
			wi, ci := wi, ci
			jobs = append(jobs, sched.WeightedJob{Weight: suite[wi].ExpectedInstructions(), Run: func(ctx context.Context) error {
				if err := ctx.Err(); err != nil {
					return nil // the scheduler reports the cancellation
				}
				w, cfg := suite[wi], cfgs[ci]
				res, err := runContained(ctx, w, cfg)
				if err == nil {
					switch {
					case res.ExitCode != 0:
						err = fmt.Errorf("exit %d, stdout %q", res.ExitCode, res.Stdout)
					case res.Stdout == "":
						err = fmt.Errorf("no output")
					}
				}
				if err != nil {
					if !degraded {
						return fmt.Errorf("%s on %s: %w", w.Name, cfg.Name, err)
					}
					mu.Lock()
					rep.Failed = append(rep.Failed, RunFailure{w.Name, cfg.Name, err})
					failed[wi][ci] = true
					mu.Unlock()
					return nil
				}
				mu.Lock()
				rep.Outputs[wi][ci] = res.Stdout
				mu.Unlock()
				return nil
			}})
		}
	}
	err := sched.RunJobsWeighted(ctx, 0, jobs)
	if err != nil && !degraded {
		return nil, err
	}
	// cmp validation: every engine must produce the reference output.
	// Rows with a failed cell are skipped (there is nothing to compare);
	// a mismatch on a surviving row is itself a failure.
	for wi, row := range rep.Outputs {
		rowFailed := false
		for _, f := range failed[wi] {
			rowFailed = rowFailed || f
		}
		if rowFailed {
			continue
		}
		for ci := 1; ci < len(row); ci++ {
			if row[ci] != row[0] {
				mismatch := fmt.Errorf("output mismatch: %s %q vs %s %q",
					cfgs[0].Name, row[0], cfgs[ci].Name, row[ci])
				if !degraded {
					return nil, fmt.Errorf("%s: %w", suite[wi].Name, mismatch)
				}
				rep.Failed = append(rep.Failed, RunFailure{suite[wi].Name, cfgs[ci].Name, mismatch})
			}
		}
	}
	rep.Cache = pipeline.Stats().Sub(before)
	return rep, err
}

// runContained is pipeline.Do with scheduler-style panic containment, so a
// degraded suite can turn a panicking run into a failed row instead of a
// failed job.
func runContained(ctx context.Context, w *Workload, cfg *codegen.EngineConfig) (res *pipeline.Result, err error) {
	defer func() {
		if pe := sched.CapturePanic(w.Name+" on "+cfg.Name, recover()); pe != nil {
			res, err = nil, pe
		}
	}()
	return pipeline.Do(ctx, &pipeline.Request{
		Module: w.Source,
		Config: cfg,
		Argv:   append([]string{w.Name}, w.Args...),
		Files:  w.Files,
	})
}
