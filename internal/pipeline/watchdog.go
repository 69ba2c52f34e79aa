package pipeline

// Per-job watchdog: every execution can carry a wall-clock deadline and a
// retired-instruction ceiling, enforced inside the kernel's existing
// SetInterrupt polling (no extra goroutines, no timers racing the
// simulation). A tripped watchdog kills the process tree and surfaces as a
// typed TimeoutError carrying the counters accumulated up to the kill — the
// partial result is real data (the machine flushes its cycle accounting on
// the interrupt path), not garbage, so degraded suite rows can still report
// how far a hung workload got.
//
// Limits resolve like every other knob (internal/config): a per-request
// value on pipeline.Request wins, then the $REPRO_JOB_TIMEOUT /
// $REPRO_JOB_MAX_INSTS environment, then "unbounded".

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/perf"
)

// TimeoutError reports a run killed by the per-job watchdog. Partial holds
// the waited process's counters at the kill point (the benchmark's, on the
// Figure 2 chain) — accurate (cycles are flushed before the interrupt
// unwinds) but incomplete by definition.
type TimeoutError struct {
	// Label identifies the job (the workload name on suite paths, argv[0]
	// otherwise).
	Label string
	// Wall is true when the wall-clock deadline expired, false when the
	// instruction limit was hit.
	Wall bool
	// Timeout and MaxInsts are the limits that were armed.
	Timeout  time.Duration
	MaxInsts uint64
	// Partial is the killed process's perf counters at the kill.
	Partial perf.Counters
}

func (e *TimeoutError) Error() string {
	if e.Wall {
		return fmt.Sprintf("pipeline: %s: watchdog timeout after %v (%d insts retired)",
			e.Label, e.Timeout, e.Partial.Instructions)
	}
	return fmt.Sprintf("pipeline: %s: watchdog instruction limit %d hit (%d insts retired)",
		e.Label, e.MaxInsts, e.Partial.Instructions)
}

var (
	limitsOnce sync.Once
	limitsMu   sync.Mutex
	jobLimits  config.Limits
)

// initLimitsFromEnv parses the watchdog knobs once per process, warning on
// unparsable values instead of silently running unguarded — someone who
// armed a timeout and mistyped it should not discover that via a hung CI
// job.
func initLimitsFromEnv() {
	l, errs := config.LimitsFromEnv()
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "pipeline: %v; that watchdog limit is disabled\n", err)
	}
	jobLimits = l
}

// JobLimits returns the armed per-job watchdog limits (zero = disabled).
func JobLimits() (timeout time.Duration, maxInsts uint64) {
	limitsOnce.Do(initLimitsFromEnv)
	limitsMu.Lock()
	defer limitsMu.Unlock()
	return jobLimits.Timeout.Std(), jobLimits.MaxInsts
}

// effectiveLimits resolves one request's watchdog bounds: the request's own
// Limits when any are set, else the process-wide JobLimits. A request that
// sets only one field still overrides both — "this request's policy" is
// atomic, not merged field-by-field with the environment.
func effectiveLimits(req config.Limits) (timeout time.Duration, maxInsts uint64) {
	if !req.IsZero() {
		return req.Timeout.Std(), req.MaxInsts
	}
	return JobLimits()
}

// SetJobLimits overrides the watchdog limits process-wide and returns a
// restore function (tests; zero disables a limit).
func SetJobLimits(timeout time.Duration, maxInsts uint64) (restore func()) {
	limitsOnce.Do(initLimitsFromEnv)
	limitsMu.Lock()
	defer limitsMu.Unlock()
	prev := jobLimits
	jobLimits = config.Limits{Timeout: config.Duration(timeout), MaxInsts: maxInsts}
	return func() {
		limitsMu.Lock()
		defer limitsMu.Unlock()
		jobLimits = prev
	}
}
