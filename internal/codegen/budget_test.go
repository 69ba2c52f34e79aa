package codegen_test

// Pins the process-wide parallelism contract of the shared scheduler
// budget: when many modules compile concurrently (the suite cold-start
// shape), the compiles collectively borrow at most the budget's tokens —
// they do not multiply per-module fan-outs — and every artifact is still
// byte-identical to a serial reference compile.

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codegen"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// TestConcurrentCompilesStayWithinBudget runs 8 concurrent module compiles
// under a pinned budget and asserts two bounds, exactly:
//
//   - the budget's token high-water mark never exceeds its capacity, so the
//     compiles shared one pool rather than each spawning its own workers;
//   - the process's goroutine count never exceeds baseline + callers +
//     capacity: every scheduler-spawned worker holds a token, so the only
//     unbounded goroutines are the 8 callers the test itself creates (plus
//     its one monitor).
func TestConcurrentCompilesStayWithinBudget(t *testing.T) {
	const (
		budget  = 3
		callers = 8
	)
	// Each compile's fan-out asks for 8 workers, more than the budget
	// holds, so the budget is what bounds them.
	defer pinWidth(8, budget)()

	// Reference artifacts, compiled serially before the budget is measured.
	type unit struct {
		cfg  *codegen.EngineConfig
		want []byte
	}
	src := workloads.SPECCPU()[0].Source
	var units []unit
	for _, cfg := range engines() {
		m := buildModule(t, src, cfg)
		units = append(units, unit{cfg, compileAt(t, m, cfg, 0, 1)})
	}

	sched.Shared().ResetPeak()
	baseline := runtime.NumGoroutine()

	// Monitor: samples the goroutine count while the compiles run. It is
	// itself one goroutine on top of the baseline.
	var peakGoroutines atomic.Int64
	stop := make(chan struct{})
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := int64(runtime.NumGoroutine())
			for {
				p := peakGoroutines.Load()
				if n <= p || peakGoroutines.CompareAndSwap(p, n) {
					break
				}
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		u := units[c%len(units)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := buildModule(t, src, u.cfg)
			cm, err := codegen.Compile(m, u.cfg)
			if err != nil {
				errs <- err
				return
			}
			cm.CompileTime = 0
			got, err := codegen.EncodeModule(cm)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, u.want) {
				t.Errorf("%s: concurrent budget-bounded compile diverged from serial reference", u.cfg.Name)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-monitorDone
	close(errs)
	for err := range errs {
		t.Fatalf("compile: %v", err)
	}

	if got := sched.Shared().Peak(); got > budget {
		t.Errorf("budget token peak %d exceeds capacity %d", got, budget)
	}
	if got := sched.Shared().InUse(); got != 0 {
		t.Errorf("tokens leaked: InUse = %d after compiles finished", got)
	}
	// baseline + monitor + callers + budget-held workers is the hard upper
	// bound on simultaneously live goroutines.
	limit := int64(baseline + 1 + callers + budget)
	if got := peakGoroutines.Load(); got > limit {
		t.Errorf("peak goroutine count %d exceeds bound %d (baseline %d + monitor 1 + callers %d + budget %d)",
			got, limit, baseline, callers, budget)
	}
}
