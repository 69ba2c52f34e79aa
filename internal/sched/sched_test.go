package sched

// Tests for the shared worker budget and the budget-aware job runner: the
// token accounting, the inline-progress guarantee that makes nested
// fan-outs deadlock-free, the process-wide goroutine bound, and the
// error-aggregation and cancellation semantics RunJobs has always had.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withCapacity pins the shared budget's capacity for one test and restores
// it on cleanup.
func withCapacity(t *testing.T, n int) {
	t.Helper()
	prev := SetSharedCapacity(n)
	Shared().ResetPeak()
	t.Cleanup(func() { SetSharedCapacity(prev) })
}

func TestBudgetWeightedAcquire(t *testing.T) {
	b := NewBudget(4)
	if got := b.Capacity(); got != 4 {
		t.Fatalf("Capacity = %d, want 4", got)
	}
	if !b.TryAcquire(3) {
		t.Fatal("TryAcquire(3) on an empty 4-token budget failed")
	}
	if b.TryAcquire(2) {
		t.Fatal("TryAcquire(2) with 1 free token succeeded")
	}
	if got := b.InUse(); got != 3 {
		t.Fatalf("InUse = %d, want 3", got)
	}
	if got := b.Available(); got != 1 {
		t.Fatalf("Available = %d, want 1", got)
	}
	if !b.TryAcquire(1) {
		t.Fatal("TryAcquire(1) with 1 free token failed")
	}
	b.Release(3)
	if !b.TryAcquire(2) {
		t.Fatal("TryAcquire(2) after Release(3) failed")
	}
	if got := b.Peak(); got != 4 {
		t.Fatalf("Peak = %d, want 4", got)
	}
	b.Release(2)
	b.Release(1)
	b.ResetPeak()
	if got := b.Peak(); got != 0 {
		t.Fatalf("Peak after ResetPeak = %d, want 0", got)
	}
}

func TestBudgetReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without acquire did not panic")
		}
	}()
	NewBudget(2).Release(1)
}

// TestRunJobsInlineProgressWithExhaustedBudget pins the deadlock-freedom
// guarantee: with every token held elsewhere, RunJobs still completes all
// jobs (on the calling goroutine), with parallelism exactly 1.
func TestRunJobsInlineProgressWithExhaustedBudget(t *testing.T) {
	withCapacity(t, 2)
	if !Shared().TryAcquire(2) {
		t.Fatal("could not drain the budget")
	}
	defer Shared().Release(2)

	var inFlight, peak, ran atomic.Int64
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = func(context.Context) error {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			ran.Add(1)
			return nil
		}
	}
	if err := RunJobs(context.Background(), 8, jobs); err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	if ran.Load() != 16 {
		t.Fatalf("ran %d jobs, want 16", ran.Load())
	}
	if peak.Load() != 1 {
		t.Fatalf("peak parallelism %d with exhausted budget, want 1", peak.Load())
	}
}

// TestRunJobsParallelismWithinBudget pins the token bound: concurrency
// never exceeds the budget capacity even when the requested worker count
// is far larger, and the budget's own high-water mark stays at capacity.
func TestRunJobsParallelismWithinBudget(t *testing.T) {
	const capacity = 3
	withCapacity(t, capacity)

	var inFlight, peak atomic.Int64
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = func(context.Context) error {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			return nil
		}
	}
	if err := RunJobs(context.Background(), 32, jobs); err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	// The caller holds one token for itself, so even its inline slot is
	// charged: total parallelism == capacity, not capacity+1.
	if peak.Load() > capacity {
		t.Fatalf("peak parallelism %d exceeds budget capacity %d", peak.Load(), capacity)
	}
	if got := Shared().Peak(); got > capacity {
		t.Fatalf("budget peak %d exceeds capacity %d", got, capacity)
	}
	if got := Shared().InUse(); got != 0 {
		t.Fatalf("tokens leaked: InUse = %d after RunJobs", got)
	}
}

// TestRunJobsNestedStaysWithinBudget fans out a suite whose jobs each fan
// out again, the shape of a cold suite start (RunJobs -> per-function
// compile). Total parallelism across both layers must respect the one
// shared budget.
func TestRunJobsNestedStaysWithinBudget(t *testing.T) {
	const capacity = 4
	withCapacity(t, capacity)

	var inFlight, peak atomic.Int64
	leaf := func(context.Context) error {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	}
	outer := make([]Job, 8)
	for i := range outer {
		outer[i] = func(ctx context.Context) error {
			inner := make([]Job, 16)
			for j := range inner {
				inner[j] = leaf
			}
			return RunJobs(ctx, 8, inner)
		}
	}
	if err := RunJobs(context.Background(), 8, outer); err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	// Every leaf-running goroutine is either the top-level caller (free
	// slot) or holds a budget token, so leaf parallelism is bounded by
	// capacity + 1 at any nesting depth.
	if peak.Load() > capacity+1 {
		t.Fatalf("nested peak parallelism %d exceeds capacity+1 = %d", peak.Load(), capacity+1)
	}
	if got := Shared().Peak(); got > capacity {
		t.Fatalf("budget peak %d exceeds capacity %d", got, capacity)
	}
	if got := Shared().InUse(); got != 0 {
		t.Fatalf("tokens leaked: InUse = %d", got)
	}
}

// TestRunJobsAggregatesAllErrors pins the multi-failure contract: every
// failing job appears in the aggregate, in job order.
func TestRunJobsAggregatesAllErrors(t *testing.T) {
	withCapacity(t, 4)
	jobs := make([]Job, 10)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) error {
			if i%3 == 0 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		}
	}
	err := RunJobs(context.Background(), 4, jobs)
	if err == nil {
		t.Fatal("RunJobs returned nil with failing jobs")
	}
	for _, want := range []string{"job 0 failed", "job 3 failed", "job 6 failed", "job 9 failed"} {
		if !errorsContains(err, want) {
			t.Errorf("aggregate error missing %q: %v", want, err)
		}
	}
}

// TestRunJobsCancellation pins that cancellation stops dispatch and appears
// in the aggregate.
func TestRunJobsCancellation(t *testing.T) {
	withCapacity(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	jobs := make([]Job, 100)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		}
	}
	err := RunJobs(ctx, 2, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate error does not include cancellation: %v", err)
	}
	if ran.Load() == 100 {
		t.Fatal("cancellation did not stop dispatch")
	}
}

// TestRunJobsConcurrentFanoutsShareBudget runs several top-level fan-outs
// at once; the token high-water mark across all of them must still respect
// the single shared budget.
func TestRunJobsConcurrentFanoutsShareBudget(t *testing.T) {
	const capacity = 3
	withCapacity(t, capacity)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs := make([]Job, 32)
			for i := range jobs {
				jobs[i] = func(context.Context) error {
					time.Sleep(50 * time.Microsecond)
					return nil
				}
			}
			if err := RunJobs(context.Background(), 8, jobs); err != nil {
				t.Errorf("RunJobs: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := Shared().Peak(); got > capacity {
		t.Fatalf("budget peak %d across concurrent fan-outs exceeds capacity %d", got, capacity)
	}
	if got := Shared().InUse(); got != 0 {
		t.Fatalf("tokens leaked: InUse = %d", got)
	}
}

func errorsContains(err error, substr string) bool {
	return err != nil && strings.Contains(err.Error(), substr)
}

// TestRunJobsContainsPanics covers the containment boundary on every worker
// path: the serial loop (workers=1), the caller's inline loop, and helper
// goroutines (workers>1). A panicking job must surface as a JobPanicError in
// the aggregate while every other job still runs.
func TestRunJobsContainsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var ran atomic.Int64
			jobs := make([]Job, 16)
			for i := range jobs {
				i := i
				jobs[i] = func(context.Context) error {
					if i == 5 {
						panic("boom-5")
					}
					ran.Add(1)
					return nil
				}
			}
			err := RunJobs(context.Background(), workers, jobs)
			var pe *JobPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want JobPanicError", err)
			}
			if pe.Value != "boom-5" {
				t.Errorf("panic value = %v, want boom-5", pe.Value)
			}
			if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "sched") {
				t.Errorf("stack not captured: %q", pe.Stack)
			}
			if got := ran.Load(); got != 15 {
				t.Errorf("ran %d non-faulted jobs, want 15", got)
			}
			if got := Shared().InUse(); got != 0 {
				t.Errorf("tokens leaked after panic: InUse = %d", got)
			}
		})
	}
}

// TestRunJobsPanicJoinedWithErrors: a panic and an ordinary error from
// different jobs must both appear in the errors.Join aggregate.
func TestRunJobsPanicJoinedWithErrors(t *testing.T) {
	jobs := []Job{
		func(context.Context) error { return nil },
		func(context.Context) error { panic("pow") },
		func(context.Context) error { return errors.New("plain failure") },
	}
	err := RunJobs(context.Background(), 2, jobs)
	var pe *JobPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("aggregate %v missing JobPanicError", err)
	}
	if !errorsContains(err, "plain failure") {
		t.Errorf("aggregate %v missing the ordinary error", err)
	}
}

func TestCapturePanicNil(t *testing.T) {
	if pe := CapturePanic("x", nil); pe != nil {
		t.Fatalf("CapturePanic(nil) = %v, want nil", pe)
	}
	pe := CapturePanic("durbin", "bad")
	if pe == nil || !strings.Contains(pe.Error(), "durbin") {
		t.Fatalf("labeled panic error = %v, want label in message", pe)
	}
}

// TestRunJobsWeightedDispatchOrder pins longest-job-first claiming: with a
// single worker, jobs start strictly in descending weight order regardless
// of slice order. Errors still aggregate in slice order.
func TestRunJobsWeightedDispatchOrder(t *testing.T) {
	withCapacity(t, 1)
	var mu sync.Mutex
	var started []int
	weights := []uint64{10, 500, 50, 1000, 1}
	jobs := make([]WeightedJob, len(weights))
	for i, w := range weights {
		i, w := i, w
		jobs[i] = WeightedJob{Weight: w, Run: func(context.Context) error {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			if i == 2 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		}}
	}
	err := RunJobsWeighted(context.Background(), 1, jobs)
	want := []int{3, 1, 2, 0, 4} // descending weight: 1000, 500, 50, 10, 1
	if fmt.Sprint(started) != fmt.Sprint(want) {
		t.Errorf("dispatch order = %v, want %v", started, want)
	}
	if err == nil || !errorsContains(err, "job 2 failed") {
		t.Errorf("aggregate error missing job 2 failure: %v", err)
	}
}

// TestRunJobsWeightedStableTies pins that equal weights preserve slice
// order (stable sort), keeping runs deterministic.
func TestRunJobsWeightedStableTies(t *testing.T) {
	withCapacity(t, 1)
	var mu sync.Mutex
	var started []int
	jobs := make([]WeightedJob, 6)
	for i := range jobs {
		i := i
		jobs[i] = WeightedJob{Weight: uint64(7), Run: func(context.Context) error {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			return nil
		}}
	}
	if err := RunJobsWeighted(context.Background(), 1, jobs); err != nil {
		t.Fatalf("RunJobsWeighted: %v", err)
	}
	want := []int{0, 1, 2, 3, 4, 5}
	if fmt.Sprint(started) != fmt.Sprint(want) {
		t.Errorf("tie dispatch order = %v, want %v", started, want)
	}
}
