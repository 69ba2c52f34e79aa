// Package sched is the process-wide scheduler every fan-out in the
// reproduction shares: suite sharding in internal/pipeline and per-function
// module compilation in internal/codegen. It owns two things — a bounded
// job runner (RunJobs) and a weighted token Budget that caps how many extra
// worker goroutines exist across *all* concurrent fan-outs at once, at any
// nesting depth. It is a leaf package (standard library only) so the
// compiler can draw from the same budget the pipeline layers on top of it.
//
// The token protocol: a goroutine that calls RunJobs always works through
// the job list itself (its slot is "free" — it exists whether or not the
// scheduler helps it), and extra workers are spawned only while a token can
// be borrowed from the shared Budget without blocking. Helpers return their
// token when the job list runs dry. Because acquisition never blocks and
// inline progress is always possible, nested fan-outs (a suite job whose
// compile fans out per function) cannot deadlock, and the process-wide
// count of scheduler-spawned goroutines never exceeds the budget capacity
// (GOMAXPROCS, which $GOMAXPROCS sets).
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// Job is one unit of work. Jobs receive the scheduler's context and should
// return early when it is cancelled; long-running jobs that ignore it still
// finish, but no further jobs are dispatched after cancellation.
type Job func(ctx context.Context) error

// JobPanicError is a panic contained at a scheduler job boundary (or, via
// the kernel, at a simulated-process boundary): the panic value plus the
// goroutine stack captured at recovery. RunJobs converts every job panic
// into one of these and aggregates it with ordinary job errors, so one
// panicking job — a compiler bug, an injected fault — fails its own slot
// in the errors.Join result instead of killing the process and losing
// every other job's work.
type JobPanicError struct {
	// Job labels the panicking unit when the container knows a name (the
	// kernel uses the process path); RunJobs leaves it empty.
	Job string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery —
	// it includes the frames between the panic site and the job boundary.
	Stack []byte
}

func (e *JobPanicError) Error() string {
	if e.Job != "" {
		return fmt.Sprintf("sched: %s panicked: %v\n%s", e.Job, e.Value, e.Stack)
	}
	return fmt.Sprintf("sched: job panicked: %v\n%s", e.Value, e.Stack)
}

// CapturePanic converts a recovered panic value (from recover()) into a
// JobPanicError with the current stack. Containment boundaries outside the
// scheduler — the kernel's process goroutines, degraded suite runners —
// share this so every contained panic is reported in one shape. Returns
// nil for a nil recover value, so it can be called unconditionally in a
// deferred recovery block.
func CapturePanic(job string, v any) *JobPanicError {
	if v == nil {
		return nil
	}
	return &JobPanicError{Job: job, Value: v, Stack: debug.Stack()}
}

// DefaultWorkers is the scheduler's default parallelism: the machine's
// GOMAXPROCS, instead of a hardcoded width.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Budget is a weighted token pool bounding worker parallelism. Tokens are
// borrowed with TryAcquire — never a blocking wait, which is what makes the
// budget safe to share between nested fan-outs — and returned with Release.
// The zero Budget is unusable; use NewBudget.
type Budget struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	peak     int
}

// NewBudget returns a budget holding capacity tokens; capacity < 1 selects
// DefaultWorkers.
func NewBudget(capacity int) *Budget {
	if capacity < 1 {
		capacity = DefaultWorkers()
	}
	return &Budget{capacity: capacity}
}

// TryAcquire borrows w tokens if at least w are free, without blocking.
// w must be positive.
func (b *Budget) TryAcquire(w int) bool {
	if w < 1 {
		panic("sched: TryAcquire weight must be positive")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.inUse+w > b.capacity {
		return false
	}
	b.inUse += w
	if b.inUse > b.peak {
		b.peak = b.inUse
	}
	return true
}

// Release returns w tokens borrowed with TryAcquire.
func (b *Budget) Release(w int) {
	if w < 1 {
		panic("sched: Release weight must be positive")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inUse -= w
	if b.inUse < 0 {
		panic("sched: Release without matching TryAcquire")
	}
}

// Capacity reports the budget's token count.
func (b *Budget) Capacity() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity
}

// InUse reports how many tokens are currently borrowed.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inUse
}

// Available reports how many tokens are currently free. The value is a
// snapshot — it can be stale by the time the caller acts on it — so it is
// only good for fast-path checks ("skip the fan-out machinery entirely"),
// never for reservation.
func (b *Budget) Available() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity - b.inUse
}

// Peak reports the high-water mark of borrowed tokens since the last
// ResetPeak; by construction it never exceeds Capacity. Tests pin the
// goroutine bound with it.
func (b *Budget) Peak() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// ResetPeak clears the high-water mark.
func (b *Budget) ResetPeak() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.peak = b.inUse
}

// sharedBudget is the process-wide budget, sized at init to GOMAXPROCS.
var sharedBudget = NewBudget(DefaultWorkers())

// Shared returns the process-wide budget that RunJobs and
// codegen.Compile borrow workers from.
func Shared() *Budget { return sharedBudget }

// SetSharedCapacity resizes the process-wide budget and returns the
// previous capacity (tests; restore with a deferred call). Outstanding
// tokens are unaffected: shrinking below the in-use count just means no
// new acquisitions succeed until enough are released.
func SetSharedCapacity(n int) (prev int) {
	b := sharedBudget
	b.mu.Lock()
	defer b.mu.Unlock()
	prev = b.capacity
	if n >= 1 {
		b.capacity = n
	}
	return prev
}

// poolCtxKey marks the context RunJobs hands its jobs, so a nested RunJobs
// reached through that context knows its goroutine is already charged
// against the budget (caller self-token or helper token) and skips the
// best-effort self acquisition — double-charging would only waste capacity,
// never overshoot, but wasted tokens are wasted parallelism.
type poolCtxKey struct{}

// RunJobs executes jobs with bounded parallelism and returns every failure,
// joined with errors.Join in job order (not completion order). workers <= 0
// selects DefaultWorkers; the effective width is also capped by the shared
// Budget: the calling goroutine always participates, and each extra worker
// must hold a token borrowed (non-blocking) from the budget, so concurrent
// and nested RunJobs calls collectively stay within one process-wide bound
// instead of multiplying fan-outs. When ctx is cancelled, undispatched jobs
// are abandoned, in-flight jobs see the cancelled context, and ctx's error
// is included in the aggregate.
func RunJobs(ctx context.Context, workers int, jobs []Job) error {
	return runJobs(ctx, workers, jobs, nil)
}

// WeightedJob is a job with a scheduling weight — the expected amount of
// work, in whatever unit the caller uses consistently (the suites use
// expected simulated instructions). Weights order dispatch; they do not
// change how many budget tokens a job holds.
type WeightedJob struct {
	Weight uint64
	Run    Job
}

// RunJobsWeighted is RunJobs with longest-job-first dispatch: jobs are
// claimed in descending Weight order (ties keep slice order), so one heavy
// job starts immediately instead of serializing behind a queue of cheap
// ones it happened to be listed after. Error aggregation is unchanged —
// joined in slice order, not dispatch or completion order.
func RunJobsWeighted(ctx context.Context, workers int, jobs []WeightedJob) error {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Weight > jobs[order[b]].Weight
	})
	plain := make([]Job, len(jobs))
	for i, j := range jobs {
		plain[i] = j.Run
	}
	return runJobs(ctx, workers, plain, order)
}

// runJobs is the shared dispatch core. order, when non-nil, is the claim
// order (a permutation of job indices); error slots always stay in slice
// order.
func runJobs(ctx context.Context, workers int, jobs []Job, order []int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if len(jobs) == 0 {
		return ctx.Err()
	}

	// One error slot per job keeps the aggregate deterministic regardless
	// of scheduling order; errors.Join drops the nils.
	errs := make([]error, len(jobs)+1)
	jobCtx := ctx
	if workers > 1 && ctx.Value(poolCtxKey{}) == nil {
		jobCtx = context.WithValue(ctx, poolCtxKey{}, true)
	}
	var next atomic.Int64
	// call runs one job with panic containment: a panicking job fails its
	// own error slot with a JobPanicError (stack captured at the boundary)
	// instead of unwinding the worker goroutine — which for a helper would
	// kill the whole process, and for the caller would tear down every
	// sibling fan-out above it.
	call := func(i int) (err error) {
		defer func() {
			if pe := CapturePanic("", recover()); pe != nil {
				err = pe
			}
		}()
		return jobs[i](jobCtx)
	}
	// run is the worker loop shared by the caller and every helper: claim
	// the next job index, optionally top the helper pool back up (topUp),
	// run the job. The standalone Done check makes cancellation
	// deterministic: once ctx is done, no worker claims another job.
	run := func(topUp func()) {
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
			i := int(next.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			if order != nil {
				i = order[i]
			}
			if topUp != nil {
				topUp()
			}
			errs[i] = call(i)
		}
	}

	if workers <= 1 {
		run(nil)
		errs[len(jobs)] = ctx.Err()
		return errors.Join(errs...)
	}

	b := Shared()
	// The caller charges its own slot against the budget too (best-effort:
	// if no token is free it proceeds anyway — inline progress is the
	// deadlock-freedom guarantee). This makes a top-level suite fan-out
	// occupy exactly `workers` tokens, so nested compiles inside its jobs
	// see an exhausted budget and run serially instead of oversubscribing.
	// A nested call reached through a scheduler-owned context skips the
	// self charge: its goroutine is already counted.
	if ctx.Value(poolCtxKey{}) == nil && b.TryAcquire(1) {
		defer b.Release(1)
	}
	var wg sync.WaitGroup
	var helpers atomic.Int64
	// spawn tops the helper pool up to the remaining work, borrowing one
	// token per helper. Every worker — the caller and the helpers — calls
	// it between jobs, so tokens released by another fan-out are picked up
	// mid-run even while the caller is deep inside a long job. A helper's
	// wg.Add is safe relative to the caller's wg.Wait because the helper
	// has not run its own wg.Done yet (the counter cannot be zero).
	var spawn func()
	spawn = func() {
		for {
			h := helpers.Load()
			if int(h) >= workers-1 || int(h) >= len(jobs)-int(next.Load()) {
				return
			}
			if !helpers.CompareAndSwap(h, h+1) {
				continue
			}
			if !b.TryAcquire(1) {
				helpers.Add(-1)
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer b.Release(1)
				run(spawn)
			}()
		}
	}
	run(spawn)
	wg.Wait()
	errs[len(jobs)] = ctx.Err()
	return errors.Join(errs...)
}
