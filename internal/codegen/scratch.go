package codegen

import (
	"context"
	"sync"

	"repro/internal/ir"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/wasm"
	"repro/internal/x86"
)

// Workers caps per-function compile parallelism inside Compile. 0 selects
// the scheduler default (GOMAXPROCS); 1 forces serial compilation. The cap
// is an upper bound, not a reservation: the actual fan-out borrows worker
// slots from the process-wide scheduler budget (sched.Shared), so many
// modules compiling concurrently — suite cold start — collectively stay
// within one budget instead of spawning Workers goroutines each. The
// setting never affects output: serial and parallel compiles of the same
// module produce byte-identical programs at any budget size (pinned by
// TestCompileDeterminism).
var Workers int

// compileScratch owns every transient of one function's compilation — the
// lowerer and its IR arena, the optimizer worklists, liveness, register
// allocation, and the emitter's fragment program — pooled via sync.Pool the
// way cpu pools machine memory. A function compile acquires one scratch,
// carries it from lowering through emission, and releases it after the
// module merge; steady-state compiles allocate almost nothing.
type compileScratch struct {
	arena ir.FuncArena
	lo    lowerer
	vtype []wasm.ValType // vreg -> wasm type (dense; replaces the old map)
	live  ir.LivenessScratch
	ra    regalloc.Scratch

	// Optimizer state.
	useBuf   []int
	constDef map[ir.VReg]int
	reach    []bool
	remap    []int
	blkStack []int
	// localCSE state (native config only).
	defCount []int
	useBlock []int
	isParam  []bool
	gen      map[ir.VReg]int
	avail    map[cseVerKey]cseAvail
	replaced map[ir.VReg]ir.VReg

	// Per-function results carried from the frontend phase to emission.
	f   *ir.Func
	res *regalloc.Result

	// Emitter state.
	frag       *x86.Program // per-function fragment, merged by Compile
	blockLabel []int
	skip       map[*ir.Ins]bool
	rmwAt      map[*ir.Ins]*rmwInfo
	rmwInfos   []rmwInfo
	fusedMem   map[*ir.Ins]x86.Mem
	loopHead   []bool
	accesses   []accessRef
	fusePlans  []fusePlan
	pmoves     []pmove
	pending    []pmove
	roUses     []roUse // rodata constants the fragment reads
	stats      FuncStats
}

// roUse is one rodata constant read by a fragment instruction: the
// instruction at fragment index at reads data, interned under key.
// mergeFragments places the constant and patches the instruction's source
// displacement to its address.
type roUse struct {
	at   int
	key  uint64
	data [8]byte
}

// accessRef is one memory access (instruction index) grouped by address vreg
// during address fusion.
type accessRef struct {
	addr ir.VReg
	idx  int
}

// fusePlan records one fused memory operand during address fusion.
type fusePlan struct {
	at  int
	mem x86.Mem
}

// cseVerKey identifies a pure computation plus the def-versions of its
// operands (see localCSE).
type cseVerKey struct {
	k      cseKey
	va, vb int
}

// cseAvail is one available expression during localCSE.
type cseAvail struct {
	v   ir.VReg
	gen int // v's def version when recorded; stale when v is redefined
}

var scratchPool = sync.Pool{New: func() any {
	return &compileScratch{
		constDef: map[ir.VReg]int{},
		gen:      map[ir.VReg]int{},
		avail:    map[cseVerKey]cseAvail{},
		replaced: map[ir.VReg]ir.VReg{},
		skip:     map[*ir.Ins]bool{},
		rmwAt:    map[*ir.Ins]*rmwInfo{},
		fusedMem: map[*ir.Ins]x86.Mem{},
		frag:     x86.NewProgram(),
	}
}}

func getScratch() *compileScratch { return scratchPool.Get().(*compileScratch) }

// release returns the scratch to the pool. The caller must be done with
// every scratch-owned object (the IR func, the allocation result, and the
// fragment program's instruction slice).
func (sc *compileScratch) release() {
	sc.f = nil
	sc.res = nil
	scratchPool.Put(sc)
}

// growSlice returns s resized to n elements, all zeroed.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// compileWorkers resolves the Workers knob.
func compileWorkers() int {
	if Workers > 0 {
		return Workers
	}
	return sched.DefaultWorkers()
}

// runPerFunc runs fn for every function index, fanning out over the shared
// scheduler when more than one worker is configured. Extra workers are
// borrowed from the process-wide budget (sched.Shared) token by token
// inside RunJobs — a compile that starts while suite fan-out holds every
// token runs serially on the calling goroutine, and one that outlives the
// contention picks up freed tokens mid-run. ctx carries the scheduler's
// pool marker when the compile was reached from inside a fan-out
// (pipeline.Compile threads it through), so a nested compile never
// double-charges the budget for its own goroutine; a cancelled ctx stops
// dispatching further functions on the serial and parallel paths alike.
// Outputs are index-addressed, so serial and parallel runs are
// indistinguishable on success.
func runPerFunc(ctx context.Context, n int, fn func(int) error) error {
	workers := compileWorkers()
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	jobs := make([]sched.Job, n)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) error { return fn(i) }
	}
	return sched.RunJobs(ctx, workers, jobs)
}
