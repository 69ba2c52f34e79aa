// Package kernel implements Browsix-Wasm: an in-process Unix kernel that
// WebAssembly processes talk to through message-passing system calls.
// Processes stand in for WebWorkers (one goroutine each); the kernel's big
// lock models the single-threaded JavaScript main context; every syscall
// pays a message round-trip plus auxiliary-buffer copy costs, exactly the
// §2 transport the paper builds (64 MB aux SharedArrayBuffer, chunked
// transfers, data copied between process memory and the aux buffer).
package kernel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/browserfs"
	"repro/internal/codegen"
	"repro/internal/cpu"
	"repro/internal/sched"
)

// DefaultPollInterval is how many retired instructions a process executes
// between context-cancellation polls (~10 ms of simulated work at the
// engine's throughput): fine enough that cancellation preempts promptly,
// coarse enough to be invisible in the profile.
const DefaultPollInterval = 2 << 20

// AuxBufferSize is the per-process auxiliary shared buffer (§2: 64 MB).
const AuxBufferSize = 64 << 20

// Syscall cost model, in cycles at the simulated 3.5 GHz clock.
const (
	// MsgRoundTripCycles is the process↔kernel message cost (the paper:
	// "sending a message between process and kernel JavaScript contexts"
	// dominates the copies).
	MsgRoundTripCycles = 4200
	// CopyCyclesPerByte models memcpy bandwidth (~28 GB/s).
	CopyCyclesPerByte = 0.125
	// ServiceCycles is the in-kernel handling cost per syscall.
	ServiceCycles = 900
)

// ExitError unwinds a process on exit().
type ExitError struct{ Code int }

func (e *ExitError) Error() string { return fmt.Sprintf("exit(%d)", e.Code) }

// WatchdogError kills a process from the kernel's interrupt poll when a
// watchdog limit (Kernel.Deadline or Kernel.MaxInsts) is exceeded. The
// machine flushes its cycle accounting before the interrupt error unwinds,
// so the process's counters are an accurate partial result at the kill
// point — pipeline.ExecuteWith repackages them into a TimeoutError.
type WatchdogError struct {
	// Wall is true when the wall-clock deadline expired, false when the
	// retired-instruction limit was hit.
	Wall bool
	// Insts is the process's retired-instruction count at the kill.
	Insts uint64
}

func (e *WatchdogError) Error() string {
	if e.Wall {
		return fmt.Sprintf("kernel: watchdog: wall-clock deadline exceeded (%d insts retired)", e.Insts)
	}
	return fmt.Sprintf("kernel: watchdog: instruction limit exceeded (%d insts retired)", e.Insts)
}

// Kernel is one Browsix-Wasm kernel instance.
type Kernel struct {
	FS *browserfs.FS

	mu       sync.Mutex
	procs    map[int]*Process
	nextPID  int
	binaries map[string]*codegen.CompiledModule

	// Console accumulates writes to fds 1/2 that reach the "browser
	// console" (no redirection).
	Console []byte

	// Hooks are the Browsix-SPEC perf callbacks fired by processes'
	// perf_begin/perf_end runtime XHRs (Figure 2 steps 4 and 6).
	Hooks PerfHooks

	// Ctx, when non-nil, is polled by every process this kernel spawns
	// (every PollInterval retired instructions): cancelling it preempts
	// in-flight simulations, not just queued ones. Set it before the first
	// Spawn.
	Ctx context.Context

	// PollInterval overrides DefaultPollInterval (retired instructions
	// between polls).
	PollInterval uint64

	// Deadline, when nonzero, is the watchdog's wall-clock limit: every
	// process this kernel spawns checks it at its interrupt polls and dies
	// with a WatchdogError once it passes. The deadline is shared by the
	// whole process tree (one job = one kernel = one deadline), so a parent
	// blocked in sys_wait trips its own poll after its hung child is
	// killed. Set it before the first Spawn.
	Deadline time.Time

	// MaxInsts, when nonzero, kills any single process that retires more
	// than this many instructions (checked at interrupt polls, so overshoot
	// is at most one poll interval). Per process, not per tree: it bounds a
	// runaway loop, while Deadline bounds a forking tree.
	MaxInsts uint64

	// Legacy selects the pre-predecode instruction-at-a-time dispatch loop
	// for every process this kernel spawns. Architectural behavior and perf
	// counters are identical to the default micro-op engine (that is pinned
	// by the differential suites); the knob exists so oracles can run the
	// same compiled code under both dispatchers. Set it before the first
	// Spawn.
	Legacy bool
}

// New creates a kernel over the given filesystem.
func New(fs *browserfs.FS) *Kernel {
	if fs == nil {
		fs = browserfs.New()
	}
	return &Kernel{
		FS:       fs,
		procs:    map[int]*Process{},
		nextPID:  1,
		binaries: map[string]*codegen.CompiledModule{},
	}
}

// RegisterBinary installs a compiled module as an executable at path.
func (k *Kernel) RegisterBinary(path string, cm *codegen.CompiledModule) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.binaries[path] = cm
}

// LookupBinary returns the executable registered at path.
func (k *Kernel) LookupBinary(path string) (*codegen.CompiledModule, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	cm, ok := k.binaries[path]
	return cm, ok
}

// Process is one Browsix-Wasm process: a WebWorker running a compiled wasm
// module with its own linear memory and a 64 MB aux buffer shared with the
// kernel.
type Process struct {
	PID    int
	Kernel *Kernel
	Inst   *cpu.Instance
	Args   []string
	// Path is the binary the process was spawned from.
	Path string

	fdmu sync.Mutex
	fds  []*FD

	// aux is the host side of the aux buffer, grown on demand (auxView) up
	// to AuxBufferSize.
	aux []byte

	// BrowsixCycles accumulates simulated time spent in the kernel and the
	// syscall transport on behalf of this process (Figure 4's numerator).
	BrowsixCycles uint64
	// Syscalls counts syscall invocations.
	Syscalls uint64

	done     chan struct{}
	ExitCode int
	ExitErr  error

	parent *Process
	// budgeted records that this process's goroutine holds a shared
	// scheduler token (best-effort, acquired at Spawn), returned when the
	// process exits.
	budgeted bool
}

// TotalCycles returns the process's total simulated cycles.
func (p *Process) TotalCycles() uint64 { return p.Inst.Counters.Cycles }

// BrowsixShare returns the fraction of time spent in Browsix (Figure 4).
func (p *Process) BrowsixShare() float64 {
	t := p.TotalCycles()
	if t == 0 {
		return 0
	}
	return float64(p.BrowsixCycles) / float64(t)
}

// chargeBrowsix charges transport/kernel cycles to both the machine clock
// and the Browsix accounting.
func (p *Process) chargeBrowsix(cycles uint64) {
	p.Inst.Machine.AddCycles(cycles * 4)
	p.BrowsixCycles += cycles
}

// chargeCopy charges an aux-buffer copy of n bytes, chunked at the aux
// buffer size (§2: transfers larger than 64 MB are split). A transfer that
// exactly fills k buffers is k chunks — k-1 extra message round-trips —
// not k+1.
func (p *Process) chargeCopy(n int) {
	chunks := (n + AuxBufferSize - 1) / AuxBufferSize
	if chunks == 0 {
		chunks = 1
	}
	p.chargeBrowsix(uint64(float64(n)*CopyCyclesPerByte) + uint64(chunks-1)*MsgRoundTripCycles)
}

// auxView returns the first n bytes (n <= AuxBufferSize) of the aux
// buffer. The simulated buffer is always 64 MB — chunking and copy charges
// follow AuxBufferSize — but the host buffer grows on demand, so a process
// that moves a few KB through syscalls never allocates and zeroes 64 MB.
// The buffer is pure staging (every syscall writes the region it then
// reads), so growing it needs no copy.
func (p *Process) auxView(n int) []byte {
	if n > len(p.aux) {
		p.aux = make([]byte, min(max(n, 2*len(p.aux)), AuxBufferSize))
	}
	return p.aux[:n]
}

// copyIn copies process-memory bytes into the aux buffer (for syscalls that
// pass buffers to the kernel) and returns the aux view. n must not exceed
// AuxBufferSize: callers chunk larger transfers.
func (p *Process) copyIn(addr, n uint32) ([]byte, error) {
	src, ok := p.Inst.LinearRange(addr, n)
	if !ok {
		return nil, errors.New("fault: bad address")
	}
	view := p.auxView(len(src))
	copy(view, src)
	p.chargeCopy(len(view))
	return view, nil
}

// copyOut copies aux-buffer bytes back into process memory.
func (p *Process) copyOut(addr uint32, data []byte) error {
	dst, ok := p.Inst.LinearRange(addr, uint32(len(data)))
	if !ok {
		return errors.New("fault: bad address")
	}
	copy(dst, data)
	p.chargeCopy(len(data))
	return nil
}

// cstring reads a NUL-terminated string from process memory via the aux
// protocol. It scans the linear buffer in place, without materializing:
// the bytes outside the materialized runs are zero, so a string ends at
// the end of its run at the latest.
func (p *Process) cstring(addr uint32) (string, error) {
	if int64(addr) >= int64(p.Inst.LinearSize()) {
		return "", errors.New("fault: bad string address")
	}
	lin := p.Inst.Linear[:p.Inst.LinearSize()]
	start := min(int(addr), len(lin))
	end := start
	for end < len(lin) && lin[end] != 0 {
		end++
	}
	s := string(lin[start:end])
	p.chargeCopy(len(s))
	return s, nil
}

// Spawn creates a process from the binary at path with the given argv
// (argv[0] is the program name) and starts it. The new process inherits the
// parent's stdio descriptors (or fresh console stdio when parent is nil).
func (k *Kernel) Spawn(parent *Process, path string, argv []string, stdio [3]*FD) (*Process, error) {
	cm, ok := k.LookupBinary(path)
	if !ok {
		return nil, fmt.Errorf("kernel: no such binary %q", path)
	}
	inst, err := cpu.Load(cm)
	if err != nil {
		return nil, err
	}
	inst.Machine.NoPredecode = k.Legacy
	if ctx, deadline, maxInsts := k.Ctx, k.Deadline, k.MaxInsts; ctx != nil || !deadline.IsZero() || maxInsts > 0 {
		every := k.PollInterval
		if every == 0 {
			every = DefaultPollInterval
		}
		m := inst.Machine
		inst.Machine.SetInterrupt(every, func() error {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if maxInsts > 0 && m.Counters.Instructions >= maxInsts {
				return &WatchdogError{Insts: m.Counters.Instructions}
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return &WatchdogError{Wall: true, Insts: m.Counters.Instructions}
			}
			return nil
		})
	}
	k.mu.Lock()
	pid := k.nextPID
	k.nextPID++
	p := &Process{
		PID:    pid,
		Kernel: k,
		Inst:   inst,
		Args:   argv,
		Path:   path,
		done:   make(chan struct{}),
		parent: parent,
	}
	k.procs[pid] = p
	k.mu.Unlock()

	for i := 0; i < 3; i++ {
		fd := stdio[i]
		if fd == nil {
			fd = &FD{kind: fdConsole, kernel: k}
		}
		fd.ref()
		p.fds = append(p.fds, fd)
	}

	bindSyscalls(p)

	// A process is a long-running goroutine doing real simulation work, so
	// it charges the shared scheduler budget like any other worker —
	// best-effort (a deeply forking tree must not deadlock against its own
	// budget), but enough that unixproc-style fork storms are counted
	// against the global bound instead of multiplying past it.
	p.budgeted = sched.Shared().TryAcquire(1)

	go p.run()
	return p, nil
}

// run executes the process to completion.
func (p *Process) run() {
	defer close(p.done)
	if p.budgeted {
		defer sched.Shared().Release(1)
	}
	// A process's memory image dies with it, like a real exiting process:
	// what it touched of the machine's image is cleared and the image is
	// recycled for future spawns.
	// Counters survive on the instance — results outlive processes.
	defer p.Inst.ReleaseMemory()
	defer p.closeAllFDs()
	// Containment boundary: a panic on a process goroutine (an engine or
	// syscall-handler bug, an injected fault) would kill the whole test
	// process. Convert it to the same structured error shape the scheduler
	// uses, delivered through the ordinary WaitPID path. Registered last so
	// it runs first, before cleanup, stopping the unwind.
	defer func() {
		if pe := sched.CapturePanic("process "+p.Path, recover()); pe != nil {
			p.ExitErr = pe
			p.ExitCode = 128
		}
	}()
	argc, argvPtr, err := p.writeArgs()
	if err != nil {
		p.ExitErr = err
		p.ExitCode = 127
		return
	}
	ret, err := p.Inst.Invoke("_start", uint64(argc), uint64(argvPtr))
	if err != nil {
		var ee *ExitError
		if errors.As(err, &ee) {
			p.ExitCode = ee.Code
			return
		}
		p.ExitErr = err
		p.ExitCode = 128
		return
	}
	p.ExitCode = int(int32(ret))
}

// argsBase and argsLimit bound where the loader writes argv into the
// process image: the mini-C runtime reserves [1024, 4096) for it.
const (
	argsBase  = 1024
	argsLimit = 4096
)

// writeArgs lays out argv in process memory: pointer array then strings.
// Pointer slots follow the binary's data model (4 or 8 bytes).
func (p *Process) writeArgs() (int, uint32, error) {
	// Materializing the argv area makes the prefix cover it.
	if _, ok := p.Inst.LinearRange(argsBase, argsLimit-argsBase); !ok {
		return 0, 0, errors.New("kernel: linear memory too small for argv")
	}
	lin := p.Inst.Linear
	ps := p.Inst.CM.PtrSize
	if ps == 0 {
		ps = 4
	}
	ptrs := argsBase
	off := argsBase + ps*(len(p.Args)+1)
	putPtr := func(slot int, v uint32) {
		putU32(lin, slot, v)
		if ps == 8 {
			putU32(lin, slot+4, 0)
		}
	}
	for i, a := range p.Args {
		if off+len(a)+1 >= argsLimit {
			return 0, 0, errors.New("kernel: argv too large")
		}
		putPtr(ptrs+ps*i, uint32(off))
		copy(lin[off:], a)
		lin[off+len(a)] = 0
		off += len(a) + 1
	}
	putPtr(ptrs+ps*len(p.Args), 0)
	return len(p.Args), uint32(ptrs), nil
}

func putU32(b []byte, off int, v uint32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}

// WaitPID blocks until pid exits, returning its exit code.
func (k *Kernel) WaitPID(pid int) (int, error) {
	k.mu.Lock()
	p, ok := k.procs[pid]
	k.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("kernel: no such pid %d", pid)
	}
	<-p.done
	k.mu.Lock()
	delete(k.procs, pid)
	k.mu.Unlock()
	if p.ExitErr != nil {
		return p.ExitCode, p.ExitErr
	}
	return p.ExitCode, nil
}
