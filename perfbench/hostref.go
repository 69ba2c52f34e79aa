package main

// The host the benchmark runs on is shared, and its speed moves while a run
// goes on: the same simulation runs up to 1.8x slower on one vCPU for
// seconds to tens of seconds at a time, and the two vCPUs move
// independently. Raw times follow that, not the program. So the benchmark
// scales each operation's time by the host's speed at that moment, measured
// by a fixed reference loop while none of the program runs (between
// operations, never alongside one), so the program cannot move its own
// divisor:
//
//   - a simulation: the mean of a sample on its goroutine just before it and
//     one just after it;
//   - a compile or disk hit (a few ms or less): the last sample on its
//     goroutine, taken again once it is refMaxAge old;
//   - requests from concurrent clients: a sample on every CPU between
//     batches of reqBatch requests per client (the clients and the daemon
//     run on every CPU);
//   - a preparation: the mean of samples on every CPU before and after it.
//
// The loop is a small bytecode interpreter (a dispatch switch, a register
// file, data-dependent branches and loads from a 256 KiB table), because the
// host's slow phases hit interpreter-shaped code: a pure arithmetic loop, or
// a random walk over 8 MiB, barely moves with the simulator. In one
// sim-suite run on the reference host, executions correlated 0.66 with the
// inverse of a 1 ms sample taken before them, and scaling by the mean of the
// samples around each cut the mean coefficient of variation of a module's
// repeated executions from 0.235 to 0.118.

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// refIters is the reference loop's length: 2.5-4 ms on the reference host.
// The loop's own jitter is a larger share of a shorter sample: against 1 ms
// samples, 3 ms samples cut a module's remaining execution-time variation
// by a fifth.
const refIters = 900_000

// refNominal is the reference loop's time at the host speed scaled times are
// expressed in, a round figure within its range on the reference host (2-vCPU
// KVM guest, Xeon, Go 1.24). It only sets the unit; two commits compare at
// the same value.
const refNominal = 3 * time.Millisecond

// hostRef samples the reference loop.
type hostRef struct {
	at     time.Time
	scale  float64
	scales []float64
}

// scaleNow returns the factor that converts host time measured now into time
// at the reference speed, refNominal over the loop's time. It runs the loop
// again when the last sample is older than maxAge, so operations much
// shorter than the loop share one sample. Call it only between operations.
func (h *hostRef) scaleNow(maxAge time.Duration) float64 {
	if h.scale == 0 || time.Since(h.at) >= maxAge {
		t0 := time.Now()
		refLoop(refIters)
		h.at = time.Now()
		h.scale = float64(refNominal) / float64(h.at.Sub(t0))
		h.scales = append(h.scales, h.scale)
	}
	return h.scale
}

// scaleAll samples the reference loop once on each CPU the process may use,
// from a thread pinned there, and returns the mean factor. Each CPU's speed
// moves on its own (on the reference host, samples taken on the two vCPUs
// at once correlate 0.1), so one unpinned sample describes only one of the
// CPUs concurrent work runs on. Call it only while no operation runs.
func (h *hostRef) scaleAll() float64 {
	// A failed call leaves the mask empty, and the sample is taken
	// unpinned.
	var allowed cpuMask
	syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed[0])))
	var cpus []int
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	if len(cpus) == 0 {
		return h.scaleNow(0)
	}
	samples := make(chan float64)
	go func() {
		runtime.LockOSThread()
		// The thread exits with the goroutine rather than rejoin the
		// runtime's pool with a narrowed affinity.
		for _, cpu := range cpus {
			var one cpuMask
			one[cpu/64] = 1 << (cpu % 64)
			// A failed pin leaves this sample on whichever CPU the
			// thread runs on.
			syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one[0])))
			t0 := time.Now()
			refLoop(refIters)
			samples <- float64(refNominal) / float64(time.Since(t0))
		}
	}()
	total := 0.0
	for range cpus {
		s := <-samples
		h.scales = append(h.scales, s)
		total += s
	}
	return total / float64(len(cpus))
}

// cpuMask is a CPU set as sched_setaffinity takes it.
type cpuMask [16]uint64

// refProg and refMem are the reference loop's program and data.
var refProg, refMem = func() ([]byte, []uint32) {
	prog := make([]byte, 4096)
	mem := make([]uint32, 64<<10)
	x := uint32(3)
	for i := range prog {
		x = x*1664525 + 1013904223
		prog[i] = byte(x >> 24)
	}
	for i := range mem {
		x = x*1664525 + 1013904223
		mem[i] = x
	}
	return prog, mem
}()

// refSink keeps the loop's result alive.
var refSink uint32

// refLoop interprets refProg for n steps from a zeroed register file; every
// call takes the same path.
func refLoop(n int) {
	var r [8]uint32
	pc := 0
	for i := 0; i < n; i++ {
		op := refProg[pc]
		a, b := op&7, (op>>3)&7
		switch op >> 6 {
		case 0:
			r[a] += r[b] + 1
		case 1:
			r[a] = refMem[r[b]&(64<<10-1)]
		case 2:
			r[a] ^= refMem[(r[a]+r[b])&(64<<10-1)] >> 1
		case 3:
			if r[a]&1 == 0 {
				pc = int(r[b] & 4095)
				continue
			}
		}
		pc = (pc + 1) & 4095
	}
	refSink += r[0]
}
