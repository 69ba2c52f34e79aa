// Package cpu executes the modeled x86-64 programs produced by
// internal/codegen against a simulated memory hierarchy, collecting the
// hardware performance counters the paper analyzes: retired loads, stores,
// branches, conditional branches, instructions, cycles, and L1 instruction
// cache misses.
package cpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/perf"
	"repro/internal/x86"
)

// TrapError is a runtime trap (the wasm-level traps plus machine faults).
type TrapError struct {
	Msg string
	PC  int
}

func (t *TrapError) Error() string { return fmt.Sprintf("cpu trap at %d: %s", t.PC, t.Msg) }

// Cost model in quarter-cycles. The base cost reflects a 4-wide superscalar
// core; memory and branch penalties are amortized effective latencies.
const (
	qBase     = 2
	qLoad     = 1
	qStore    = 1
	qBranch   = 1
	qMul      = 8
	qDiv32    = 80
	qDiv64    = 140
	qFALU     = 4
	qFDiv     = 52
	qFSqrt    = 60
	qCvt      = 8
	qMispred  = 56
	qL1DMiss  = 40
	qL2DMiss  = 120
	qL3DMiss  = 400
	qL1IMiss  = 36
	qL2IMiss  = 110
	qCallHost = 8
)

// Flags is the simulated EFLAGS subset.
type Flags struct {
	ZF, SF, CF, OF, PF bool
}

// HostFunc services OCallHost instructions. Negative ids are engine
// builtins (-1 = memory.grow). Arguments are read from the machine's
// argument registers by the callee; results go in RAX.
type HostFunc func(m *Machine, host int) error

// Machine is one simulated hardware thread executing a Program.
type Machine struct {
	Prog  *x86.Program
	Regs  [16]uint64
	Xmm   [16]uint64
	Flags Flags

	// Memory regions.
	//
	// Linear is the materialized prefix [0, len(Linear)) of wasm linear
	// memory at address 0; linearSize is its logical size. The backing
	// buffer's capacity always covers the logical size, and every byte of
	// it past the prefix is zero, so the prefix extends on first touch
	// (slabSlow, LinearRange) by reslicing alone. Unmaterialized bytes read
	// as zero, exactly like an eager allocation, and release clears only
	// the prefix.
	Linear     []byte
	linearSize int
	MaxPages   uint32
	globals    []byte
	tableMem   []byte
	rodata     []byte
	// stack covers [stackLow, StackTop): it grows downward on demand so a
	// fresh machine does not zero the full 8 MiB reservation. Lazily
	// materialized pages read as zero, exactly like the eager allocation.
	stack    []byte
	stackLow uint32
	misc     [64]byte // stack limit + mem pages words

	Counters perf.Counters
	L1I      *Cache
	L1D      *Cache
	L2       *Cache
	// L3 (~4 MB of metadata) is allocated on the first L2 data miss, so it
	// is nil until then; a machine built from a pooled image that already
	// carries one reuses it.
	L3 *Cache
	BP *BranchPredictor

	Host HostFunc

	rip       int
	halted    bool
	lastLine  uint32 // legacy engine: line of the last fetch, ^0 after branches
	lastILine uint32 // micro-op engine: line of the last real L1I probe
	lastDLine uint32 // line of the last dcache access (same-line fast path)
	qacc      uint64
	qInstBase uint64 // Instructions value at the last cycle flush

	// noTime is set for the functional tier (see SetFidelity), which models
	// no timing. It selects the functional dispatch loop and gates the
	// generic dcache path, branch prediction, host cycle charges and cycle
	// flushing, so the uSlow/legacy fallbacks stay architecturally exact
	// without touching timing structures.
	noTime bool

	// uops is the pre-decoded micro-op stream (1:1 with Prog.Code), shared
	// across machines running the same program.
	uops []uop

	// interrupt, when installed via SetInterrupt, is polled every pollEvery
	// retired instructions; a non-nil return aborts execution with that
	// error. pollAt is the next Instructions value to poll at (^0 when
	// disabled, so it never bounds a dispatch chunk).
	interrupt func() error
	pollEvery uint64
	pollAt    uint64

	// NoPredecode forces the legacy instruction-at-a-time interpreter
	// instead of the pre-decoded micro-op engine. The two are bit-identical
	// in all counters; the legacy path exists as a differential-testing
	// oracle and debugging aid.
	NoPredecode bool
}

// Region base helpers.
const (
	stackBase = uint32(x86.StackTop - x86.StackSize)
)

// machineMem is the recyclable memory image of one machine: the big buffers
// and the cache/predictor metadata. Every pooled buffer is zero over its
// whole capacity and the caches and predictor are reset, so a machine built
// from a pooled image is bit-identical to a freshly allocated one — only the
// allocations are saved. Release keeps that true at a cost proportional to
// what the process touched: it clears the materialized linear prefix (the
// spare capacity past it was never written) and only the cache sets that
// installed a line. This mirrors the kernel's aux-buffer pool: the
// Browsix-SPEC chain spawns three processes per run, and without recycling
// each spawn allocates tens of MB of linear memory, globals, table, and
// stack.
type machineMem struct {
	linear, globals, tableMem, stack []byte
	l1i, l1d, l2, l3                 *Cache
	bp                               *BranchPredictor
}

var memPool = sync.Pool{}

// NewMachine builds a machine for prog with the given initial linear memory
// pages, drawing the memory image from the recycle pool when one is
// available.
func NewMachine(prog *x86.Program, pages, maxPages uint32) *Machine {
	m := &Machine{
		Prog:       prog,
		MaxPages:   maxPages,
		linearSize: int(pages) * 65536,
		stackLow:   uint32(x86.StackTop) - 64*1024,
	}
	if v := memPool.Get(); v != nil {
		mm := v.(*machineMem)
		// A nil buffer was dropped at release for exceeding its retention
		// cap; allocate fresh at this machine's own size.
		if cap(mm.linear) >= m.linearSize {
			m.Linear = mm.linear[:0]
		} else {
			m.Linear = make([]byte, 0, m.linearSize)
		}
		m.globals = mm.globals
		m.tableMem = mm.tableMem
		if mm.stack != nil {
			m.stack = mm.stack[:64*1024]
		} else {
			m.stack = make([]byte, 64*1024)
		}
		m.L1I, m.L1D, m.L2, m.L3 = mm.l1i, mm.l1d, mm.l2, mm.l3
		m.BP = mm.bp
	} else {
		m.Linear = make([]byte, 0, m.linearSize)
		m.globals = make([]byte, 64*1024)
		m.tableMem = make([]byte, 256*1024)
		m.stack = make([]byte, 64*1024)
		m.L1I = NewCache(32*1024, 64, 8)
		m.L1D = NewCache(32*1024, 64, 8)
		m.L2 = NewCache(256*1024, 64, 8)
		m.BP = NewBranchPredictor(4096)
	}
	// L3 is left to dcacheWalk to allocate on the first L2 data miss; once
	// allocated it travels with the pooled image, and its Reset costs only
	// the sets the process touched.
	m.uops = predecode(prog)
	m.lastDLine = ^uint32(0)
	m.pollAt = ^uint64(0)
	m.setMisc()
	m.Regs[x86.RSP] = uint64(x86.StackTop - 64)
	return m
}

// Retention caps for the recycle pool. One outsized workload must not pin
// its high-water memory image for the process lifetime: a buffer whose
// capacity exceeds its cap is dropped on release (the next machine
// allocates fresh at its own size) instead of being pooled. The caps are
// generous multiples of the common workload footprint — eviction is the
// exception, reuse the rule.
const (
	// maxPooledLinear bounds the retained linear-memory image (64 MiB; the
	// suites' workloads run in a few MiB, LinearMax is 1 GiB).
	maxPooledLinear = 64 << 20
	// maxPooledStack bounds the retained materialized stack window (1 MiB;
	// the window starts at 64 KiB and grows only on deep recursion).
	maxPooledStack = 1 << 20
)

// ReleaseMemory clears what the process touched of its memory image — the
// materialized linear prefix, the stack window, globals, the table, and the
// cache sets that installed lines — and returns the image to the recycle
// pool. The machine keeps its counters (results outlive processes)
// but loses its memory: it must not execute again. Safe to call more than
// once. Oversized linear/stack buffers (see maxPooledLinear) are dropped
// rather than pooled, so the pool's retained capacity stays bounded.
func (m *Machine) ReleaseMemory() {
	if m.globals == nil {
		return
	}
	clear(m.Linear)
	clear(m.stack)
	clear(m.globals)
	clear(m.tableMem)
	m.L1I.Reset()
	m.L1D.Reset()
	m.L2.Reset()
	if m.L3 != nil {
		m.L3.Reset()
	}
	m.BP.Reset()
	linear, stack := m.Linear, m.stack
	if cap(linear) > maxPooledLinear {
		linear = nil
	}
	if cap(stack) > maxPooledStack {
		stack = nil
	}
	memPool.Put(&machineMem{
		linear: linear, globals: m.globals, tableMem: m.tableMem,
		stack: stack,
		l1i:   m.L1I, l1d: m.L1D, l2: m.L2, l3: m.L3,
		bp: m.BP,
	})
	m.Linear, m.globals, m.tableMem, m.stack, m.rodata = nil, nil, nil, nil, nil
	m.L1I, m.L1D, m.L2, m.L3, m.BP = nil, nil, nil, nil, nil
	m.uops = nil
}

// SetInterrupt installs fn to be polled every `every` retired instructions
// (every engine and tier): fn runs once that many more instructions have
// retired, before the next one is fetched. A non-nil return from fn aborts
// the run with that error, leaving Instructions at the poll point and rip
// on the next instruction — this is how the kernel watchdog enforces its
// instruction ceiling and how the scheduler's context cancellation preempts
// in-flight simulations instead of only queued ones. Polling never touches
// counters or cycles, so an uninterrupted run is bit-identical with or
// without an interrupt installed. A nil fn (or zero interval) disables
// polling.
func (m *Machine) SetInterrupt(every uint64, fn func() error) {
	if fn == nil || every == 0 {
		m.interrupt = nil
		m.pollEvery = 0
		m.pollAt = ^uint64(0)
		return
	}
	m.interrupt = fn
	m.pollEvery = every
	m.pollAt = m.Counters.Instructions + every
}

func (m *Machine) setMisc() {
	// Stack limit: leave 64 KiB of headroom like the engines do.
	binary.LittleEndian.PutUint64(m.misc[0:], uint64(stackBase)+64*1024)
	binary.LittleEndian.PutUint32(m.misc[8:], uint32(m.linearSize/65536))
}

// LinearSize returns the logical size of linear memory in bytes.
func (m *Machine) LinearSize() int { return m.linearSize }

// LinearRange returns linear memory [addr, addr+n) for host-side access,
// such as the kernel's syscall copies, materializing it first. ok is false
// when the range extends past the logical size.
func (m *Machine) LinearRange(addr, n uint32) ([]byte, bool) {
	end := uint64(addr) + uint64(n)
	if end > uint64(m.linearSize) {
		return nil, false
	}
	m.materialize(int(end))
	return m.Linear[addr:end], true
}

// materialize extends the linear prefix to cover [0, end), rounded up to a
// whole 64 KiB page; end must not exceed the logical size (a page
// multiple). Spare capacity is zero, so extending needs no clear.
func (m *Machine) materialize(end int) {
	if n := (end + 65535) &^ 65535; n > len(m.Linear) {
		m.Linear = m.Linear[:n]
	}
}

// SetRodata installs the constant pool.
func (m *Machine) SetRodata(b []byte) { m.rodata = append([]byte(nil), b...) }

// SetTableEntry writes an indirect-call table slot: sig id and entry
// (instruction index).
func (m *Machine) SetTableEntry(slot int, sig int64, entry int64) {
	off := slot * x86.TableEntrySize
	binary.LittleEndian.PutUint64(m.tableMem[off:], uint64(sig))
	binary.LittleEndian.PutUint64(m.tableMem[off+8:], uint64(entry))
}

// SetGlobal writes the 8-byte global slot idx.
func (m *Machine) SetGlobal(idx int, v uint64) {
	binary.LittleEndian.PutUint64(m.globals[idx*8:], v)
}

// Global reads global slot idx.
func (m *Machine) Global(idx int) uint64 {
	return binary.LittleEndian.Uint64(m.globals[idx*8:])
}

// GrowLinear adds delta pages, returning the old page count or -1. It
// raises the logical size only: the new pages materialize on first touch.
// When the buffer lacks capacity for the new size, a new one carries the
// materialized prefix over.
func (m *Machine) GrowLinear(delta uint32) int32 {
	old := uint32(m.linearSize / 65536)
	if uint64(old)+uint64(delta) > uint64(m.MaxPages) {
		return -1
	}
	m.linearSize += int(delta) * 65536
	if m.linearSize > cap(m.Linear) {
		nb := make([]byte, len(m.Linear), m.linearSize)
		copy(nb, m.Linear)
		m.Linear = nb
	}
	m.setMisc()
	return int32(old)
}

// AddCycles charges host-side work (the Browsix syscall shim) to the
// simulated clock, in quarter-cycles. On the functional tier the charge is
// dropped: its contract is zero timing counters.
func (m *Machine) AddCycles(q uint64) {
	if m.noTime {
		return
	}
	m.Counters.Cycles += q / 4
}

// fastSlab resolves the two hot regions — materialized linear memory and
// the machine stack — and is small enough to inline; ok=false routes
// everything else (globals, tables, rodata, misc, faults, unmaterialized
// stack and linear memory) to the generic path.
func (m *Machine) fastSlab(addr uint32, size uint32) ([]byte, uint32, bool) {
	if int(addr)+int(size) <= len(m.Linear) {
		return m.Linear, addr, true
	}
	// The end-of-range compare is done in uint64: addr+size would wrap for
	// wild guest pointers near 4 GiB and alias into the stack window.
	if addr >= m.stackLow && uint64(addr)+uint64(size) <= uint64(x86.StackTop) {
		return m.stack, addr - m.stackLow, true
	}
	return nil, 0, false
}

// slab resolves an address to a memory region.
func (m *Machine) slab(addr uint32, size uint32) ([]byte, uint32, bool) {
	if s, off, ok := m.fastSlab(addr, size); ok {
		return s, off, true
	}
	return m.slabSlow(addr, size)
}

// slabSlow resolves addresses outside the fastSlab windows (stack below the
// window, globals, tables, rodata, misc words, and linear memory past the
// materialized prefix, checked last so the other regions pay nothing for
// it).
func (m *Machine) slabSlow(addr uint32, size uint32) ([]byte, uint32, bool) {
	switch {
	case addr >= stackBase && uint64(addr)+uint64(size) <= uint64(x86.StackTop):
		// Below the materialized window (fastSlab handles the rest of the
		// stack range): extend it downward first.
		if addr < m.stackLow {
			m.growStack(addr)
		}
		return m.stack, addr - m.stackLow, true
	case addr >= uint32(x86.GlobalsBase) && int(addr-uint32(x86.GlobalsBase))+int(size) <= len(m.globals):
		return m.globals, addr - uint32(x86.GlobalsBase), true
	case addr >= uint32(x86.TableBase) && int(addr-uint32(x86.TableBase))+int(size) <= len(m.tableMem):
		return m.tableMem, addr - uint32(x86.TableBase), true
	case addr >= uint32(x86.StackLimitAddr) && int(addr-uint32(x86.StackLimitAddr))+int(size) <= len(m.misc):
		return m.misc[:], addr - uint32(x86.StackLimitAddr), true
	case addr >= uint32(x86.RodataBase) && int(addr-uint32(x86.RodataBase))+int(size) <= len(m.rodata):
		return m.rodata, addr - uint32(x86.RodataBase), true
	case uint64(addr)+uint64(size) <= uint64(m.linearSize):
		m.materialize(int(addr) + int(size))
		return m.Linear, addr, true
	}
	return nil, 0, false
}

func (m *Machine) load(addr uint32, w uint8) (uint64, error) {
	s, off, ok := m.slab(addr, uint32(w))
	if !ok {
		return 0, &TrapError{Msg: fmt.Sprintf("out-of-bounds load at %#x", addr), PC: m.rip}
	}
	m.Counters.Loads++
	m.dcache(addr)
	switch w {
	case 1:
		return uint64(s[off]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(s[off:])), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(s[off:])), nil
	}
	return binary.LittleEndian.Uint64(s[off:]), nil
}

func (m *Machine) store(addr uint32, w uint8, v uint64) error {
	s, off, ok := m.slab(addr, uint32(w))
	if !ok {
		return &TrapError{Msg: fmt.Sprintf("out-of-bounds store at %#x", addr), PC: m.rip}
	}
	m.Counters.Stores++
	m.dcache(addr)
	switch w {
	case 1:
		s[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(s[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(s[off:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(s[off:], v)
	}
	return nil
}

// growStack extends the materialized stack window down to cover addr,
// doubling to amortize the copy of the already-live top portion. A pooled
// buffer with enough spare capacity is grown in place: the live top of the
// window shifts to the end (memmove semantics) and the vacated prefix is
// zeroed, which is exactly the state a freshly allocated window would have.
func (m *Machine) growStack(addr uint32) {
	size := uint32(len(m.stack))
	for uint32(x86.StackTop)-size > addr {
		size *= 2
	}
	if size > uint32(x86.StackSize) {
		size = uint32(x86.StackSize)
	}
	old := uint32(len(m.stack))
	if int(size) <= cap(m.stack) {
		ns := m.stack[:size]
		copy(ns[size-old:], ns[:old])
		// The window at least doubled, so the vacated prefix covers every
		// byte the old window occupied; beyond old, spare capacity is zero
		// because release clears the whole window.
		clear(ns[:size-old])
		m.stack = ns
	} else {
		ns := make([]byte, size)
		copy(ns[size-old:], m.stack)
		m.stack = ns
	}
	m.stackLow = uint32(x86.StackTop) - size
}

// dcache models the data-cache access of a generic load or store. It is
// kept out of line: inlined into load and store it cost the exact tier
// about 5% of its simulated MIPS (perfbench sim-suite, 2-vCPU KVM guest),
// because those two sit on the dispatch loop's hottest memory uops.
//
//go:noinline
func (m *Machine) dcache(addr uint32) {
	if m.noTime {
		// Functional fidelity: no data-cache timing. This gate covers every
		// generic load/store (including the uSlow/legacy fallback paths);
		// the dispatch loop's inlined fast paths gate their own hooks on
		// the tier.
		return
	}
	m.dtouch(addr)
}

// dtouch walks the data-cache hierarchy for addr and charges cycles. A
// repeat access to the immediately preceding line is known to hit L1D (the
// previous access either hit or installed the line, and nothing else can
// evict it in between), so the common stack/struct locality case charges
// the hit cost without an associative probe. LRU state is unaffected:
// dropping consecutive duplicate touches of one line never changes the
// relative last-use order of any two lines in a set.
func (m *Machine) dtouch(addr uint32) {
	if addr>>6 == m.lastDLine {
		m.qacc += qLoad
		return
	}
	m.dcacheWalk(addr)
}

// dcacheWalk probes L1D/L2/L3 in order, charging the first level that hits.
// The L1D way-predicted probe is hand-inlined (this is the hottest cache
// path in the simulator); L2/L3 stay behind calls on the miss path.
func (m *Machine) dcacheWalk(addr uint32) {
	m.lastDLine = addr >> 6
	c := m.L1D
	c.Accesses++
	c.tick++
	lineAddr := uint64(addr >> c.lineBits)
	set := uint32(lineAddr) & c.setMask
	// The &(len-1) is purely a bounds-check-elimination hint: mru entries
	// are always in range and line counts are powers of two, so the mask is
	// a no-op that lets the compiler drop the slice bounds check.
	if l := &c.lines[c.mru[set]&uint32(len(c.lines)-1)]; l.tag == lineAddr && l.used != 0 {
		l.used = c.tick
		m.qacc += qLoad
		return
	}
	if c.accessSlow(lineAddr, set) {
		m.qacc += qLoad
		return
	}
	m.Counters.L1DMisses++
	if m.L2.Access(addr) {
		m.q(qL1DMiss)
		return
	}
	m.Counters.L2Misses++
	if m.L3 == nil {
		m.L3 = NewCache(15*1024*1024, 64, 16)
	}
	if m.L3.Access(addr) {
		m.q(qL2DMiss)
		return
	}
	m.q(qL3DMiss)
}

// icache fetches the instruction at addr.
func (m *Machine) icache(addr uint32) {
	line := addr >> 6
	if line == m.lastLine {
		return
	}
	m.lastLine = line
	if m.L1I.Access(addr) {
		return
	}
	m.Counters.L1IMisses++
	if m.L2.Access(addr) {
		m.q(qL1IMiss)
		return
	}
	m.q(qL2IMiss)
}

// q charges quarter-cycles; they are folded into Counters.Cycles lazily.
func (m *Machine) q(n uint64) { m.qacc += n }

// FlushCycles folds accumulated quarter-cycles into the cycle counter. The
// per-instruction base cost is not charged in the fetch loop at all: every
// instruction costs exactly qBase, so it is reconstructed here from the
// retired-instruction count since the previous flush. On the functional
// tier the flush is a discard-and-rebase instead: stray quarter-cycle
// charges from shared helpers (imul/div/fp costs) are dropped and the qBase
// reconstruction is re-based, so functional instructions never turn into
// cycles (AddCycles host charges are likewise dropped while noTime is set).
func (m *Machine) FlushCycles() {
	if m.noTime {
		m.qacc = 0
		m.qInstBase = m.Counters.Instructions
		return
	}
	m.qacc += (m.Counters.Instructions - m.qInstBase) * qBase
	m.qInstBase = m.Counters.Instructions
	m.Counters.Cycles += m.qacc / 4
	m.qacc %= 4
}

// ea computes the effective address of a memory operand. Base-less operands
// zero-extend the displacement (the engine's absolute structures live above
// 2 GiB).
func (m *Machine) ea(mem *x86.Mem) uint32 {
	var a uint64
	if mem.Base != x86.NoReg {
		a = m.Regs[mem.Base] + uint64(int64(mem.Disp))
	} else {
		a = uint64(uint32(mem.Disp))
	}
	if mem.Index != x86.NoReg {
		a += m.Regs[mem.Index] * uint64(mem.Scale)
	}
	return uint32(a)
}

func (m *Machine) readOperand(o *x86.Operand, w uint8) (uint64, error) {
	switch o.Kind {
	case x86.KReg:
		if o.Reg.IsXMM() {
			return m.Xmm[o.Reg-x86.XMM0], nil
		}
		v := m.Regs[o.Reg]
		if w == 4 {
			v = uint64(uint32(v))
		}
		return v, nil
	case x86.KImm:
		return uint64(o.Imm), nil
	case x86.KMem:
		return m.load(m.ea(&o.Mem), w)
	}
	return 0, &TrapError{Msg: "bad operand", PC: m.rip}
}

func (m *Machine) writeGP(r x86.Reg, w uint8, v uint64) {
	if w == 4 {
		v = uint64(uint32(v))
	}
	m.Regs[r] = v
}

// cc evaluates a condition code against the flags.
func (m *Machine) cc(c x86.CC) bool {
	f := &m.Flags
	switch c {
	case x86.CCE:
		return f.ZF
	case x86.CCNE:
		return !f.ZF
	case x86.CCL:
		return f.SF != f.OF
	case x86.CCLE:
		return f.ZF || f.SF != f.OF
	case x86.CCG:
		return !f.ZF && f.SF == f.OF
	case x86.CCGE:
		return f.SF == f.OF
	case x86.CCB:
		return f.CF
	case x86.CCBE:
		return f.CF || f.ZF
	case x86.CCA:
		return !f.CF && !f.ZF
	case x86.CCAE:
		return !f.CF
	case x86.CCS:
		return f.SF
	case x86.CCNS:
		return !f.SF
	case x86.CCP:
		return f.PF
	case x86.CCNP:
		return !f.PF
	}
	return false
}

func (m *Machine) setCmpFlags(a, b uint64, w uint8) {
	var r uint64
	if w == 4 {
		a32, b32 := uint32(a), uint32(b)
		r32 := a32 - b32
		m.Flags.ZF = r32 == 0
		m.Flags.SF = int32(r32) < 0
		m.Flags.CF = a32 < b32
		m.Flags.OF = (int32(a32) < 0) != (int32(b32) < 0) && (int32(r32) < 0) != (int32(a32) < 0)
		m.Flags.PF = false
		return
	}
	r = a - b
	m.Flags.ZF = r == 0
	m.Flags.SF = int64(r) < 0
	m.Flags.CF = a < b
	m.Flags.OF = (int64(a) < 0) != (int64(b) < 0) && (int64(r) < 0) != (int64(a) < 0)
	m.Flags.PF = false
}

func (m *Machine) setTestFlags(a, b uint64, w uint8) {
	r := a & b
	if w == 4 {
		r = uint64(uint32(r))
		m.Flags.SF = int32(uint32(r)) < 0
	} else {
		m.Flags.SF = int64(r) < 0
	}
	m.Flags.ZF = r == 0
	m.Flags.CF = false
	m.Flags.OF = false
	m.Flags.PF = false
}

// f64of interprets xmm bits at width w as a float64.
func f64of(bits uint64, w uint8) float64 {
	if w == 4 {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(bits)
}

// Canonical quiet-NaN bit patterns. Wasm leaves NaN payload bits
// nondeterministic, and Go inherits whatever the hardware happens to
// propagate — which can differ between two compilations of the same
// a+b expression. Any NaN that escapes into the integer domain (stored to
// memory, reinterpreted) would then diverge between engines, so every
// arithmetic result is canonicalized to one fixed pattern. The reference
// interpreter applies the same rule; abs/neg stay raw in both because they
// compile to pure sign-bit operations.
const (
	canonNaN64 = uint64(0x7ff8000000000000)
	canonNaN32 = uint64(0x7fc00000)
)

// bitsOf converts a float64 back to xmm bits at width w, canonicalizing
// NaN payloads.
func bitsOf(v float64, w uint8) uint64 {
	if v != v {
		if w == 4 {
			return canonNaN32
		}
		return canonNaN64
	}
	if w == 4 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(v)
}

// cvtSD2SS demotes f64 bits to f32 bits (cvtsd2ss), canonicalizing NaN.
func cvtSD2SS(bits uint64) uint64 {
	f := float32(math.Float64frombits(bits))
	if f != f {
		return canonNaN32
	}
	return uint64(math.Float32bits(f))
}

// cvtSS2SD promotes f32 bits to f64 bits (cvtss2sd), canonicalizing NaN.
func cvtSS2SD(bits uint64) uint64 {
	f := float64(math.Float32frombits(uint32(bits)))
	if f != f {
		return canonNaN64
	}
	return math.Float64bits(f)
}
