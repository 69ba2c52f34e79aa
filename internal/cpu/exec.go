package cpu

// Micro-op dispatch engine. The hot loop walks the pre-decoded uop stream
// (see decode.go): one dense switch, no per-instruction operand-kind or
// register-class interpretation, and effective addresses computed from flat
// templates. The legacy interpreter in exec_legacy.go remains the reference
// semantics and the fallback for unspecialized shapes (uSlow).
//
// One generic loop, run[T], serves both micro-op tiers. run[exactTier]
// models the icache, dcache, branch predictor and cycles on every retired
// instruction, bit-identically to the legacy interpreter. run[functionalTier]
// retires the same stream with the same architectural state and counters
// (Instructions, Loads, Stores, Branches, CondBranches) and models no
// timing. Every timing hook sits behind a test of the tier's length, which
// is a constant in each instantiation (see exactTier), so the functional
// loop carries no dead hook.
//
// The loop keeps two values in locals, rip and a signed countdown to the
// next machine-level event: the interrupt poll point (pollAt) or a chunk
// clamp. Instructions is rebuilt from the countdown (Instructions = limit -
// rem) wherever machine state can be observed, and the events themselves
// are checked only between chunks.

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/codegen"
	"repro/internal/x86"
)

// haltSentinel is the return-address value that terminates execution.
const haltSentinel = ^uint64(0)

// Call runs the function whose entry instruction index is entry, with the
// machine's registers already holding the arguments, until the matching
// return. It returns RAX's final value.
func (m *Machine) Call(entry int) (uint64, error) {
	// Push the halt sentinel as the return address.
	m.Regs[x86.RSP] -= 8
	if err := m.store(uint32(m.Regs[x86.RSP]), 8, haltSentinel); err != nil {
		return 0, err
	}
	// The push above is bookkeeping, not program behaviour.
	m.Counters.Stores--
	m.rip = entry
	m.halted = false
	if err := m.run(); err != nil {
		return 0, err
	}
	return m.Regs[x86.RAX], nil
}

// extWidth maps extension modes to their source load width.
var extWidth = [5]uint8{extZX8: 1, extZX16: 2, extSX8: 1, extSX16: 2, extSXD: 4}

// SetFidelity selects the simulation tier. Call before execution;
// switching tiers mid-run is not supported.
func (m *Machine) SetFidelity(f codegen.Fidelity) {
	m.noTime = f == codegen.FidelityFunctional
}

func (m *Machine) run() error {
	if m.NoPredecode {
		// The legacy interpreter is the reference oracle: it always runs
		// exact, regardless of the fidelity tier.
		return m.runLegacy()
	}
	if m.noTime {
		return run[functionalTier](m)
	}
	return run[exactTier](m)
}

// exactTier and functionalTier are run's type arguments. Go compiles one
// instantiation per distinct underlying type, and inside each, len of the
// tier is a constant, so timed folds away and the functional instantiation
// contains no timing code. The two types must keep different underlying
// types: if they shared one, they would share one instantiation and every
// timing hook would become a runtime test.
type (
	exactTier      [1]struct{}
	functionalTier [0]struct{}
)

type tier interface{ exactTier | functionalTier }

// timed reports whether tier T models timing.
func timed[T tier]() bool {
	var t T
	return len(t) != 0
}

// charge adds n quarter-cycles on the exact tier only.
func charge[T tier](m *Machine, n uint64) {
	if timed[T]() {
		m.qacc += n
	}
}

// maxChunk bounds one countdown so it fits comfortably in int64 even when
// every event is the ^0 "disabled" sentinel; the outer loop re-enters
// cheaply.
const maxChunk = 1 << 30

// run retires micro-ops until the program halts, traps, or an interrupt
// poll returns an error.
func run[T tier](m *Machine) error {
	exact := timed[T]()
	ops := m.uops
	for !m.halted {
		n := m.Counters.Instructions
		if n >= m.pollAt {
			m.pollAt = n + m.pollEvery
			if err := m.interrupt(); err != nil {
				m.FlushCycles()
				return err
			}
		}
		limit := min(m.pollAt, n+maxChunk)
		rip := m.rip
		rem := int64(limit - n)
		var err error

	chunk:
		for rem > 0 {
			if uint(rip) >= uint(len(ops)) {
				err = &TrapError{Msg: "execution left code segment", PC: rip}
				break
			}
			u := &ops[rip]
			rem--
			if exact && u.line != m.lastILine {
				// Inlined icache walk against the precomputed line number.
				// Unlike the legacy engine's lastLine (which taken branches
				// reset to force a probe), lastILine tracks the last line
				// actually probed: a repeat probe of that line is a
				// guaranteed hit with no counter or cycle effect, and
				// dropping consecutive duplicate touches never changes LRU
				// order, so branches back into the current line skip the
				// probe bit-identically. Every cache level has 64-byte
				// lines, so line<<6 stands in for the fetch address.
				m.lastILine = u.line
				if !m.L1I.Access(u.line << 6) {
					m.Counters.L1IMisses++
					if m.L2.Access(u.line << 6) {
						m.qacc += qL1IMiss
					} else {
						m.qacc += qL2IMiss
					}
				}
			}

			// m.rip is synced before any call-out that can observe it: the
			// generic loads and stores and the helpers that trap with it.
			switch u.kind {
			case uSlow:
				// The count is synced too: an OCallHost shape would let
				// perf hooks snapshot counters.
				m.rip = rip
				m.Counters.Instructions = limit - uint64(rem)
				if err = m.exec(&m.Prog.Code[rip]); err != nil {
					break chunk
				}
				rip = m.rip
				if m.halted {
					break chunk
				}

			case uNop:
				rip++

			case uMovRR:
				v := m.Regs[u.src]
				if u.w == 4 {
					v = uint64(uint32(v))
				}
				m.Regs[u.dst] = v
				rip++

			case uMovRI:
				m.Regs[u.dst] = u.imm
				rip++

			case uMovStore:
				m.rip = rip
				if err = m.store(m.uea(u), u.w, m.Regs[u.src]); err != nil {
					break chunk
				}
				rip++

			case uExtR:
				v := extend(m.Regs[u.src], u.alu)
				if u.w == 4 {
					v = uint64(uint32(v))
				}
				m.Regs[u.dst] = v
				rip++

			case uExtM:
				a := m.uea(u)
				w := extWidth[u.alu]
				var v uint64
				if s, off, ok := m.fastSlab(a, uint32(w)); ok {
					m.Counters.Loads++
					if exact {
						m.dtouch(a)
					}
					switch w {
					case 1:
						v = uint64(s[off])
					case 2:
						v = uint64(binary.LittleEndian.Uint16(s[off:]))
					default:
						v = uint64(binary.LittleEndian.Uint32(s[off:]))
					}
				} else {
					m.rip = rip
					if v, err = m.load(a, w); err != nil {
						break chunk
					}
				}
				v = extend(v, u.alu)
				if u.w == 4 {
					v = uint64(uint32(v))
				}
				m.Regs[u.dst] = v
				rip++

			case uAluRR:
				m.Regs[u.dst] = aluOp[T](m, u, m.Regs[u.dst], m.Regs[u.src])
				rip++

			case uAluRI:
				m.Regs[u.dst] = aluOp[T](m, u, m.Regs[u.dst], u.imm)
				rip++

			case uAluRM:
				a := m.uea(u)
				var b uint64
				if s, off, ok := m.fastSlab(a, uint32(u.w)); ok && u.w >= 4 {
					m.Counters.Loads++
					if exact {
						m.dtouch(a)
					}
					if u.w == 4 {
						b = uint64(binary.LittleEndian.Uint32(s[off:]))
					} else {
						b = binary.LittleEndian.Uint64(s[off:])
					}
				} else {
					m.rip = rip
					if b, err = m.load(a, u.w); err != nil {
						break chunk
					}
				}
				m.Regs[u.dst] = aluOp[T](m, u, m.Regs[u.dst], b)
				rip++

			case uAluMI:
				m.rip = rip
				ea := m.uea(u)
				var a uint64
				if a, err = m.load(ea, u.w); err != nil {
					break chunk
				}
				if err = m.store(ea, u.w, aluOp[T](m, u, a, u.imm)); err != nil {
					break chunk
				}
				rip++

			case uShiftR:
				var s uint
				if u.w == 4 {
					s = uint(m.Regs[u.src] & 31)
				} else {
					s = uint(m.Regs[u.src] & 63)
				}
				m.Regs[u.dst] = shiftOp(u, m.Regs[u.dst], s)
				rip++

			case uShiftI:
				m.Regs[u.dst] = shiftOp(u, m.Regs[u.dst], uint(u.imm))
				rip++

			case uCdq:
				m.execCdq(u.w)
				rip++

			case uDivR:
				m.rip = rip
				d := m.Regs[u.dst]
				if u.w == 4 {
					d = uint64(uint32(d))
				}
				if err = m.execDiv(d, u.w, u.alu == 1); err != nil {
					break chunk
				}
				rip++

			case uCmpRR:
				m.setCmpFlags(m.Regs[u.dst], m.Regs[u.src], u.w)
				rip++

			case uCmpRI:
				m.setCmpFlags(m.Regs[u.dst], u.imm, u.w)
				rip++

			case uCmpRM:
				a := m.uea(u)
				var b uint64
				if s, off, ok := m.fastSlab(a, uint32(u.w)); ok && u.w >= 4 {
					m.Counters.Loads++
					if exact {
						m.dtouch(a)
					}
					if u.w == 4 {
						b = uint64(binary.LittleEndian.Uint32(s[off:]))
					} else {
						b = binary.LittleEndian.Uint64(s[off:])
					}
				} else {
					m.rip = rip
					if b, err = m.load(a, u.w); err != nil {
						break chunk
					}
				}
				m.setCmpFlags(m.Regs[u.dst], b, u.w)
				rip++

			case uTestRR:
				m.setTestFlags(m.Regs[u.dst], m.Regs[u.src], u.w)
				rip++

			case uSet:
				var v uint64
				if m.cc(u.cc) {
					v = 1
				}
				m.Regs[u.dst] = (m.Regs[u.dst] &^ 0xff) | v
				rip++

			case uCmovRR:
				if m.cc(u.cc) {
					v := m.Regs[u.src]
					if u.w == 4 {
						v = uint64(uint32(v))
					}
					m.Regs[u.dst] = v
				}
				rip++

			// Branch kinds inline the unconditional branchTo body. The legacy
			// engine's lastLine reset is not needed here: lastILine tracks the
			// last probed line, which branches must not disturb.
			case uJmp:
				m.Counters.Branches++
				charge[T](m, qBranch)
				rip = int(u.tgt)

			case uJcc:
				m.Counters.Branches++
				m.Counters.CondBranches++
				taken := m.cc(u.cc)
				if exact {
					m.qacc += qBranch
					if !m.BP.Predict(uint32(u.imm), taken) {
						m.Counters.BranchMiss++
						m.qacc += qMispred
					}
				}
				if taken {
					rip = int(u.tgt)
				} else {
					rip++
				}

			case uCall, uCallR:
				t := uint64(u.tgt)
				if u.kind == uCallR {
					if t = m.Regs[u.dst]; t >= uint64(len(ops)) {
						err = &TrapError{Msg: "indirect call to invalid target", PC: rip}
						break chunk
					}
				}
				m.Regs[x86.RSP] -= 8
				a := uint32(m.Regs[x86.RSP])
				if s, off, ok := m.fastSlab(a, 8); ok {
					m.Counters.Stores++
					if exact {
						m.dtouch(a)
					}
					binary.LittleEndian.PutUint64(s[off:], uint64(rip+1))
				} else {
					m.rip = rip
					if err = m.store(a, 8, uint64(rip+1)); err != nil {
						break chunk
					}
				}
				m.Counters.Branches++
				charge[T](m, qBranch)
				rip = int(t)

			case uRet:
				a := uint32(m.Regs[x86.RSP])
				var ra uint64
				if s, off, ok := m.fastSlab(a, 8); ok {
					m.Counters.Loads++
					if exact {
						m.dtouch(a)
					}
					ra = binary.LittleEndian.Uint64(s[off:])
				} else {
					m.rip = rip
					if ra, err = m.load(a, 8); err != nil {
						break chunk
					}
				}
				m.Regs[x86.RSP] += 8
				m.Counters.Branches++
				if ra == haltSentinel {
					m.halted = true
					break chunk
				}
				charge[T](m, qBranch)
				rip = int(ra)

			case uPushR:
				m.Regs[x86.RSP] -= 8
				a := uint32(m.Regs[x86.RSP])
				if s, off, ok := m.fastSlab(a, 8); ok {
					m.Counters.Stores++
					if exact {
						m.dtouch(a)
					}
					binary.LittleEndian.PutUint64(s[off:], m.Regs[u.src])
				} else {
					m.rip = rip
					if err = m.store(a, 8, m.Regs[u.src]); err != nil {
						break chunk
					}
				}
				rip++

			case uPop:
				a := uint32(m.Regs[x86.RSP])
				var v uint64
				if s, off, ok := m.fastSlab(a, 8); ok {
					m.Counters.Loads++
					if exact {
						m.dtouch(a)
					}
					v = binary.LittleEndian.Uint64(s[off:])
				} else {
					m.rip = rip
					if v, err = m.load(a, 8); err != nil {
						break chunk
					}
				}
				m.Regs[x86.RSP] += 8
				m.Regs[u.dst] = v
				rip++

			case uUd2:
				err = &TrapError{Msg: "unreachable executed (ud2)", PC: rip}
				break chunk

			case uCallHost:
				if m.Host == nil {
					err = &TrapError{Msg: "host call with no host bound", PC: rip}
					break chunk
				}
				m.Counters.Branches++
				charge[T](m, qCallHost)
				// Host handlers (syscalls, perf hooks) observe machine
				// state: sync rip and the count before the call.
				m.rip = rip
				m.Counters.Instructions = limit - uint64(rem)
				if err = m.Host(m, int(u.tgt)); err != nil {
					break chunk
				}
				rip++

			case uMovsdRR:
				m.Xmm[u.dst] = m.Xmm[u.src]
				rip++

			case uFAluRR:
				m.Xmm[u.dst] = bitsOf(fAluOp[T](m, u, f64of(m.Xmm[u.dst], u.w), f64of(m.Xmm[u.src], u.w)), u.w)
				rip++

			case uFAluRM:
				a := m.uea(u)
				var bv uint64
				if s, off, ok := m.fastSlab(a, uint32(u.w)); ok {
					m.Counters.Loads++
					if exact {
						m.dtouch(a)
					}
					if u.w == 4 {
						bv = uint64(binary.LittleEndian.Uint32(s[off:]))
					} else {
						bv = binary.LittleEndian.Uint64(s[off:])
					}
				} else {
					m.rip = rip
					if bv, err = m.load(a, u.w); err != nil {
						break chunk
					}
				}
				m.Xmm[u.dst] = bitsOf(fAluOp[T](m, u, f64of(m.Xmm[u.dst], u.w), f64of(bv, u.w)), u.w)
				rip++

			case uSqrtR:
				charge[T](m, qFSqrt)
				m.Xmm[u.dst] = bitsOf(math.Sqrt(f64of(m.Xmm[u.src], u.w)), u.w)
				rip++

			case uSqrtM:
				m.rip = rip
				var bv uint64
				if bv, err = m.load(m.uea(u), u.w); err != nil {
					break chunk
				}
				charge[T](m, qFSqrt)
				m.Xmm[u.dst] = bitsOf(math.Sqrt(f64of(bv, u.w)), u.w)
				rip++

			case uUcomiR:
				m.setUcomiFlags(f64of(m.Xmm[u.dst], u.w), f64of(m.Xmm[u.src], u.w))
				rip++

			case uUcomiM:
				m.rip = rip
				var bv uint64
				if bv, err = m.load(m.uea(u), u.w); err != nil {
					break chunk
				}
				m.setUcomiFlags(f64of(m.Xmm[u.dst], u.w), f64of(bv, u.w))
				rip++

			case uCvtSI2SDR:
				charge[T](m, qCvt)
				m.Xmm[u.dst] = math.Float64bits(cvtIntToF64(m.Regs[u.src], u.w, u.uns))
				rip++

			case uCvtSI2SDM:
				m.rip = rip
				var v uint64
				if v, err = m.load(m.uea(u), u.w); err != nil {
					break chunk
				}
				charge[T](m, qCvt)
				m.Xmm[u.dst] = math.Float64bits(cvtIntToF64(v, u.w, u.uns))
				rip++

			case uCvtTSD2SIR:
				m.rip = rip
				var r uint64
				if r, err = m.cvtF64ToInt(f64of(m.Xmm[u.src], u.alu), u.w, u.uns); err != nil {
					break chunk
				}
				m.Regs[u.dst] = r
				rip++

			case uCvtTSD2SIM:
				m.rip = rip
				var bv, r uint64
				if bv, err = m.load(m.uea(u), u.alu); err != nil {
					break chunk
				}
				if r, err = m.cvtF64ToInt(f64of(bv, u.alu), u.w, u.uns); err != nil {
					break chunk
				}
				m.Regs[u.dst] = r
				rip++

			case uLogicXX, uLogicXM:
				b := m.Xmm[u.src]
				if u.kind == uLogicXM {
					m.rip = rip
					if b, err = m.load(m.uea(u), 8); err != nil {
						break chunk
					}
				}
				if u.alu == 0 {
					m.Xmm[u.dst] &= b
				} else {
					m.Xmm[u.dst] ^= b
				}
				rip++

			// Width-specialized memory kinds: the whole linear-memory fast
			// path (bounds check, retired-access counter, dcache memo,
			// fixed-width access) is inlined here; anything outside linear
			// memory falls back to the generic load/store with identical
			// semantics.
			case uMovLoad64:
				a := m.uea(u)
				if s, off, ok := m.fastSlab(a, 8); ok {
					m.Counters.Loads++
					if exact {
						m.dtouch(a)
					}
					m.Regs[u.dst] = binary.LittleEndian.Uint64(s[off:])
				} else {
					m.rip = rip
					var v uint64
					if v, err = m.load(a, 8); err != nil {
						break chunk
					}
					m.Regs[u.dst] = v
				}
				rip++

			case uMovLoad32:
				a := m.uea(u)
				if s, off, ok := m.fastSlab(a, 4); ok {
					m.Counters.Loads++
					if exact {
						m.dtouch(a)
					}
					m.Regs[u.dst] = uint64(binary.LittleEndian.Uint32(s[off:]))
				} else {
					m.rip = rip
					var v uint64
					if v, err = m.load(a, 4); err != nil {
						break chunk
					}
					m.Regs[u.dst] = v
				}
				rip++

			case uMovStore64:
				a := m.uea(u)
				if s, off, ok := m.fastSlab(a, 8); ok {
					m.Counters.Stores++
					if exact {
						m.dtouch(a)
					}
					binary.LittleEndian.PutUint64(s[off:], m.Regs[u.src])
				} else {
					m.rip = rip
					if err = m.store(a, 8, m.Regs[u.src]); err != nil {
						break chunk
					}
				}
				rip++

			case uMovStore32:
				a := m.uea(u)
				if s, off, ok := m.fastSlab(a, 4); ok {
					m.Counters.Stores++
					if exact {
						m.dtouch(a)
					}
					binary.LittleEndian.PutUint32(s[off:], uint32(m.Regs[u.src]))
				} else {
					m.rip = rip
					if err = m.store(a, 4, m.Regs[u.src]); err != nil {
						break chunk
					}
				}
				rip++

			case uFLoad64:
				a := m.uea(u)
				if s, off, ok := m.fastSlab(a, 8); ok {
					m.Counters.Loads++
					if exact {
						m.dtouch(a)
					}
					m.Xmm[u.dst] = binary.LittleEndian.Uint64(s[off:])
				} else {
					m.rip = rip
					var v uint64
					if v, err = m.load(a, 8); err != nil {
						break chunk
					}
					m.Xmm[u.dst] = v
				}
				rip++

			case uFStore64:
				a := m.uea(u)
				if s, off, ok := m.fastSlab(a, 8); ok {
					m.Counters.Stores++
					if exact {
						m.dtouch(a)
					}
					binary.LittleEndian.PutUint64(s[off:], m.Xmm[u.src])
				} else {
					m.rip = rip
					if err = m.store(a, 8, m.Xmm[u.src]); err != nil {
						break chunk
					}
				}
				rip++

			// Fused compare-and-branch: the jcc's icache fetch is a
			// guaranteed same-line skip, so its retirement is one more
			// countdown step. When the countdown runs out between the
			// halves, the pair is split: the chunk ends with rip on the jcc,
			// which then retires through its own unfused uop with identical
			// effects. An interrupt therefore sees exactly the instructions
			// an unfused engine would have retired.
			case uCmpRRJcc, uCmpRIJcc, uTestRRJcc:
				switch u.kind {
				case uCmpRRJcc:
					m.setCmpFlags(m.Regs[u.dst], m.Regs[u.src], u.w)
				case uCmpRIJcc:
					m.setCmpFlags(m.Regs[u.dst], u.imm, u.w)
				default:
					m.setTestFlags(m.Regs[u.dst], m.Regs[u.src], u.w)
				}
				if rem == 0 {
					rip++
					break chunk
				}
				rem--
				m.Counters.Branches++
				m.Counters.CondBranches++
				taken := m.cc(u.cc)
				if exact {
					m.qacc += qBranch
					if !m.BP.Predict(uint32(u.disp), taken) {
						m.Counters.BranchMiss++
						m.qacc += qMispred
					}
				}
				if taken {
					rip = int(u.tgt)
				} else {
					rip += 2
				}
			}
		}

		m.rip = rip
		m.Counters.Instructions = limit - uint64(rem)
		if err != nil {
			m.FlushCycles()
			return err
		}
	}
	m.FlushCycles()
	return nil
}

// uea computes the effective address from a micro-op's pre-extracted
// addressing template. Base-less operands zero-extend the displacement (the
// engine's absolute structures live above 2 GiB), matching Machine.ea.
func (m *Machine) uea(u *uop) uint32 {
	var a uint64
	if u.base != 0xff {
		a = m.Regs[u.base] + uint64(int64(u.disp))
	} else {
		a = uint64(uint32(u.disp))
	}
	if u.idx != 0xff {
		a += m.Regs[u.idx] * uint64(u.scale)
	}
	return uint32(a)
}

// aluOp applies the integer ALU sub-operation, charging the multiply cost
// on the exact tier and applying 32-bit result truncation exactly like the
// legacy engine. It sits just inside the inliner's budget, which is why the
// charge is spelled out instead of calling charge.
func aluOp[T tier](m *Machine, u *uop, a, b uint64) (r uint64) {
	switch u.alu {
	case aluAdd:
		r = a + b
	case aluSub:
		r = a - b
	case aluAnd:
		r = a & b
	case aluOr:
		r = a | b
	case aluXor:
		r = a ^ b
	case aluImul:
		r = a * b
		if timed[T]() {
			m.qacc += qMul
		}
	}
	if u.w == 4 {
		r = uint64(uint32(r))
	}
	return r
}

// shiftOp applies a shift/rotate with a pre-masked count.
func shiftOp(u *uop, a uint64, s uint) uint64 {
	var r uint64
	switch u.alu {
	case shfShl:
		r = a << s
	case shfShr:
		if u.w == 4 {
			r = uint64(uint32(a) >> s)
		} else {
			r = a >> s
		}
	case shfSar:
		if u.w == 4 {
			r = uint64(uint32(int32(uint32(a)) >> s))
		} else {
			r = uint64(int64(a) >> s)
		}
	case shfRol:
		if u.w == 4 {
			r = uint64(bits.RotateLeft32(uint32(a), int(s)))
		} else {
			r = bits.RotateLeft64(a, int(s))
		}
	case shfRor:
		if u.w == 4 {
			r = uint64(bits.RotateLeft32(uint32(a), -int(s)))
		} else {
			r = bits.RotateLeft64(a, -int(s))
		}
	}
	if u.w == 4 {
		r = uint64(uint32(r))
	}
	return r
}

// extend applies a zero/sign-extension mode.
func extend(v uint64, mode uint8) uint64 {
	switch mode {
	case extZX8:
		return v & 0xff
	case extZX16:
		return v & 0xffff
	case extSX8:
		return uint64(int64(int8(v)))
	case extSX16:
		return uint64(int64(int16(v)))
	default: // extSXD
		return uint64(int64(int32(uint32(v))))
	}
}

// fAluOp applies a scalar float op with Wasm min/max semantics and float32
// re-rounding at width 4, charging the op's cycle cost on the exact tier.
func fAluOp[T tier](m *Machine, u *uop, a, b float64) float64 {
	var r float64
	q := uint64(qFALU)
	switch u.alu {
	case fAdd:
		r = a + b
	case fSub:
		r = a - b
	case fMul:
		r = a * b
	case fDiv:
		r = a / b
		q = qFDiv
	case fMin:
		r = wasmMin(a, b)
	case fMax:
		r = wasmMax(a, b)
	}
	charge[T](m, q)
	if u.w == 4 {
		// float32 rounding at each step
		r = float64(float32(r))
	}
	return r
}

// execCdq sign-extends RAX into RDX (cdq/cqo).
func (m *Machine) execCdq(w uint8) {
	if w == 4 {
		if int32(uint32(m.Regs[x86.RAX])) < 0 {
			m.Regs[x86.RDX] = uint64(uint32(0xffffffff))
		} else {
			m.Regs[x86.RDX] = 0
		}
	} else {
		if int64(m.Regs[x86.RAX]) < 0 {
			m.Regs[x86.RDX] = ^uint64(0)
		} else {
			m.Regs[x86.RDX] = 0
		}
	}
}

// execDiv divides RDX:RAX (modeled as RAX alone) by d, writing quotient and
// remainder to RAX/RDX with trap semantics and cycle charges.
func (m *Machine) execDiv(d uint64, w uint8, signed bool) error {
	if w == 4 {
		m.q(qDiv32)
	} else {
		m.q(qDiv64)
	}
	if w == 4 {
		div := uint32(d)
		if div == 0 {
			return &TrapError{Msg: "integer divide by zero", PC: m.rip}
		}
		a := uint32(m.Regs[x86.RAX])
		if signed {
			if int32(a) == math.MinInt32 && int32(div) == -1 {
				return &TrapError{Msg: "integer overflow", PC: m.rip}
			}
			q := int32(a) / int32(div)
			r := int32(a) % int32(div)
			m.Regs[x86.RAX] = uint64(uint32(q))
			m.Regs[x86.RDX] = uint64(uint32(r))
		} else {
			m.Regs[x86.RAX] = uint64(a / div)
			m.Regs[x86.RDX] = uint64(a % div)
		}
		return nil
	}
	if d == 0 {
		return &TrapError{Msg: "integer divide by zero", PC: m.rip}
	}
	a := m.Regs[x86.RAX]
	if signed {
		if int64(a) == math.MinInt64 && int64(d) == -1 {
			return &TrapError{Msg: "integer overflow", PC: m.rip}
		}
		m.Regs[x86.RAX] = uint64(int64(a) / int64(d))
		m.Regs[x86.RDX] = uint64(int64(a) % int64(d))
	} else {
		m.Regs[x86.RAX] = a / d
		m.Regs[x86.RDX] = a % d
	}
	return nil
}

// setUcomiFlags sets the flags of an unordered float compare.
func (m *Machine) setUcomiFlags(a, b float64) {
	f := &m.Flags
	f.OF, f.SF = false, false
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		f.ZF, f.CF, f.PF = true, true, true
	case a < b:
		f.ZF, f.CF, f.PF = false, true, false
	case a > b:
		f.ZF, f.CF, f.PF = false, false, false
	default:
		f.ZF, f.CF, f.PF = true, false, false
	}
}

// cvtIntToF64 converts an integer of width w (signed or unsigned) to f64.
func cvtIntToF64(v uint64, w uint8, uns bool) float64 {
	if uns {
		if w == 4 {
			return float64(uint32(v))
		}
		return float64(v)
	}
	if w == 4 {
		return float64(int32(uint32(v)))
	}
	return float64(int64(v))
}

// cvtF64ToInt truncates f to an integer of width w with wasm trap
// semantics, charging the conversion cost.
func (m *Machine) cvtF64ToInt(f float64, w uint8, uns bool) (uint64, error) {
	m.q(qCvt)
	if math.IsNaN(f) {
		return 0, &TrapError{Msg: "invalid conversion to integer", PC: m.rip}
	}
	t := math.Trunc(f)
	if uns {
		if w == 4 {
			if t < 0 || t > math.MaxUint32 {
				return 0, &TrapError{Msg: "integer overflow in conversion", PC: m.rip}
			}
			return uint64(uint32(t)), nil
		}
		if t < 0 || t >= math.MaxUint64 {
			return 0, &TrapError{Msg: "integer overflow in conversion", PC: m.rip}
		}
		return uint64(t), nil
	}
	if w == 4 {
		if t < math.MinInt32 || t > math.MaxInt32 {
			return 0, &TrapError{Msg: "integer overflow in conversion", PC: m.rip}
		}
		return uint64(uint32(int32(t))), nil
	}
	if t < math.MinInt64 || t >= math.MaxInt64 {
		return 0, &TrapError{Msg: "integer overflow in conversion", PC: m.rip}
	}
	return uint64(int64(t)), nil
}

// roundMode applies a roundsd rounding mode.
func roundMode(f float64, mode uint8) float64 {
	switch mode {
	case 0:
		return math.RoundToEven(f)
	case 1:
		return math.Floor(f)
	case 2:
		return math.Ceil(f)
	default:
		return math.Trunc(f)
	}
}

// branchTo redirects control and charges branch costs. Branch counters are
// architectural and always move; the predictor (and its BranchMiss counter)
// is timing state, skipped while timing is suppressed so the uSlow/legacy
// fallback stays usable from the functional engine.
func (m *Machine) branchTo(target int, conditional, taken bool, addr uint32) {
	m.Counters.Branches++
	m.q(qBranch)
	if conditional {
		m.Counters.CondBranches++
		if !m.noTime {
			if !m.BP.Predict(addr, taken) {
				m.Counters.BranchMiss++
				m.q(qMispred)
			}
		}
	}
	if taken {
		m.rip = target
		m.lastLine = ^uint32(0) // force an i-cache probe at the target
	} else {
		m.rip++
	}
}
