package cpu

// Legacy instruction-at-a-time interpreter. This is the original engine,
// retained for two reasons: it is the differential-testing oracle for the
// pre-decoded micro-op engine (see TestPredecodeMatchesLegacy), and it is
// the fallback executor for operand shapes the decoder does not specialize
// (micro-op kind uSlow). Counter and cycle accounting here is the reference
// semantics; the micro-op engine must match it bit-for-bit.

import (
	"math"
	"math/bits"

	"repro/internal/x86"
)

// runLegacy is the original fetch-decode-execute loop.
func (m *Machine) runLegacy() error {
	code := m.Prog.Code
	for !m.halted {
		if m.Counters.Instructions >= m.pollAt {
			m.pollAt = m.Counters.Instructions + m.pollEvery
			if err := m.interrupt(); err != nil {
				m.FlushCycles()
				return err
			}
		}
		if m.rip < 0 || m.rip >= len(code) {
			return &TrapError{Msg: "execution left code segment", PC: m.rip}
		}
		in := &code[m.rip]
		m.Counters.Instructions++ // qBase is charged in FlushCycles
		m.icache(in.Addr)
		if err := m.exec(in); err != nil {
			m.FlushCycles()
			return err
		}
	}
	m.FlushCycles()
	return nil
}

func (m *Machine) exec(in *x86.Inst) error {
	switch in.Op {
	case x86.ONop:
		m.rip++

	case x86.OMov:
		v, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		if in.Dst.Kind == x86.KMem {
			if err := m.store(m.ea(&in.Dst.Mem), in.W, v); err != nil {
				return err
			}
		} else {
			m.writeGP(in.Dst.Reg, in.W, v)
		}
		m.rip++

	case x86.OMovImm:
		m.writeGP(in.Dst.Reg, in.W, uint64(in.Src.Imm))
		m.rip++

	case x86.OMovZX8, x86.OMovZX16, x86.OMovSX8, x86.OMovSX16, x86.OMovSXD:
		var rw uint8 = 1
		switch in.Op {
		case x86.OMovZX16, x86.OMovSX16:
			rw = 2
		case x86.OMovSXD:
			rw = 4
		}
		v, err := m.readOperand(&in.Src, rw)
		if err != nil {
			return err
		}
		switch in.Op {
		case x86.OMovSX8:
			v = uint64(int64(int8(v)))
		case x86.OMovSX16:
			v = uint64(int64(int16(v)))
		case x86.OMovSXD:
			v = uint64(int64(int32(v)))
		case x86.OMovZX8:
			v &= 0xff
		case x86.OMovZX16:
			v &= 0xffff
		}
		m.writeGP(in.Dst.Reg, in.W, v)
		m.rip++

	case x86.OLea:
		m.writeGP(in.Dst.Reg, in.W, uint64(m.ea(&in.Src.Mem)))
		m.rip++

	case x86.OAdd, x86.OSub, x86.OAnd, x86.OOr, x86.OXor, x86.OImul:
		var a uint64
		var err error
		memDst := in.Dst.Kind == x86.KMem
		var ea uint32
		if memDst {
			ea = m.ea(&in.Dst.Mem)
			a, err = m.load(ea, in.W)
		} else {
			a, err = m.readOperand(&in.Dst, in.W)
		}
		if err != nil {
			return err
		}
		b, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		var r uint64
		switch in.Op {
		case x86.OAdd:
			r = a + b
		case x86.OSub:
			r = a - b
		case x86.OAnd:
			r = a & b
		case x86.OOr:
			r = a | b
		case x86.OXor:
			r = a ^ b
		case x86.OImul:
			r = a * b
			m.q(qMul)
		}
		if memDst {
			if err := m.store(ea, in.W, r); err != nil {
				return err
			}
		} else {
			m.writeGP(in.Dst.Reg, in.W, r)
		}
		m.rip++

	case x86.OShl, x86.OSar, x86.OShr, x86.ORol, x86.ORor:
		a, err := m.readOperand(&in.Dst, in.W)
		if err != nil {
			return err
		}
		b, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		var mask uint64 = 63
		if in.W == 4 {
			mask = 31
		}
		s := uint(b & mask)
		var r uint64
		switch in.Op {
		case x86.OShl:
			r = a << s
		case x86.OShr:
			if in.W == 4 {
				r = uint64(uint32(a) >> s)
			} else {
				r = a >> s
			}
		case x86.OSar:
			if in.W == 4 {
				r = uint64(uint32(int32(uint32(a)) >> s))
			} else {
				r = uint64(int64(a) >> s)
			}
		case x86.ORol:
			if in.W == 4 {
				r = uint64(bits.RotateLeft32(uint32(a), int(s)))
			} else {
				r = bits.RotateLeft64(a, int(s))
			}
		case x86.ORor:
			if in.W == 4 {
				r = uint64(bits.RotateLeft32(uint32(a), -int(s)))
			} else {
				r = bits.RotateLeft64(a, -int(s))
			}
		}
		m.writeGP(in.Dst.Reg, in.W, r)
		m.rip++

	case x86.ONeg:
		a, _ := m.readOperand(&in.Dst, in.W)
		m.writeGP(in.Dst.Reg, in.W, -a)
		m.rip++

	case x86.ONot:
		a, _ := m.readOperand(&in.Dst, in.W)
		m.writeGP(in.Dst.Reg, in.W, ^a)
		m.rip++

	case x86.OBsr: // modeled as lzcnt
		v, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		var r uint64
		if in.W == 4 {
			r = uint64(bits.LeadingZeros32(uint32(v)))
		} else {
			r = uint64(bits.LeadingZeros64(v))
		}
		m.writeGP(in.Dst.Reg, in.W, r)
		m.rip++

	case x86.OBsf: // modeled as tzcnt
		v, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		var r uint64
		if in.W == 4 {
			r = uint64(bits.TrailingZeros32(uint32(v)))
		} else {
			r = uint64(bits.TrailingZeros64(v))
		}
		m.writeGP(in.Dst.Reg, in.W, r)
		m.rip++

	case x86.OPopcnt:
		v, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		if in.W == 4 {
			v = uint64(bits.OnesCount32(uint32(v)))
		} else {
			v = uint64(bits.OnesCount64(v))
		}
		m.writeGP(in.Dst.Reg, in.W, v)
		m.rip++

	case x86.OCdq:
		m.execCdq(in.W)
		m.rip++

	case x86.OIdiv, x86.ODiv:
		d, err := m.readOperand(&in.Dst, in.W)
		if err != nil {
			return err
		}
		if err := m.execDiv(d, in.W, in.Op == x86.OIdiv); err != nil {
			return err
		}
		m.rip++

	case x86.OCmp:
		a, err := m.readOperand(&in.Dst, in.W)
		if err != nil {
			return err
		}
		b, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		m.setCmpFlags(a, b, in.W)
		m.rip++

	case x86.OTest:
		a, err := m.readOperand(&in.Dst, in.W)
		if err != nil {
			return err
		}
		b, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		m.setTestFlags(a, b, in.W)
		m.rip++

	case x86.OSet:
		var v uint64
		if m.cc(in.CC) {
			v = 1
		}
		r := in.Dst.Reg
		m.Regs[r] = (m.Regs[r] &^ 0xff) | v
		m.rip++

	case x86.OCmov:
		if m.cc(in.CC) {
			v, err := m.readOperand(&in.Src, in.W)
			if err != nil {
				return err
			}
			m.writeGP(in.Dst.Reg, in.W, v)
		} else if in.Src.Kind == x86.KMem {
			// cmov with a memory source still performs the load.
			if _, err := m.load(m.ea(&in.Src.Mem), in.W); err != nil {
				return err
			}
		}
		m.rip++

	case x86.OJmp:
		m.branchTo(in.Target, false, true, in.Addr)

	case x86.OJcc:
		m.branchTo(in.Target, true, m.cc(in.CC), in.Addr)

	case x86.OJmpTable:
		targets := m.Prog.Tables[in.Target]
		idx := int(uint32(m.Regs[in.Dst.Reg]))
		if idx < 0 || idx >= len(targets) {
			return &TrapError{Msg: "jump table index out of range", PC: m.rip}
		}
		m.Counters.Loads++ // table entry fetch
		m.q(qLoad)
		m.branchTo(targets[idx], false, true, in.Addr)

	case x86.OCall:
		m.Regs[x86.RSP] -= 8
		if err := m.store(uint32(m.Regs[x86.RSP]), 8, uint64(m.rip+1)); err != nil {
			return err
		}
		m.branchTo(in.Target, false, true, in.Addr)

	case x86.OCallR:
		t, err := m.readOperand(&in.Dst, 8)
		if err != nil {
			return err
		}
		if t >= uint64(len(m.Prog.Code)) {
			return &TrapError{Msg: "indirect call to invalid target", PC: m.rip}
		}
		m.Regs[x86.RSP] -= 8
		if err := m.store(uint32(m.Regs[x86.RSP]), 8, uint64(m.rip+1)); err != nil {
			return err
		}
		m.branchTo(int(t), false, true, in.Addr)

	case x86.ORet:
		ra, err := m.load(uint32(m.Regs[x86.RSP]), 8)
		if err != nil {
			return err
		}
		m.Regs[x86.RSP] += 8
		if ra == haltSentinel {
			m.halted = true
			m.Counters.Branches++
			return nil
		}
		m.branchTo(int(ra), false, true, in.Addr)

	case x86.OPush:
		v, err := m.readOperand(&in.Dst, 8)
		if err != nil {
			return err
		}
		m.Regs[x86.RSP] -= 8
		if err := m.store(uint32(m.Regs[x86.RSP]), 8, v); err != nil {
			return err
		}
		m.rip++

	case x86.OPop:
		v, err := m.load(uint32(m.Regs[x86.RSP]), 8)
		if err != nil {
			return err
		}
		m.Regs[x86.RSP] += 8
		m.writeGP(in.Dst.Reg, 8, v)
		m.rip++

	case x86.OUd2:
		return &TrapError{Msg: "unreachable executed (ud2)", PC: m.rip}

	case x86.OCallHost:
		if m.Host == nil {
			return &TrapError{Msg: "host call with no host bound", PC: m.rip}
		}
		m.Counters.Branches++
		m.q(qCallHost)
		if err := m.Host(m, int(in.Host)); err != nil {
			return err
		}
		m.rip++

	default:
		return m.execSSE(in)
	}
	return nil
}

func (m *Machine) execSSE(in *x86.Inst) error {
	switch in.Op {
	case x86.OMovsd:
		if in.Dst.Kind == x86.KMem {
			v := m.Xmm[in.Src.Reg-x86.XMM0]
			if err := m.store(m.ea(&in.Dst.Mem), in.W, v); err != nil {
				return err
			}
			m.rip++
			return nil
		}
		v, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		m.Xmm[in.Dst.Reg-x86.XMM0] = v
		m.rip++

	case x86.OAddsd, x86.OSubsd, x86.OMulsd, x86.ODivsd, x86.OMinsd, x86.OMaxsd:
		a := f64of(m.Xmm[in.Dst.Reg-x86.XMM0], in.W)
		bv, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		b := f64of(bv, in.W)
		var r float64
		switch in.Op {
		case x86.OAddsd:
			r = a + b
			m.q(qFALU)
		case x86.OSubsd:
			r = a - b
			m.q(qFALU)
		case x86.OMulsd:
			r = a * b
			m.q(qFALU)
		case x86.ODivsd:
			r = a / b
			m.q(qFDiv)
		case x86.OMinsd:
			r = wasmMin(a, b)
			m.q(qFALU)
		case x86.OMaxsd:
			r = wasmMax(a, b)
			m.q(qFALU)
		}
		if in.W == 4 {
			// float32 rounding at each step
			r = float64(float32(r))
		}
		m.Xmm[in.Dst.Reg-x86.XMM0] = bitsOf(r, in.W)
		m.rip++

	case x86.OSqrtsd:
		bv, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		m.q(qFSqrt)
		m.Xmm[in.Dst.Reg-x86.XMM0] = bitsOf(math.Sqrt(f64of(bv, in.W)), in.W)
		m.rip++

	case x86.OUcomisd:
		a := f64of(m.Xmm[in.Dst.Reg-x86.XMM0], in.W)
		bv, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		m.setUcomiFlags(a, f64of(bv, in.W))
		m.rip++

	case x86.OCvtsi2sd:
		v, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		m.q(qCvt)
		m.Xmm[in.Dst.Reg-x86.XMM0] = math.Float64bits(cvtIntToF64(v, in.W, in.Uns))
		m.rip++

	case x86.OCvttsd2si:
		srcW := uint8(in.Target)
		if srcW == 0 {
			srcW = 8
		}
		bv, err := m.readOperand(&in.Src, srcW)
		if err != nil {
			return err
		}
		r, err := m.cvtF64ToInt(f64of(bv, srcW), in.W, in.Uns)
		if err != nil {
			return err
		}
		m.writeGP(in.Dst.Reg, in.W, r)
		m.rip++

	case x86.OCvtsd2ss:
		bv, err := m.readOperand(&in.Src, 8)
		if err != nil {
			return err
		}
		m.q(qCvt)
		m.Xmm[in.Dst.Reg-x86.XMM0] = cvtSD2SS(bv)
		m.rip++

	case x86.OCvtss2sd:
		bv, err := m.readOperand(&in.Src, 4)
		if err != nil {
			return err
		}
		m.q(qCvt)
		m.Xmm[in.Dst.Reg-x86.XMM0] = cvtSS2SD(bv)
		m.rip++

	case x86.OMovq:
		if in.Dst.Reg.IsXMM() {
			v, err := m.readOperand(&in.Src, in.W)
			if err != nil {
				return err
			}
			m.Xmm[in.Dst.Reg-x86.XMM0] = v
		} else {
			m.writeGP(in.Dst.Reg, in.W, m.Xmm[in.Src.Reg-x86.XMM0])
		}
		m.rip++

	case x86.OAndpd, x86.OXorpd:
		a := m.Xmm[in.Dst.Reg-x86.XMM0]
		var b uint64
		var err error
		if in.Src.Kind == x86.KReg && in.Src.Reg.IsXMM() {
			b = m.Xmm[in.Src.Reg-x86.XMM0]
		} else {
			b, err = m.readOperand(&in.Src, 8)
			if err != nil {
				return err
			}
		}
		if in.Op == x86.OAndpd {
			m.Xmm[in.Dst.Reg-x86.XMM0] = a & b
		} else {
			m.Xmm[in.Dst.Reg-x86.XMM0] = a ^ b
		}
		m.rip++

	case x86.ORound:
		bv, err := m.readOperand(&in.Src, in.W)
		if err != nil {
			return err
		}
		m.q(qCvt)
		m.Xmm[in.Dst.Reg-x86.XMM0] = bitsOf(roundMode(f64of(bv, in.W), uint8(in.Target)), in.W)
		m.rip++

	default:
		return &TrapError{Msg: "unimplemented opcode " + in.String(), PC: m.rip}
	}
	return nil
}

// wasmMin/Max implement Wasm float semantics (NaN-propagating, signed zero).
func wasmMin(x, y float64) float64 {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.NaN()
	}
	if x == 0 && y == 0 {
		if math.Signbit(x) {
			return x
		}
		return y
	}
	return math.Min(x, y)
}

func wasmMax(x, y float64) float64 {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.NaN()
	}
	if x == 0 && y == 0 {
		if !math.Signbit(x) {
			return x
		}
		return y
	}
	return math.Max(x, y)
}
