package cpu

// Pre-decoder: translates a laid-out x86.Program into a flat micro-op
// stream consumed by the machine's dispatch loop. Decoding happens once per
// program (cached on x86.Program.Predecoded) instead of re-interpreting
// operand kinds, register classes, and addressing modes on every executed
// instruction.
//
// Micro-ops are 1:1 with instructions, so instruction indices (rip values,
// branch targets, the halt protocol) are unchanged. Each micro-op carries a
// dense handler kind that already encodes the operand shape — register,
// immediate, or memory — plus pre-resolved register numbers (XMM registers
// pre-offset to their array index), a pre-extracted effective-address
// template, and the precomputed instruction-cache line number.
//
// A micro-op kind exists only for a shape the compiler emits for the
// benchmark programs (TestUopKindsMatchWorkloads pins both directions).
// Every other shape decodes to uSlow, which executes the original
// instruction through the legacy interpreter with identical semantics.

import (
	"sync"
	"unsafe"

	"repro/internal/x86"
)

// uopKind is the dense handler class. The dispatch switch in exec.go is
// ordered identically, so it compiles to a single jump table.
type uopKind uint8

const (
	uSlow uopKind = iota // fallback: legacy-interpret Prog.Code[rip]
	uNop
	uMovRR    // gp <- gp
	uMovRI    // gp <- imm
	uMovStore // [ea] <- gp, widths 1 and 2 (4 and 8 are uMovStore32/64)
	uExtR     // gp <- zx/sx(gp), alu = ext mode
	uExtM     // gp <- zx/sx([ea])
	uAluRR    // gp <- gp op gp, alu = aluAdd..aluImul
	uAluRI    // gp <- gp op imm
	uAluRM    // gp <- gp op [ea]
	uAluMI    // [ea] <- [ea] op imm
	uShiftR   // gp <- gp shift cl-style reg, alu = shfShl..shfRor
	uShiftI   // gp <- gp shift imm (count pre-masked)
	uCdq
	uDivR // divisor in gp, alu = 1 for signed
	uCmpRR
	uCmpRI
	uCmpRM
	uTestRR
	uSet
	uCmovRR
	uJmp
	uJcc
	uCall
	uCallR // target in gp
	uRet
	uPushR
	uPop
	uUd2
	uCallHost
	uMovsdRR // xmm <- xmm
	uFAluRR  // xmm <- xmm fop xmm, alu = fAdd..fMax
	uFAluRM
	uSqrtR
	uSqrtM
	uUcomiR
	uUcomiM
	uCvtSI2SDR
	uCvtSI2SDM
	uCvtTSD2SIR // alu = source float width
	uCvtTSD2SIM
	uLogicXX // andpd/xorpd, alu = 0 and / 1 xor
	uLogicXM

	// Width-specialized variants of the hottest memory kinds. Their
	// dispatch arms inline the whole linear-memory fast path: bounds check,
	// load/store counter, dcache memo, and the fixed-width access.
	uMovLoad32
	uMovLoad64
	uMovStore32
	uMovStore64
	uFLoad64
	uFStore64

	// Macro-fused compare-and-branch kinds (see fusePairs): the flag-setting
	// op and the following uJcc retire in one dispatch. The uop carries the
	// compare's operands plus the branch's cc, target, and predictor index
	// (in disp). Fusion requires both instructions on one icache line, so
	// the fused branch's fetch is a guaranteed same-line skip.
	uCmpRRJcc
	uCmpRIJcc
	uTestRRJcc
)

// ALU sub-operation codes (uop.alu).
const (
	aluAdd = iota
	aluSub
	aluAnd
	aluOr
	aluXor
	aluImul
)

// Shift sub-operation codes.
const (
	shfShl = iota
	shfShr
	shfSar
	shfRol
	shfRor
)

// Zero/sign-extension modes.
const (
	extZX8 = iota
	extZX16
	extSX8
	extSX16
	extSXD
)

// Float ALU sub-operations.
const (
	fAdd = iota
	fSub
	fMul
	fDiv
	fMin
	fMax
)

// uop is one pre-decoded micro-op. 32 bytes, flat, no pointers: ~3x denser
// than x86.Inst and scanned strictly sequentially by the dispatch loop.
// There is no full instruction address: every cache level uses 64-byte
// lines, so the icache walk only ever consumes addr>>6, which is exactly
// the precomputed line field. The one consumer of a finer-grained address —
// the branch predictor's table index — gets the real address via the imm
// field, which is unused by conditional jumps.
type uop struct {
	kind  uopKind
	alu   uint8 // sub-operation / ext mode / source width
	w     uint8
	cc    x86.CC
	dst   uint8 // destination register (XMM pre-offset to 0-15)
	src   uint8 // source register (XMM pre-offset to 0-15)
	base  uint8 // EA base register, 0xff = none
	idx   uint8 // EA index register, 0xff = none
	scale uint8
	uns   bool   // unsigned conversion variant
	line  uint32 // precomputed icache line (addr >> 6)
	disp  int32
	tgt   int32  // branch target index / host-function id
	imm   uint64 // immediate / branch address for uJcc
}

// UopSize is the size of one micro-op: predecode attaches one per
// instruction to a program, which the build cache counts as resident.
const UopSize = unsafe.Sizeof(uop{})

// decodedProgram is the predecoded view cached on x86.Program.
type decodedProgram struct {
	ops []uop
}

var predecodeMu sync.Mutex

// predecode returns the micro-op stream for p, decoding and caching it on
// first use. Safe for concurrent machines sharing one program.
func predecode(p *x86.Program) []uop {
	predecodeMu.Lock()
	if d, ok := p.Predecoded.(*decodedProgram); ok && len(d.ops) == len(p.Code) {
		predecodeMu.Unlock()
		return d.ops
	}
	predecodeMu.Unlock()

	ops := make([]uop, len(p.Code))
	for i := range p.Code {
		decodeInst(&p.Code[i], &ops[i])
	}
	fusePairs(ops)

	predecodeMu.Lock()
	defer predecodeMu.Unlock()
	if d, ok := p.Predecoded.(*decodedProgram); ok && len(d.ops) == len(p.Code) {
		return d.ops
	}
	p.Predecoded = &decodedProgram{ops: ops}
	return ops
}

func isGP(o *x86.Operand) bool  { return o.Kind == x86.KReg && !o.Reg.IsXMM() }
func isXMM(o *x86.Operand) bool { return o.Kind == x86.KReg && o.Reg.IsXMM() }

// setEA copies the addressing-mode template. x86.NoReg is 0xff, which is
// exactly the "absent" encoding the executor tests for.
func (u *uop) setEA(mem *x86.Mem) {
	u.base = uint8(mem.Base)
	u.idx = uint8(mem.Index)
	u.scale = mem.Scale
	u.disp = mem.Disp
}

func decodeInst(in *x86.Inst, u *uop) {
	u.kind = uSlow
	u.w = in.W
	u.cc = in.CC
	u.line = in.Addr >> 6
	u.tgt = int32(in.Target)
	u.uns = in.Uns

	dst, src := &in.Dst, &in.Src
	switch in.Op {
	case x86.ONop:
		u.kind = uNop

	case x86.OMov:
		switch {
		case isGP(dst) && isGP(src):
			u.kind, u.dst, u.src = uMovRR, uint8(dst.Reg), uint8(src.Reg)
		case isGP(dst) && src.Kind == x86.KImm:
			u.kind, u.dst = uMovRI, uint8(dst.Reg)
			u.imm = movImm(uint64(src.Imm), in.W)
		case isGP(dst) && src.Kind == x86.KMem && in.W == 8:
			u.kind, u.dst = uMovLoad64, uint8(dst.Reg)
			u.setEA(&src.Mem)
		case isGP(dst) && src.Kind == x86.KMem && in.W == 4:
			u.kind, u.dst = uMovLoad32, uint8(dst.Reg)
			u.setEA(&src.Mem)
		case dst.Kind == x86.KMem && isGP(src):
			u.kind, u.src = uMovStore, uint8(src.Reg)
			if in.W == 8 {
				u.kind = uMovStore64
			} else if in.W == 4 {
				u.kind = uMovStore32
			}
			u.setEA(&dst.Mem)
		}

	case x86.OMovImm:
		if isGP(dst) {
			u.kind, u.dst = uMovRI, uint8(dst.Reg)
			u.imm = movImm(uint64(src.Imm), in.W)
		}

	case x86.OMovZX8, x86.OMovZX16, x86.OMovSX8, x86.OMovSX16, x86.OMovSXD:
		switch in.Op {
		case x86.OMovZX8:
			u.alu = extZX8
		case x86.OMovZX16:
			u.alu = extZX16
		case x86.OMovSX8:
			u.alu = extSX8
		case x86.OMovSX16:
			u.alu = extSX16
		case x86.OMovSXD:
			u.alu = extSXD
		}
		switch {
		case isGP(dst) && isGP(src):
			u.kind, u.dst, u.src = uExtR, uint8(dst.Reg), uint8(src.Reg)
		case isGP(dst) && src.Kind == x86.KMem:
			u.kind, u.dst = uExtM, uint8(dst.Reg)
			u.setEA(&src.Mem)
		}

	case x86.OAdd, x86.OSub, x86.OAnd, x86.OOr, x86.OXor, x86.OImul:
		switch in.Op {
		case x86.OAdd:
			u.alu = aluAdd
		case x86.OSub:
			u.alu = aluSub
		case x86.OAnd:
			u.alu = aluAnd
		case x86.OOr:
			u.alu = aluOr
		case x86.OXor:
			u.alu = aluXor
		case x86.OImul:
			u.alu = aluImul
		}
		switch {
		case isGP(dst) && isGP(src):
			u.kind, u.dst, u.src = uAluRR, uint8(dst.Reg), uint8(src.Reg)
		case isGP(dst) && src.Kind == x86.KImm:
			u.kind, u.dst, u.imm = uAluRI, uint8(dst.Reg), uint64(src.Imm)
		case isGP(dst) && src.Kind == x86.KMem:
			u.kind, u.dst = uAluRM, uint8(dst.Reg)
			u.setEA(&src.Mem)
		case dst.Kind == x86.KMem && src.Kind == x86.KImm:
			u.kind, u.imm = uAluMI, uint64(src.Imm)
			u.setEA(&dst.Mem)
		}

	case x86.OShl, x86.OSar, x86.OShr, x86.ORol, x86.ORor:
		switch in.Op {
		case x86.OShl:
			u.alu = shfShl
		case x86.OShr:
			u.alu = shfShr
		case x86.OSar:
			u.alu = shfSar
		case x86.ORol:
			u.alu = shfRol
		case x86.ORor:
			u.alu = shfRor
		}
		switch {
		case isGP(dst) && isGP(src):
			u.kind, u.dst, u.src = uShiftR, uint8(dst.Reg), uint8(src.Reg)
		case isGP(dst) && src.Kind == x86.KImm:
			u.kind, u.dst = uShiftI, uint8(dst.Reg)
			if in.W == 4 {
				u.imm = uint64(src.Imm) & 31
			} else {
				u.imm = uint64(src.Imm) & 63
			}
		}

	case x86.OCdq:
		u.kind = uCdq

	case x86.OIdiv, x86.ODiv:
		if in.Op == x86.OIdiv {
			u.alu = 1
		}
		if isGP(dst) {
			u.kind, u.dst = uDivR, uint8(dst.Reg)
		}

	case x86.OCmp:
		switch {
		case isGP(dst) && isGP(src):
			u.kind, u.dst, u.src = uCmpRR, uint8(dst.Reg), uint8(src.Reg)
		case isGP(dst) && src.Kind == x86.KImm:
			u.kind, u.dst, u.imm = uCmpRI, uint8(dst.Reg), uint64(src.Imm)
		case isGP(dst) && src.Kind == x86.KMem:
			u.kind, u.dst = uCmpRM, uint8(dst.Reg)
			u.setEA(&src.Mem)
		}

	case x86.OTest:
		if isGP(dst) && isGP(src) {
			u.kind, u.dst, u.src = uTestRR, uint8(dst.Reg), uint8(src.Reg)
		}

	case x86.OSet:
		if isGP(dst) {
			u.kind, u.dst = uSet, uint8(dst.Reg)
		}

	case x86.OCmov:
		if isGP(dst) && isGP(src) {
			u.kind, u.dst, u.src = uCmovRR, uint8(dst.Reg), uint8(src.Reg)
		}

	case x86.OJmp:
		u.kind = uJmp
	case x86.OJcc:
		u.kind = uJcc
		u.imm = uint64(in.Addr) // branch-predictor index
	case x86.OCall:
		u.kind = uCall
	case x86.OCallR:
		if isGP(dst) {
			u.kind, u.dst = uCallR, uint8(dst.Reg)
		}
	case x86.ORet:
		u.kind = uRet
	case x86.OPush:
		if isGP(dst) {
			u.kind, u.src = uPushR, uint8(dst.Reg)
		}
	case x86.OPop:
		if isGP(dst) {
			u.kind, u.dst = uPop, uint8(dst.Reg)
		}
	case x86.OUd2:
		u.kind = uUd2
	case x86.OCallHost:
		u.kind = uCallHost
		u.tgt = int32(in.Host)

	case x86.OMovsd:
		switch {
		case isXMM(dst) && isXMM(src):
			u.kind, u.dst, u.src = uMovsdRR, uint8(dst.Reg-x86.XMM0), uint8(src.Reg-x86.XMM0)
		case isXMM(dst) && src.Kind == x86.KMem && in.W == 8:
			u.kind, u.dst = uFLoad64, uint8(dst.Reg-x86.XMM0)
			u.setEA(&src.Mem)
		case dst.Kind == x86.KMem && isXMM(src) && in.W == 8:
			u.kind, u.src = uFStore64, uint8(src.Reg-x86.XMM0)
			u.setEA(&dst.Mem)
		}

	case x86.OAddsd, x86.OSubsd, x86.OMulsd, x86.ODivsd, x86.OMinsd, x86.OMaxsd:
		switch in.Op {
		case x86.OAddsd:
			u.alu = fAdd
		case x86.OSubsd:
			u.alu = fSub
		case x86.OMulsd:
			u.alu = fMul
		case x86.ODivsd:
			u.alu = fDiv
		case x86.OMinsd:
			u.alu = fMin
		case x86.OMaxsd:
			u.alu = fMax
		}
		switch {
		case isXMM(dst) && isXMM(src):
			u.kind, u.dst, u.src = uFAluRR, uint8(dst.Reg-x86.XMM0), uint8(src.Reg-x86.XMM0)
		case isXMM(dst) && src.Kind == x86.KMem:
			u.kind, u.dst = uFAluRM, uint8(dst.Reg-x86.XMM0)
			u.setEA(&src.Mem)
		}

	case x86.OSqrtsd:
		switch {
		case isXMM(dst) && isXMM(src):
			u.kind, u.dst, u.src = uSqrtR, uint8(dst.Reg-x86.XMM0), uint8(src.Reg-x86.XMM0)
		case isXMM(dst) && src.Kind == x86.KMem:
			u.kind, u.dst = uSqrtM, uint8(dst.Reg-x86.XMM0)
			u.setEA(&src.Mem)
		}

	case x86.OUcomisd:
		switch {
		case isXMM(dst) && isXMM(src):
			u.kind, u.dst, u.src = uUcomiR, uint8(dst.Reg-x86.XMM0), uint8(src.Reg-x86.XMM0)
		case isXMM(dst) && src.Kind == x86.KMem:
			u.kind, u.dst = uUcomiM, uint8(dst.Reg-x86.XMM0)
			u.setEA(&src.Mem)
		}

	case x86.OCvtsi2sd:
		switch {
		case isXMM(dst) && isGP(src):
			u.kind, u.dst, u.src = uCvtSI2SDR, uint8(dst.Reg-x86.XMM0), uint8(src.Reg)
		case isXMM(dst) && src.Kind == x86.KMem:
			u.kind, u.dst = uCvtSI2SDM, uint8(dst.Reg-x86.XMM0)
			u.setEA(&src.Mem)
		}

	case x86.OCvttsd2si:
		srcW := uint8(in.Target)
		if srcW == 0 {
			srcW = 8
		}
		u.alu = srcW
		switch {
		case isGP(dst) && isXMM(src):
			u.kind, u.dst, u.src = uCvtTSD2SIR, uint8(dst.Reg), uint8(src.Reg-x86.XMM0)
		case isGP(dst) && src.Kind == x86.KMem:
			u.kind, u.dst = uCvtTSD2SIM, uint8(dst.Reg)
			u.setEA(&src.Mem)
		}

	case x86.OAndpd, x86.OXorpd:
		if in.Op == x86.OXorpd {
			u.alu = 1
		}
		switch {
		case isXMM(dst) && isXMM(src):
			u.kind, u.dst, u.src = uLogicXX, uint8(dst.Reg-x86.XMM0), uint8(src.Reg-x86.XMM0)
		case isXMM(dst) && src.Kind == x86.KMem:
			u.kind, u.dst = uLogicXM, uint8(dst.Reg-x86.XMM0)
			u.setEA(&src.Mem)
		}
	}
}

// fusePairs rewrites cmp/test+jcc pairs into single fused micro-ops. The
// jcc's own slot keeps its unfused uop (it may be a branch target); only
// sequential execution takes the fused path. Pairs that straddle an icache
// line are left unfused so per-instruction fetch modeling is preserved.
func fusePairs(ops []uop) {
	for i := 0; i+1 < len(ops); i++ {
		u, j := &ops[i], &ops[i+1]
		if j.kind != uJcc || j.line != u.line {
			continue
		}
		switch u.kind {
		case uCmpRR:
			u.kind = uCmpRRJcc
		case uCmpRI:
			u.kind = uCmpRIJcc
		case uTestRR:
			u.kind = uTestRRJcc
		default:
			continue
		}
		u.cc = j.cc
		u.tgt = j.tgt
		u.disp = int32(uint32(j.imm)) // branch-predictor index
	}
}

// movImm reproduces readOperand(KImm) + writeGP masking at decode time.
func movImm(v uint64, w uint8) uint64 {
	if w == 4 {
		return uint64(uint32(v))
	}
	return v
}
