// Package x86 models the x86-64 subset targeted by the reproduction's code
// generators: general-purpose and SSE registers, the flag register, memory
// operands with the full addressing-mode range, and approximate instruction
// encodings (byte sizes) so that code footprint and L1 instruction cache
// behaviour can be simulated faithfully.
package x86

import "fmt"

// Reg is a machine register. 0-15 are the GPRs, 16-31 are XMM0-XMM15.
type Reg uint8

// General-purpose registers.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

// SSE registers.
const (
	XMM0 Reg = 16 + iota
	XMM1
	XMM2
	XMM3
	XMM4
	XMM5
	XMM6
	XMM7
	XMM8
	XMM9
	XMM10
	XMM11
	XMM12
	XMM13
	XMM14
	XMM15
)

// NoReg marks an absent register field.
const NoReg Reg = 0xff

// IsXMM reports whether r is an SSE register.
func (r Reg) IsXMM() bool { return r >= XMM0 && r <= XMM15 }

var gpNames = [...]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

var gpNames32 = [...]string{
	"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
	"r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d",
}

func (r Reg) String() string {
	switch {
	case r == NoReg:
		return "<none>"
	case r.IsXMM():
		return fmt.Sprintf("xmm%d", r-XMM0)
	case int(r) < len(gpNames):
		return gpNames[r]
	}
	return fmt.Sprintf("reg%d", r)
}

// Name32 returns the 32-bit name of a GPR (eax, r8d, ...).
func (r Reg) Name32() string {
	if int(r) < len(gpNames32) {
		return gpNames32[r]
	}
	return r.String()
}

// CC is a condition code for Jcc/SETcc/CMOVcc.
type CC uint8

// Condition codes.
const (
	CCNone CC = iota
	CCE       // equal / zero
	CCNE      // not equal
	CCL       // less (signed)
	CCLE
	CCG
	CCGE
	CCB // below (unsigned)
	CCBE
	CCA
	CCAE
	CCS  // sign
	CCNS // no sign
	CCP  // parity (unordered float compare)
	CCNP
)

var ccNames = [...]string{"", "e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "s", "ns", "p", "np"}

func (c CC) String() string {
	if int(c) < len(ccNames) {
		return ccNames[c]
	}
	return fmt.Sprintf("cc%d", c)
}

// Negate returns the inverse condition.
func (c CC) Negate() CC {
	switch c {
	case CCE:
		return CCNE
	case CCNE:
		return CCE
	case CCL:
		return CCGE
	case CCLE:
		return CCG
	case CCG:
		return CCLE
	case CCGE:
		return CCL
	case CCB:
		return CCAE
	case CCBE:
		return CCA
	case CCA:
		return CCBE
	case CCAE:
		return CCB
	case CCS:
		return CCNS
	case CCNS:
		return CCS
	case CCP:
		return CCNP
	case CCNP:
		return CCP
	}
	return CCNone
}

// Op is an instruction mnemonic.
type Op uint8

// Instruction set. The width of integer operations comes from Inst.W.
const (
	ONop     Op = iota
	OMov        // mov dst, src
	OMovImm     // mov dst, imm
	OMovZX8     // movzx dst, src8
	OMovZX16    // movzx dst, src16
	OMovSX8     // movsx
	OMovSX16
	OMovSXD // movsxd dst, src32 (sign-extend 32->64)
	OLea    // lea dst, [mem]
	OAdd
	OSub
	OImul
	OAnd
	OOr
	OXor
	OShl // shift counts in CL or imm
	OSar
	OShr
	ORol
	ORor
	ONeg
	ONot
	OBsr // bit scan reverse (for clz)
	OBsf // bit scan forward (ctz)
	OPopcnt
	OCdq  // sign-extend rax into rdx (cdq/cqo)
	OIdiv // signed divide rdx:rax by operand
	ODiv  // unsigned divide
	OCmp
	OTest
	OSet   // setcc dst8
	OCmov  // cmovcc dst, src
	OJmp   // unconditional jump
	OJcc   // conditional jump
	OCall  // direct call
	OCallR // indirect call through register/memory
	ORet
	OPush
	OPop
	OUd2      // trap
	OCallHost // pseudo: call into the host runtime (syscall shim)

	// SSE scalar double/single ops. W selects 4 (ss) or 8 (sd).
	OMovsd // movsd/movss xmm<->xmm/mem
	OAddsd // addsd/addss
	OSubsd
	OMulsd
	ODivsd
	OSqrtsd
	OMinsd
	OMaxsd
	OUcomisd  // sets flags from float compare
	OCvtsi2sd // int -> float (W = int width; F selects float width)
	OCvttsd2si
	OCvtsd2ss
	OCvtss2sd
	OMovq  // xmm <-> gp raw bits
	OAndpd // bitwise float ops (abs/neg via masks)
	OXorpd
	ORound    // roundsd with mode in Imm: 0=nearest 1=floor 2=ceil 3=trunc
	OJmpTable // indirect jump through jump table Program.Tables[Target]
)

var opNames = map[Op]string{
	ONop: "nop", OMov: "mov", OMovImm: "mov", OMovZX8: "movzx", OMovZX16: "movzx",
	OMovSX8: "movsx", OMovSX16: "movsx", OMovSXD: "movsxd", OLea: "lea",
	OAdd: "add", OSub: "sub", OImul: "imul", OAnd: "and", OOr: "or", OXor: "xor",
	OShl: "shl", OSar: "sar", OShr: "shr", ORol: "rol", ORor: "ror",
	ONeg: "neg", ONot: "not", OBsr: "bsr", OBsf: "bsf", OPopcnt: "popcnt",
	OCdq: "cdq", OIdiv: "idiv", ODiv: "div", OCmp: "cmp", OTest: "test",
	OSet: "set", OCmov: "cmov", OJmp: "jmp", OJcc: "j", OCall: "call",
	OCallR: "call", ORet: "ret", OPush: "push", OPop: "pop", OUd2: "ud2",
	OCallHost: "callhost",
	OMovsd:    "movsd", OAddsd: "addsd", OSubsd: "subsd", OMulsd: "mulsd",
	ODivsd: "divsd", OSqrtsd: "sqrtsd", OMinsd: "minsd", OMaxsd: "maxsd",
	OUcomisd: "ucomisd", OCvtsi2sd: "cvtsi2sd", OCvttsd2si: "cvttsd2si",
	OCvtsd2ss: "cvtsd2ss", OCvtss2sd: "cvtss2sd", OMovq: "movq",
	OAndpd: "andpd", OXorpd: "xorpd", ORound: "roundsd", OJmpTable: "jmp",
}

// Mem is a memory operand [Base + Index*Scale + Disp]. Base or Index may be
// NoReg. Scale is 1, 2, 4, or 8.
type Mem struct {
	Base  Reg
	Index Reg
	Scale uint8
	Disp  int32
}

func (m Mem) String() string {
	s := "["
	first := true
	if m.Base != NoReg {
		s += m.Base.String()
		first = false
	}
	if m.Index != NoReg {
		if !first {
			s += "+"
		}
		s += m.Index.String()
		if m.Scale > 1 {
			s += fmt.Sprintf("*%d", m.Scale)
		}
		first = false
	}
	if m.Disp != 0 || first {
		if m.Disp >= 0 && !first {
			s += "+"
		}
		s += fmt.Sprintf("%#x", m.Disp)
	}
	return s + "]"
}

// OperandKind distinguishes the shapes of Inst operands.
type OperandKind uint8

// Operand kinds.
const (
	KNone OperandKind = iota
	KReg
	KImm
	KMem
)

// Operand is a register, immediate, or memory operand.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  int64
	Mem  Mem
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Kind: KReg, Reg: r} }

// Imm makes an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: KImm, Imm: v} }

// M makes a memory operand.
func M(m Mem) Operand { return Operand{Kind: KMem, Mem: m} }

// MB makes a base+disp memory operand.
func MB(base Reg, disp int32) Operand {
	return Operand{Kind: KMem, Mem: Mem{Base: base, Index: NoReg, Disp: disp}}
}

func (o Operand) String() string {
	switch o.Kind {
	case KReg:
		return o.Reg.String()
	case KImm:
		return fmt.Sprintf("%#x", o.Imm)
	case KMem:
		return o.Mem.String()
	}
	return "<none>"
}

// Inst is one machine instruction. Dst is the first (destination) operand in
// Intel syntax; Src the second. Jump/call targets are symbolic label ids
// resolved by Program layout.
//
// Inst holds no pointers and its fields are ordered to pack into 72 bytes:
// a module's []Inst is most of its resident heap, and a pointer-free slice
// is allocated noscan, so the GC never walks it. Listing notes and jump
// tables, which few instructions carry, live beside the code in
// Program.Notes and Program.Tables.
type Inst struct {
	Op  Op
	W   uint8 // operation width in bytes: 1, 2, 4, or 8
	CC  CC
	Uns bool // unsigned conversion variants (cvt with unsigned fixup)
	// Size and Addr are filled in by layout.
	Size uint8
	Addr uint32
	// Host is the host-function index for OCallHost. Negative values are
	// engine builtins (see cpu package).
	Host int32
	Dst  Operand
	Src  Operand

	// Target is a label id for OJmp/OJcc/OCall, and the index into
	// Program.Tables for OJmpTable.
	Target int
}

func (in Inst) String() string {
	name := opNames[in.Op]
	switch in.Op {
	case OJcc:
		name = "j" + in.CC.String()
	case OSet:
		name = "set" + in.CC.String()
	case OCmov:
		name = "cmov" + in.CC.String()
	case OMovsd:
		if in.W == 4 {
			name = "movss"
		}
	case OAddsd, OSubsd, OMulsd, ODivsd, OSqrtsd, OMinsd, OMaxsd, OUcomisd:
		if in.W == 4 {
			name = name[:len(name)-1] + "s"
		}
	}
	s := name
	switch in.Op {
	case OJmp, OJcc, OCall:
		s += fmt.Sprintf(" L%d", in.Target)
	case OCallHost:
		s += fmt.Sprintf(" host%d", in.Host)
	default:
		if in.Dst.Kind != KNone {
			s += " " + in.operandStr(in.Dst)
		}
		if in.Src.Kind != KNone {
			s += ", " + in.operandStr(in.Src)
		}
	}
	return s
}

func (in Inst) operandStr(o Operand) string {
	if o.Kind == KReg && !o.Reg.IsXMM() && in.W == 4 {
		return o.Reg.Name32()
	}
	return o.String()
}

// EncodedSize approximates the x86-64 encoding length of the instruction in
// bytes. The estimate follows the usual encoding structure: opcode bytes +
// REX + ModRM + SIB + displacement + immediate.
func (in *Inst) EncodedSize() uint8 {
	switch in.Op {
	case ONop:
		return 1
	case ORet:
		return 1
	case OCdq:
		return 2
	case OUd2:
		return 2
	case OPush, OPop:
		return 2
	case OJmp:
		return 5 // jmp rel32 (conservative)
	case OJcc:
		return 6 // jcc rel32
	case OCall:
		return 5
	case OCallHost:
		return 7 // mov imm + call-through shim, folded
	case OJmpTable:
		return 7 // jmp [base + idx*8]
	case ORound:
		return 6 // 66 0F 3A 0B /r ib
	}

	var n uint8 = 2 // opcode + modrm
	if in.W == 8 {
		n++ // REX.W
	}
	// Extended registers need REX too; approximate: count if any reg >= R8.
	if needsREX(in.Dst) || needsREX(in.Src) {
		if in.W != 8 {
			n++
		}
	}
	// Two-byte opcodes (0F xx): movzx/movsx, setcc, cmov, bsr/bsf, popcnt, SSE.
	switch in.Op {
	case OMovZX8, OMovZX16, OMovSX8, OMovSX16, OSet, OCmov, OBsr, OBsf, OPopcnt,
		OMovsd, OAddsd, OSubsd, OMulsd, ODivsd, OSqrtsd, OMinsd, OMaxsd,
		OUcomisd, OCvtsi2sd, OCvttsd2si, OCvtsd2ss, OCvtss2sd, OMovq, OAndpd, OXorpd:
		n++
	}
	// SSE prefix byte (F2/F3/66).
	switch in.Op {
	case OMovsd, OAddsd, OSubsd, OMulsd, ODivsd, OSqrtsd, OMinsd, OMaxsd,
		OCvtsi2sd, OCvttsd2si, OCvtsd2ss, OCvtss2sd, OMovq, OUcomisd, OAndpd, OXorpd, OPopcnt:
		n++
	}
	n += memExtra(in.Dst)
	n += memExtra(in.Src)
	if in.Src.Kind == KImm || in.Op == OMovImm {
		v := in.Src.Imm
		if in.Op == OMovImm {
			v = in.Src.Imm
		}
		switch {
		case v >= -128 && v < 128:
			n++
		case in.W == 8 && (v > 0x7fffffff || v < -0x80000000):
			n += 8
		default:
			n += 4
		}
	}
	return n
}

func needsREX(o Operand) bool {
	switch o.Kind {
	case KReg:
		return (o.Reg >= R8 && o.Reg <= R15) || (o.Reg >= XMM8 && o.Reg <= XMM15)
	case KMem:
		return (o.Mem.Base >= R8 && o.Mem.Base <= R15) ||
			(o.Mem.Index >= R8 && o.Mem.Index <= R15)
	}
	return false
}

func memExtra(o Operand) uint8 {
	if o.Kind != KMem {
		return 0
	}
	var n uint8
	if o.Mem.Index != NoReg || o.Mem.Base == RSP || o.Mem.Base == R12 {
		n++ // SIB byte
	}
	switch {
	case o.Mem.Disp == 0 && o.Mem.Base != RBP && o.Mem.Base != R13:
	case o.Mem.Disp >= -128 && o.Mem.Disp < 128:
		n++
	default:
		n += 4
	}
	return n
}

// ReadsMem reports whether the instruction reads a memory operand.
func (in *Inst) ReadsMem() bool {
	if in.Op == OLea {
		return false
	}
	if in.Op == OPop || in.Op == ORet {
		return true // stack read
	}
	if in.Op == OJmpTable {
		return true // jump-table entry load
	}
	if in.Src.Kind == KMem {
		return true
	}
	// Read-modify-write destination memory (add [m], r etc.).
	if in.Dst.Kind == KMem {
		switch in.Op {
		case OAdd, OSub, OAnd, OOr, OXor, OImul, ONeg, ONot, OShl, OSar, OShr, OCmp, OTest:
			return true
		}
	}
	if (in.Op == OCallR || in.Op == OIdiv || in.Op == ODiv || in.Op == OUcomisd) && in.Dst.Kind == KMem {
		return true
	}
	return false
}

// WritesMem reports whether the instruction writes a memory operand.
func (in *Inst) WritesMem() bool {
	if in.Op == OPush || in.Op == OCall || in.Op == OCallR {
		return true // stack write
	}
	if in.Dst.Kind != KMem {
		return false
	}
	switch in.Op {
	case OCmp, OTest, OUcomisd, OIdiv, ODiv:
		return false
	}
	return true
}

// IsBranch reports whether the instruction redirects control flow.
func (in *Inst) IsBranch() bool {
	switch in.Op {
	case OJmp, OJcc, OCall, OCallR, ORet, OJmpTable:
		return true
	}
	return false
}
