// Package ir defines the three-address intermediate representation produced
// by lowering WebAssembly and consumed by the register allocators and the
// x86-64 emitters. It also provides CFG utilities and liveness analysis.
package ir

import (
	"fmt"
	"math/bits"
	"strings"
)

// VReg is a virtual register. NoV marks an absent operand.
type VReg int32

// NoV is the absent virtual register.
const NoV VReg = -1

// Class is a register class.
type Class uint8

// Register classes.
const (
	GP Class = iota // integer
	FP              // floating point (SSE)
)

// CC is a comparison condition used by Cmp/FCmp and fused branches.
type CC uint8

// Conditions. Unsigned variants are suffixed U; float compares use the
// same codes with FCmp (unordered handled by the emitter).
const (
	CCNone CC = iota
	CCEq
	CCNe
	CCLt
	CCLe
	CCGt
	CCGe
	CCLtU
	CCLeU
	CCGtU
	CCGeU
)

var ccNames = [...]string{"", "eq", "ne", "lt", "le", "gt", "ge", "ltu", "leu", "gtu", "geu"}

func (c CC) String() string { return ccNames[c] }

// Negate returns the inverse condition.
func (c CC) Negate() CC {
	switch c {
	case CCEq:
		return CCNe
	case CCNe:
		return CCEq
	case CCLt:
		return CCGe
	case CCLe:
		return CCGt
	case CCGt:
		return CCLe
	case CCGe:
		return CCLt
	case CCLtU:
		return CCGeU
	case CCLeU:
		return CCGtU
	case CCGtU:
		return CCLeU
	case CCGeU:
		return CCLtU
	}
	return CCNone
}

// Op is an IR operation.
type Op uint8

// IR operations.
const (
	Nop Op = iota
	// Const: Dst = Imm (GP). FConst: Dst = F64 (FP).
	Const
	FConst
	// Mov: Dst = A (same class).
	Mov
	// Integer binary ops: Dst = A op B. W selects 32/64-bit.
	Add
	Sub
	Mul
	DivS
	DivU
	RemS
	RemU
	And
	Or
	Xor
	Shl
	ShrS
	ShrU
	Rotl
	Rotr
	// Integer unary.
	Clz
	Ctz
	Popcnt
	Eqz // Dst = (A == 0)
	// Cmp: Dst(GP) = (A cc B) as 0/1. W selects width.
	Cmp
	// Select: Dst = C(A) != 0 ? A... encoded as Dst = (Cond in A) ? B : C
	// with A the condition vreg, B the true value, C stored in Extra.
	Select
	// Float ops (W = 4 or 8 for f32/f64).
	FAdd
	FSub
	FMul
	FDiv
	FSqrt
	FAbs
	FNeg
	FMin
	FMax
	FCopysign
	FCeil
	FFloor
	FTrunc
	FNearest
	// FCmp: Dst(GP) = (A cc B) on floats.
	FCmp
	// Conversions.
	ExtS      // sign-extend 32->64: Dst64 = sext(A32)
	ExtU      // zero-extend 32->64
	Wrap      // Dst32 = A64 truncated
	I2F       // int (W=src width, Unsigned flag) -> float (FW)
	F2I       // float (FW) -> int (W, Unsigned flag); traps on overflow
	F2F       // float width change; FW = dst width
	BitcastIF // GP -> FP raw bits
	BitcastFI // FP -> GP raw bits
	// Memory. Load: Dst = mem[A + Off]; Store: mem[A + Off] = B.
	// LoadKind gives access width/sign; class from Dst/B.
	Load
	Store
	// Globals are engine-instance slots accessed via the globals area.
	GlobalLd // Dst = global[Idx]
	GlobalSt // global[Idx] = A
	// Memory management.
	MemSize // Dst = pages
	MemGrow // Dst = old pages; A = delta
	// Calls. Args lists argument vregs. Dst = NoV for void.
	Call     // direct: Callee = function index (module space)
	CallInd  // A = table index; SigID for the check
	CallHost // Callee = host function index
	// Terminators.
	Jump    // Targets[0]
	Cond    // if A != 0 goto Targets[0] else Targets[1]; may carry CC fusion
	CondCmp // fused compare+branch: if (A cc B) goto Targets[0] else Targets[1]
	BrTable // A selects Targets[i]; last entry is default
	Ret     // A = value or NoV
	Trap    // unreachable
)

var opNames = map[Op]string{
	Nop: "nop", Const: "const", FConst: "fconst", Mov: "mov",
	Add: "add", Sub: "sub", Mul: "mul", DivS: "divs", DivU: "divu",
	RemS: "rems", RemU: "remu", And: "and", Or: "or", Xor: "xor",
	Shl: "shl", ShrS: "shrs", ShrU: "shru", Rotl: "rotl", Rotr: "rotr",
	Clz: "clz", Ctz: "ctz", Popcnt: "popcnt", Eqz: "eqz",
	Cmp: "cmp", Select: "select",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FSqrt: "fsqrt",
	FAbs: "fabs", FNeg: "fneg", FMin: "fmin", FMax: "fmax", FCopysign: "fcopysign",
	FCeil: "fceil", FFloor: "ffloor", FTrunc: "ftrunc", FNearest: "fnearest",
	FCmp: "fcmp", ExtS: "exts", ExtU: "extu", Wrap: "wrap",
	I2F: "i2f", F2I: "f2i", F2F: "f2f", BitcastIF: "bitcast_if", BitcastFI: "bitcast_fi",
	Load: "load", Store: "store", GlobalLd: "gld", GlobalSt: "gst",
	MemSize: "memsize", MemGrow: "memgrow",
	Call: "call", CallInd: "callind", CallHost: "callhost",
	Jump: "jump", Cond: "cond", CondCmp: "condcmp", BrTable: "brtable",
	Ret: "ret", Trap: "trap",
}

// LoadKind describes the width and extension of a memory access.
type LoadKind uint8

// Load kinds.
const (
	L32 LoadKind = iota // 32-bit int
	L64                 // 64-bit int
	L8S
	L8U
	L16S
	L16U
	L32S // 32->64 sign extending load
	L32U // 32->64 zero extending load
	LF32
	LF64
)

// Bytes returns the access width in bytes.
func (k LoadKind) Bytes() uint32 {
	switch k {
	case L8S, L8U:
		return 1
	case L16S, L16U:
		return 2
	case L32, L32S, L32U, LF32:
		return 4
	}
	return 8
}

// Ins is one IR instruction.
type Ins struct {
	Op   Op
	Dst  VReg
	A, B VReg
	// Extra is the third operand of Select.
	Extra VReg
	Imm   int64
	F64   float64
	W     uint8 // integer width in bytes (4 or 8); for F ops the float width
	CC    CC
	Kind  LoadKind
	Off   int32 // load/store displacement
	// Call fields.
	Callee  int
	SigID   int
	Args    []VReg
	Rets    []VReg // multi-value ready; MVP uses 0 or 1
	Targets []int
	// Unsigned marks unsigned conversion variants.
	Unsigned bool
}

func (in *Ins) String() string {
	s := opNames[in.Op]
	if in.CC != CCNone {
		s += "." + in.CC.String()
	}
	if in.W != 0 {
		s += fmt.Sprintf(".w%d", in.W)
	}
	var parts []string
	if in.Dst != NoV {
		parts = append(parts, fmt.Sprintf("v%d =", in.Dst))
	}
	parts = append(parts, s)
	if in.A != NoV {
		parts = append(parts, fmt.Sprintf("v%d", in.A))
	}
	if in.B != NoV {
		parts = append(parts, fmt.Sprintf("v%d", in.B))
	}
	if in.Extra != NoV {
		parts = append(parts, fmt.Sprintf("v%d", in.Extra))
	}
	if in.Op == Const {
		parts = append(parts, fmt.Sprintf("%d", in.Imm))
	}
	if in.Op == FConst {
		parts = append(parts, fmt.Sprintf("%g", in.F64))
	}
	if in.Op == Load || in.Op == Store {
		parts = append(parts, fmt.Sprintf("off=%d", in.Off))
	}
	if len(in.Args) > 0 {
		parts = append(parts, fmt.Sprintf("args=%v", in.Args))
	}
	if len(in.Targets) > 0 {
		parts = append(parts, fmt.Sprintf("-> %v", in.Targets))
	}
	return strings.Join(parts, " ")
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case Jump, Cond, CondCmp, BrTable, Ret, Trap:
		return true
	}
	return false
}

// IsCall reports whether the op is any kind of call. MemGrow counts: it is
// emitted as a host call and clobbers the argument/result registers.
func (o Op) IsCall() bool {
	return o == Call || o == CallInd || o == CallHost || o == MemGrow
}

// Block is a basic block.
type Block struct {
	ID  int
	Ins []Ins
}

// Term returns the block's terminator.
func (b *Block) Term() *Ins {
	if len(b.Ins) == 0 {
		return nil
	}
	t := &b.Ins[len(b.Ins)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the successor block ids.
func (b *Block) Succs() []int {
	t := b.Term()
	if t == nil {
		return nil
	}
	switch t.Op {
	case Jump, Cond, CondCmp, BrTable:
		return t.Targets
	}
	return nil
}

// Func is an IR function.
type Func struct {
	Name    string
	Blocks  []*Block
	NumV    int     // number of virtual registers
	Class   []Class // class per vreg
	Params  []VReg  // parameter vregs in order
	RetType Class   // class of return value (ignored if no returns)
	HasRet  bool
	// LoopDepth[blockID] is the nesting depth, used for spill costs.
	LoopDepth []int
	// SigID is the function's signature id (for indirect call tables).
	SigID int
	// Index is the function's index in module space.
	Index int
}

// NewV allocates a fresh vreg of class c.
func (f *Func) NewV(c Class) VReg {
	f.Class = append(f.Class, c)
	f.NumV++
	return VReg(f.NumV - 1)
}

// NewBlock appends a new empty block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// String renders the function for debugging.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (%d vregs)\n", f.Name, f.NumV)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:\n", b.ID)
		for i := range b.Ins {
			fmt.Fprintf(&sb, "  %s\n", b.Ins[i].String())
		}
	}
	return sb.String()
}

// VisitUses calls fn for each vreg read by the instruction.
func (in *Ins) VisitUses(fn func(VReg)) {
	if in.A != NoV {
		fn(in.A)
	}
	if in.B != NoV {
		fn(in.B)
	}
	if in.Extra != NoV {
		fn(in.Extra)
	}
	for _, a := range in.Args {
		if a != NoV {
			fn(a)
		}
	}
}

// Defs returns the vreg defined by the instruction, or NoV.
func (in *Ins) Defs() VReg { return in.Dst }

// Liveness holds per-block live-in/live-out sets as bitsets.
type Liveness struct {
	In  []Bitset
	Out []Bitset
}

// Bitset is a dense bitset over vreg numbers.
type Bitset []uint64

// NewBitset returns a bitset sized for n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (s Bitset) Set(i VReg) { s[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (s Bitset) Clear(i VReg) { s[i/64] &^= 1 << (uint(i) % 64) }

// Has reports bit i.
func (s Bitset) Has(i VReg) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

// OrWith sets s |= t, reporting whether s changed.
func (s Bitset) OrWith(t Bitset) bool {
	changed := false
	for i := range s {
		n := s[i] | t[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// ForEach calls fn for each set bit.
func (s Bitset) ForEach(fn func(VReg)) {
	for w, word := range s {
		for word != 0 {
			b := word & -word
			i := w*64 + trailingZeros(word)
			fn(VReg(i))
			word ^= b
		}
	}
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// ComputeLoopDepth fills f.LoopDepth using back-edge detection: a back edge
// is an edge to a block with a smaller or equal id (lowering emits reducible
// CFGs with loop headers before their bodies).
func ComputeLoopDepth(f *Func) {
	n := len(f.Blocks)
	if cap(f.LoopDepth) < n {
		f.LoopDepth = make([]int, n)
	} else {
		f.LoopDepth = f.LoopDepth[:n]
		clear(f.LoopDepth)
	}
	// For each back edge (b -> h, h.ID <= b.ID), blocks in [h.ID, b.ID]
	// form a loop body superset; increment their depth.
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if s <= b.ID {
				for i := s; i <= b.ID; i++ {
					f.LoopDepth[i]++
				}
			}
		}
	}
}
