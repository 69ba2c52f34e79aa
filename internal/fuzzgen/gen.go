// Package fuzzgen generates random-but-valid WebAssembly modules and checks
// them differentially across the reproduction's three execution engines: the
// reference interpreter (internal/wasm), the legacy instruction-at-a-time
// x86 simulator, and the pre-decoded micro-op engine (internal/cpu), each
// under the paper's modeled engine configurations.
//
// The generator is wasm-smith-style structured generation, not byte
// mutation: every module it emits passes wasm.Validate by construction, so
// fuzzing time is spent exercising codegen and execution semantics rather
// than the decoder's error paths (the decoder gets its own native go-fuzz
// harness in internal/wasm). Generation is fully deterministic from the
// seed — same seed, same bytes — which is what lets a divergence be
// reproduced from its seed alone and a minimized module be committed as a
// forever-replayed corpus entry.
//
// Generated programs observe their own behavior: _start folds every call
// result, every global, memory.size, and a window of linear memory into a
// 32-bit FNV-style checksum and returns it as the process exit code, so the
// differential oracle needs nothing beyond the Result every engine already
// reports. f64 values are NaN-canonicalized before folding. Programs are
// deterministic and terminating by construction: loops are counter-bounded
// with a single conditional back edge, the call graph is a DAG (_start →
// mids → leaves), and the funcref table holds only leaf functions of one
// shared signature, so an in-bounds call_indirect can never trap or recurse.
// Division and remainder operands are masked to non-zero positive divisors;
// float→int truncation appears only at deliberate trap sites.
package fuzzgen

import (
	"math"

	"repro/internal/wasm"
)

// Options tune one generated module.
type Options struct {
	// Traps allows one deliberate trap site (out-of-bounds access,
	// division trap, invalid conversion, table miss, unreachable) to be
	// planted in _start. Without it, generated programs run to completion
	// unless a real engine bug makes them trap.
	Traps bool
}

// Module layout constants shared with the differential oracle's reference
// runner.
const (
	memMinPages = 2 // linear memory at startup: 128 KiB
	memMaxPages = 4 // explicit max, so memory.grow agrees across engines

	// inBoundsMask keeps computed addresses inside the always-present
	// first two pages (offsets stay < 256, access sizes ≤ 8).
	inBoundsMask = 0xFFFF

	// oobBase is one byte past the largest possible memory (memMaxPages),
	// so a deliberate out-of-bounds access traps even after memory.grow.
	oobBase = memMaxPages * wasm.PageSize

	// canonNaN is the canonical NaN bit pattern folded in place of any NaN
	// an f64 expression produces.
	canonNaN = 0x7FF8000000000000

	// fnvPrime/fnvBasis drive the checksum fold.
	fnvPrime = 16777619
	fnvBasis = 0x811c9dc5
)

// indirectSig is the one signature every table entry shares: call_indirect
// through an in-bounds slot can therefore never signature-mismatch, which
// matters because only the checked engine configurations trap on mismatch.
var indirectSig = wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}}

var valTypes = []wasm.ValType{wasm.I32, wasm.I64, wasm.F64}

type funcInfo struct {
	idx uint32
	ft  wasm.FuncType
}

type gen struct {
	r   *rng
	b   *wasm.ModuleBuilder
	opt Options

	globals   []wasm.ValType // type of each module global, by index
	tableSize int32
	leaves    []funcInfo // call nothing; table candidates
	mids      []funcInfo // call leaves, directly and through the table
}

// Generate builds one valid module from seed. Identical seed and options
// produce a byte-identical module (pinned by TestGenerateDeterministic).
func Generate(seed uint64, opt Options) *wasm.Module {
	g := &gen{r: newRNG(seed), b: wasm.NewModuleBuilder(), opt: opt}

	g.b.Memory(memMinPages, memMaxPages)
	data := make([]byte, g.r.rangen(64, 256))
	for i := range data {
		data[i] = byte(g.r.next())
	}
	g.b.Data(0, data)
	if g.r.chance(50) {
		more := make([]byte, g.r.rangen(16, 64))
		for i := range more {
			more[i] = byte(g.r.next())
		}
		g.b.Data(int32(g.r.rangen(0x100, 0x1000)), more)
	}

	// Global 0 is always a mutable i32: the native configuration promotes
	// it to the shadow-stack-pointer register, and that promotion assumes
	// an integer global there.
	g.b.GlobalI32(int32(g.r.rangen(0, 1<<16)))
	g.globals = append(g.globals, wasm.I32)
	for i, n := 0, g.r.rangen(2, 5); i < n; i++ {
		t := valTypes[g.r.intn(len(valTypes))]
		switch t {
		case wasm.I32:
			g.b.Global(wasm.I32, true, wasm.Instr{Op: wasm.OpI32Const, I64: int64(g.r.i32())})
		case wasm.I64:
			g.b.Global(wasm.I64, true, wasm.Instr{Op: wasm.OpI64Const, I64: g.r.i64()})
		case wasm.F64:
			g.b.Global(wasm.F64, true, wasm.Instr{Op: wasm.OpF64Const, F64: g.constF64()})
		}
		g.globals = append(g.globals, t)
	}

	// Leaves first (the table and the mids reference them). The first two
	// are forced to the shared indirect signature so the table is never
	// empty of candidates.
	nLeaves := g.r.rangen(3, 6)
	for i := 0; i < nLeaves; i++ {
		ft := g.randSig(3)
		if i < 2 {
			ft = indirectSig
		}
		g.leaves = append(g.leaves, g.genFunc("", ft, false, 60))
	}

	// Funcref table: power-of-two size so in-bounds indices are one mask.
	g.tableSize = int32(8 << g.r.intn(2))
	g.b.Table(uint32(g.tableSize))
	var cands []uint32
	for _, f := range g.leaves {
		if f.ft.Equal(indirectSig) {
			cands = append(cands, f.idx)
		}
	}
	fill := int(g.tableSize)
	if g.opt.Traps && g.r.chance(25) {
		// Leave a tail of null slots: hitting one is a consistent trap in
		// every engine (null entry / poisoned entry / failed sig check).
		fill -= g.r.rangen(1, 4)
	}
	slots := make([]uint32, fill)
	for i := range slots {
		slots[i] = cands[i%len(cands)]
	}
	g.b.Elem(0, slots)

	for i, n := 0, g.r.rangen(1, 3); i < n; i++ {
		g.mids = append(g.mids, g.genFunc("", g.randSig(2), true, 140))
	}

	g.genStart()
	return g.b.Module()
}

// randSig returns a random signature with up to maxParams parameters and
// exactly one result.
func (g *gen) randSig(maxParams int) wasm.FuncType {
	ft := wasm.FuncType{Results: []wasm.ValType{valTypes[g.r.intn(len(valTypes))]}}
	for i, n := 0, g.r.intn(maxParams+1); i < n; i++ {
		ft.Params = append(ft.Params, valTypes[g.r.intn(len(valTypes))])
	}
	return ft
}

func (g *gen) globalsOf(t wasm.ValType) []uint32 {
	var out []uint32
	for i, gt := range g.globals {
		if gt == t {
			out = append(out, uint32(i))
		}
	}
	return out
}

func (g *gen) constF64() float64 {
	pool := []float64{0, 1, -1, 0.5, -2.25, 3.141592653589793, 1e10, -1e-10, 65536.0}
	switch g.r.intn(10) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*g.r.intn(2))
	case 2, 3, 4:
		// A random finite double built from a random mantissa and a tame
		// exponent, so arithmetic stays finite often enough to be
		// interesting.
		return float64(g.r.i64()%(1<<40)) / float64(1+g.r.intn(1000))
	default:
		return pool[g.r.intn(len(pool))]
	}
}

func (g *gen) constI32() int32 {
	pool := []int32{0, 1, -1, 2, 0xFF, 0x7FFF, math.MaxInt32, math.MinInt32, 0x10000}
	if g.r.chance(40) {
		return pool[g.r.intn(len(pool))]
	}
	if g.r.chance(50) {
		return int32(g.r.intn(1 << 16))
	}
	return g.r.i32()
}

func (g *gen) constI64() int64 {
	pool := []int64{0, 1, -1, 0xFFFF, math.MaxInt64, math.MinInt64, 1 << 32, -(1 << 40)}
	if g.r.chance(40) {
		return pool[g.r.intn(len(pool))]
	}
	if g.r.chance(50) {
		return int64(g.r.intn(1 << 20))
	}
	return g.r.i64()
}

// genFunc emits one leaf or mid function: a few statements, then one
// expression of the result type.
func (g *gen) genFunc(name string, ft wasm.FuncType, canCall bool, budget int) funcInfo {
	fb := g.b.Func(name, ft)
	c := g.newFctx(fb, ft, canCall, budget)
	c.stmts(g.r.rangen(1, 4))
	c.ex(ft.Results[0], g.r.rangen(2, 4))
	return funcInfo{idx: fb.Index(), ft: ft}
}

// fctx is per-function generation state.
type fctx struct {
	g       *gen
	fb      *wasm.FuncBuilder
	types   []wasm.ValType // params then locals, by index
	canCall bool
	budget  int
	labels  []bool // open statement-level labels, innermost last; true = loop
	loops   int    // current loop nesting

	// reserved marks locals random statements must not write — loop
	// counters, whose bound is the termination guarantee.
	reserved map[uint32]bool
}

func (g *gen) newFctx(fb *wasm.FuncBuilder, ft wasm.FuncType, canCall bool, budget int) *fctx {
	c := &fctx{g: g, fb: fb, canCall: canCall, budget: budget, reserved: map[uint32]bool{}}
	c.types = append(c.types, ft.Params...)
	for i, n := 0, g.r.rangen(1, 3); i < n; i++ {
		c.addLocal(valTypes[g.r.intn(len(valTypes))])
	}
	return c
}

func (c *fctx) addLocal(t wasm.ValType) uint32 {
	idx := c.fb.AddLocal(t)
	c.types = append(c.types, t)
	return idx
}

// spend charges n instructions against the budget; when it runs out,
// expression generation degenerates to terminals and statements to no-ops.
func (c *fctx) spend(n int) bool {
	c.budget -= n
	return c.budget >= 0
}

func (c *fctx) localsOf(t wasm.ValType) []uint32 {
	var out []uint32
	for i, lt := range c.types {
		if lt == t {
			out = append(out, uint32(i))
		}
	}
	return out
}

// terminal pushes one value of type t with no recursion.
func (c *fctx) terminal(t wasm.ValType) {
	r := c.g.r
	if locs := c.localsOf(t); len(locs) > 0 && r.chance(45) {
		c.fb.LocalGet(locs[r.intn(len(locs))])
		return
	}
	if globs := c.g.globalsOf(t); len(globs) > 0 && r.chance(40) {
		c.fb.GlobalGet(globs[r.intn(len(globs))])
		return
	}
	switch t {
	case wasm.I32:
		c.fb.I32Const(c.g.constI32())
	case wasm.I64:
		c.fb.I64Const(c.g.constI64())
	default:
		c.fb.F64Const(c.g.constF64())
	}
}

// ex pushes one expression of type t, recursing at most depth levels.
func (c *fctx) ex(t wasm.ValType, depth int) {
	if depth <= 0 || !c.spend(1) {
		c.terminal(t)
		return
	}
	switch t {
	case wasm.I32:
		c.exI32(depth)
	case wasm.I64:
		c.exI64(depth)
	default:
		c.exF64(depth)
	}
}

// addr pushes an in-bounds address: any i32 expression masked into the
// always-present first two pages.
func (c *fctx) addr() {
	c.ex(wasm.I32, 2)
	c.fb.I32Const(inBoundsMask)
	c.fb.Op(wasm.OpI32And)
}

func (c *fctx) memOffset() uint32 { return uint32(c.g.r.intn(256)) }

var (
	i32Bins   = []wasm.Opcode{wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor, wasm.OpI32Shl, wasm.OpI32ShrS, wasm.OpI32ShrU, wasm.OpI32Rotl, wasm.OpI32Rotr}
	i32Divs   = []wasm.Opcode{wasm.OpI32DivS, wasm.OpI32DivU, wasm.OpI32RemS, wasm.OpI32RemU}
	i32Cmps   = []wasm.Opcode{wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS, wasm.OpI32GtU, wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU}
	i64Bins   = []wasm.Opcode{wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64Mul, wasm.OpI64And, wasm.OpI64Or, wasm.OpI64Xor, wasm.OpI64Shl, wasm.OpI64ShrS, wasm.OpI64ShrU, wasm.OpI64Rotl, wasm.OpI64Rotr}
	i64Divs   = []wasm.Opcode{wasm.OpI64DivS, wasm.OpI64DivU, wasm.OpI64RemS, wasm.OpI64RemU}
	i64Cmps   = []wasm.Opcode{wasm.OpI64Eq, wasm.OpI64Ne, wasm.OpI64LtS, wasm.OpI64LtU, wasm.OpI64GtS, wasm.OpI64GtU, wasm.OpI64LeS, wasm.OpI64LeU, wasm.OpI64GeS, wasm.OpI64GeU}
	f64Bins   = []wasm.Opcode{wasm.OpF64Add, wasm.OpF64Sub, wasm.OpF64Mul, wasm.OpF64Div, wasm.OpF64Min, wasm.OpF64Max, wasm.OpF64Copysign}
	f64Cmps   = []wasm.Opcode{wasm.OpF64Eq, wasm.OpF64Ne, wasm.OpF64Lt, wasm.OpF64Gt, wasm.OpF64Le, wasm.OpF64Ge}
	f64Uns    = []wasm.Opcode{wasm.OpF64Abs, wasm.OpF64Neg, wasm.OpF64Ceil, wasm.OpF64Floor, wasm.OpF64Trunc, wasm.OpF64Nearest, wasm.OpF64Sqrt}
	i32Loads  = []wasm.Opcode{wasm.OpI32Load, wasm.OpI32Load8S, wasm.OpI32Load8U, wasm.OpI32Load16S, wasm.OpI32Load16U}
	i64Loads  = []wasm.Opcode{wasm.OpI64Load, wasm.OpI64Load8S, wasm.OpI64Load8U, wasm.OpI64Load16S, wasm.OpI64Load16U, wasm.OpI64Load32S, wasm.OpI64Load32U}
	i32Stores = []wasm.Opcode{wasm.OpI32Store, wasm.OpI32Store8, wasm.OpI32Store16}
	i64Stores = []wasm.Opcode{wasm.OpI64Store, wasm.OpI64Store8, wasm.OpI64Store16, wasm.OpI64Store32}
)

func pick(r *rng, ops []wasm.Opcode) wasm.Opcode { return ops[r.intn(len(ops))] }

// guardedDiv pushes dividend ÷ divisor where the divisor is forced into
// [1, 255]: wasm division traps on zero divisors and on INT_MIN/-1, and
// those traps belong to deliberate trap sites, not arithmetic noise.
func (c *fctx) guardedDiv(t wasm.ValType, depth int) {
	c.ex(t, depth-1)
	c.ex(t, depth-1)
	if t == wasm.I32 {
		c.fb.I32Const(0xFF)
		c.fb.Op(wasm.OpI32And)
		c.fb.I32Const(1)
		c.fb.Op(wasm.OpI32Or)
		c.fb.Op(pick(c.g.r, i32Divs))
	} else {
		c.fb.I64Const(0xFF)
		c.fb.Op(wasm.OpI64And)
		c.fb.I64Const(1)
		c.fb.Op(wasm.OpI64Or)
		c.fb.Op(pick(c.g.r, i64Divs))
	}
}

func (c *fctx) ifExpr(t wasm.ValType, depth int) {
	c.ex(wasm.I32, depth-1)
	c.fb.If(wasm.BlockOf(t))
	c.ex(t, depth-1)
	c.fb.Else()
	c.ex(t, depth-1)
	c.fb.End()
}

func (c *fctx) selectExpr(t wasm.ValType, depth int) {
	c.ex(t, depth-1)
	c.ex(t, depth-1)
	c.ex(wasm.I32, depth-1)
	c.fb.Op(wasm.OpSelect)
}

// callLeaf pushes a call to a leaf returning t; false if no such leaf.
func (c *fctx) callLeaf(t wasm.ValType, depth int) bool {
	if !c.canCall {
		return false
	}
	var cands []funcInfo
	for _, f := range c.g.leaves {
		if f.ft.Results[0] == t {
			cands = append(cands, f)
		}
	}
	if len(cands) == 0 {
		return false
	}
	f := cands[c.g.r.intn(len(cands))]
	for _, p := range f.ft.Params {
		c.ex(p, min(depth-1, 2))
	}
	c.fb.Call(f.idx)
	return true
}

// callIndirect pushes an in-bounds call through the table (shared
// signature, so it returns i32 and can never mismatch).
func (c *fctx) callIndirect(depth int) {
	c.ex(wasm.I32, min(depth-1, 2)) // the one argument
	c.ex(wasm.I32, min(depth-1, 2))
	c.fb.I32Const(c.g.tableSize - 1)
	c.fb.Op(wasm.OpI32And)
	c.fb.CallIndirect(indirectSig)
}

func (c *fctx) exI32(depth int) {
	r := c.g.r
	switch r.intn(20) {
	case 0, 1, 2, 3, 4:
		c.ex(wasm.I32, depth-1)
		c.ex(wasm.I32, depth-1)
		c.fb.Op(pick(r, i32Bins))
	case 5:
		c.guardedDiv(wasm.I32, depth)
	case 6:
		c.ex(wasm.I32, depth-1)
		c.fb.Op([]wasm.Opcode{wasm.OpI32Clz, wasm.OpI32Ctz, wasm.OpI32Popcnt, wasm.OpI32Eqz}[r.intn(4)])
	case 7:
		c.ex(wasm.I32, depth-1)
		c.ex(wasm.I32, depth-1)
		c.fb.Op(pick(r, i32Cmps))
	case 8:
		c.ex(wasm.I64, depth-1)
		c.ex(wasm.I64, depth-1)
		c.fb.Op(pick(r, i64Cmps))
	case 9:
		c.ex(wasm.F64, depth-1)
		c.ex(wasm.F64, depth-1)
		c.fb.Op(pick(r, f64Cmps))
	case 10:
		c.ex(wasm.I64, depth-1)
		c.fb.Op(wasm.OpI32WrapI64)
	case 11:
		c.ex(wasm.I64, depth-1)
		c.fb.Op(wasm.OpI64Eqz)
	case 12, 13:
		c.addr()
		c.fb.Load(pick(r, i32Loads), c.memOffset())
	case 14:
		c.selectExpr(wasm.I32, depth)
	case 15:
		c.ifExpr(wasm.I32, depth)
	case 16:
		if !c.callLeaf(wasm.I32, depth) {
			c.terminal(wasm.I32)
		}
	case 17:
		if c.canCall {
			c.callIndirect(depth)
		} else {
			c.terminal(wasm.I32)
		}
	case 18:
		c.fb.Op(wasm.OpMemorySize)
	default:
		c.terminal(wasm.I32)
	}
}

func (c *fctx) exI64(depth int) {
	r := c.g.r
	switch r.intn(16) {
	case 0, 1, 2, 3, 4:
		c.ex(wasm.I64, depth-1)
		c.ex(wasm.I64, depth-1)
		c.fb.Op(pick(r, i64Bins))
	case 5:
		c.guardedDiv(wasm.I64, depth)
	case 6:
		c.ex(wasm.I64, depth-1)
		c.fb.Op([]wasm.Opcode{wasm.OpI64Clz, wasm.OpI64Ctz, wasm.OpI64Popcnt}[r.intn(3)])
	case 7, 8:
		c.ex(wasm.I32, depth-1)
		c.fb.Op([]wasm.Opcode{wasm.OpI64ExtendI32S, wasm.OpI64ExtendI32U}[r.intn(2)])
	case 9:
		c.ex(wasm.F64, depth-1)
		c.fb.Op(wasm.OpI64ReinterpretF64)
	case 10, 11:
		c.addr()
		c.fb.Load(pick(r, i64Loads), c.memOffset())
	case 12:
		c.selectExpr(wasm.I64, depth)
	case 13:
		c.ifExpr(wasm.I64, depth)
	case 14:
		if !c.callLeaf(wasm.I64, depth) {
			c.terminal(wasm.I64)
		}
	default:
		c.terminal(wasm.I64)
	}
}

func (c *fctx) exF64(depth int) {
	r := c.g.r
	switch r.intn(16) {
	case 0, 1, 2, 3:
		c.ex(wasm.F64, depth-1)
		c.ex(wasm.F64, depth-1)
		c.fb.Op(pick(r, f64Bins))
	case 4, 5:
		c.ex(wasm.F64, depth-1)
		c.fb.Op(pick(r, f64Uns))
	case 6, 7:
		c.ex(wasm.I32, depth-1)
		c.fb.Op([]wasm.Opcode{wasm.OpF64ConvertI32S, wasm.OpF64ConvertI32U}[r.intn(2)])
	case 8:
		c.ex(wasm.I64, depth-1)
		c.fb.Op([]wasm.Opcode{wasm.OpF64ConvertI64S, wasm.OpF64ConvertI64U}[r.intn(2)])
	case 9:
		c.ex(wasm.I64, depth-1)
		c.fb.Op(wasm.OpF64ReinterpretI64)
	case 10, 11:
		c.addr()
		c.fb.Load(wasm.OpF64Load, c.memOffset())
	case 12:
		c.selectExpr(wasm.F64, depth)
	case 13:
		c.ifExpr(wasm.F64, depth)
	case 14:
		if !c.callLeaf(wasm.F64, depth) {
			c.terminal(wasm.F64)
		}
	default:
		c.terminal(wasm.F64)
	}
}

// brTargets returns the relative depths of open labels a random branch may
// target: void blocks and ifs, never loops (an extra back edge could bypass
// the counter decrement and unbound the loop).
func (c *fctx) brTargets() []uint32 {
	var out []uint32
	for d := 0; d < len(c.labels); d++ {
		if !c.labels[len(c.labels)-1-d] {
			out = append(out, uint32(d))
		}
	}
	return out
}

func (c *fctx) stmts(n int) {
	for i := 0; i < n; i++ {
		c.stmt()
	}
}

func (c *fctx) stmt() {
	r := c.g.r
	if !c.spend(3) {
		return
	}
	switch r.intn(13) {
	case 0, 1:
		var writable []uint32
		for i := range c.types {
			if !c.reserved[uint32(i)] {
				writable = append(writable, uint32(i))
			}
		}
		if len(writable) == 0 {
			c.fb.Op(wasm.OpNop)
			return
		}
		i := writable[r.intn(len(writable))]
		c.ex(c.types[i], 3)
		c.fb.LocalSet(i)
	case 2:
		gi := r.intn(len(c.g.globals))
		c.ex(c.g.globals[gi], 3)
		c.fb.GlobalSet(uint32(gi))
	case 3, 4:
		c.addr()
		switch valTypes[r.intn(len(valTypes))] {
		case wasm.I32:
			c.ex(wasm.I32, 2)
			c.fb.Store(pick(r, i32Stores), c.memOffset())
		case wasm.I64:
			c.ex(wasm.I64, 2)
			c.fb.Store(pick(r, i64Stores), c.memOffset())
		default:
			c.ex(wasm.F64, 2)
			c.fb.Store(wasm.OpF64Store, c.memOffset())
		}
	case 5:
		c.ex(valTypes[r.intn(len(valTypes))], 3)
		c.fb.Op(wasm.OpDrop)
	case 6:
		c.ex(wasm.I32, 2)
		c.fb.If(wasm.BlockVoid)
		c.labels = append(c.labels, false)
		c.stmts(r.rangen(1, 2))
		if r.chance(50) {
			c.fb.Else()
			c.stmts(r.rangen(1, 2))
		}
		c.labels = c.labels[:len(c.labels)-1]
		c.fb.End()
	case 7:
		c.fb.Block(wasm.BlockVoid)
		c.labels = append(c.labels, false)
		c.stmts(r.rangen(1, 3))
		c.labels = c.labels[:len(c.labels)-1]
		c.fb.End()
	case 8:
		if c.loops >= 2 {
			c.fb.Op(wasm.OpNop)
			return
		}
		c.boundedLoop()
	case 9:
		ts := c.brTargets()
		if len(ts) == 0 {
			c.fb.Op(wasm.OpNop)
			return
		}
		c.ex(wasm.I32, 2)
		c.fb.BrIf(ts[r.intn(len(ts))])
	case 10:
		ts := c.brTargets()
		if len(ts) == 0 {
			c.fb.Op(wasm.OpNop)
			return
		}
		tbl := make([]uint32, r.rangen(2, 4)+1) // final entry is the default
		for i := range tbl {
			tbl[i] = ts[r.intn(len(ts))]
		}
		c.ex(wasm.I32, 2)
		c.fb.BrTable(tbl)
	case 11:
		if c.canCall && c.callLeaf(valTypes[r.intn(len(valTypes))], 3) {
			c.fb.Op(wasm.OpDrop)
			return
		}
		c.fb.Op(wasm.OpNop)
	default:
		c.fb.Op(wasm.OpNop)
	}
}

// boundedLoop emits the canonical terminating loop: a fresh counter local
// set to 1..8, a body of statements, then the single decrement-and-test
// back edge.
func (c *fctx) boundedLoop() {
	cnt := c.addLocal(wasm.I32)
	c.reserved[cnt] = true
	c.fb.I32Const(int32(c.g.r.rangen(1, 8)))
	c.fb.LocalSet(cnt)
	c.fb.Loop(wasm.BlockVoid)
	c.labels = append(c.labels, true)
	c.loops++
	c.stmts(c.g.r.rangen(1, 3))
	c.loops--
	c.fb.LocalGet(cnt)
	c.fb.I32Const(1)
	c.fb.Op(wasm.OpI32Sub)
	c.fb.LocalTee(cnt)
	c.fb.BrIf(0)
	c.labels = c.labels[:len(c.labels)-1]
	c.fb.End()
}

// trapSite plants one deliberate trap. Every kind traps in the reference
// interpreter and in both machine dispatchers under every engine
// configuration (the trap *message* differs per engine; TrapKindOf
// normalizes them).
func (c *fctx) trapSite() {
	r := c.g.r
	fb := c.fb
	switch r.intn(9) {
	case 0: // i32 division by zero
		fb.I32Const(c.g.constI32())
		fb.I32Const(0)
		fb.Op(pick(r, i32Divs))
		fb.Op(wasm.OpDrop)
	case 1: // i64 division by zero
		fb.I64Const(c.g.constI64())
		fb.I64Const(0)
		fb.Op(pick(r, i64Divs))
		fb.Op(wasm.OpDrop)
	case 2: // INT_MIN / -1 overflow
		fb.I32Const(math.MinInt32)
		fb.I32Const(-1)
		fb.Op(wasm.OpI32DivS)
		fb.Op(wasm.OpDrop)
	case 3: // INT64_MIN / -1 overflow
		fb.I64Const(math.MinInt64)
		fb.I64Const(-1)
		fb.Op(wasm.OpI64DivS)
		fb.Op(wasm.OpDrop)
	case 4: // out-of-bounds load, beyond any growable memory
		fb.I32Const(int32(oobBase + r.intn(1<<16)))
		fb.Load(pick(r, i32Loads), c.memOffset())
		fb.Op(wasm.OpDrop)
	case 5: // out-of-bounds store
		fb.I32Const(int32(oobBase + r.intn(1<<16)))
		c.ex(wasm.I32, 1)
		fb.Store(pick(r, i32Stores), c.memOffset())
	case 6: // unreachable
		fb.Op(wasm.OpUnreachable)
	case 7: // call_indirect out of table bounds
		fb.I32Const(c.g.constI32())
		fb.I32Const(c.g.tableSize + int32(r.intn(4096)))
		fb.CallIndirect(indirectSig)
		fb.Op(wasm.OpDrop)
	default: // invalid float→int conversion (NaN or overflow)
		fb.F64Const([]float64{math.NaN(), 1e300, -1e300, 3e9}[r.intn(4)])
		fb.Op([]wasm.Opcode{wasm.OpI32TruncF64S, wasm.OpI32TruncF64U}[r.intn(2)])
		fb.Op(wasm.OpDrop)
	}
}

// genStart emits the exported _start(argc, argv) → checksum entry point:
// seed the accumulator from the arguments, run random statements (and, with
// Options.Traps, possibly one deliberate trap), then fold every mid's
// result, a few leaf calls, an indirect call, every global, memory.size,
// and the first 64 bytes of linear memory. The returned i32 is the process
// exit code — the one observable the oracle compares across engines, so
// everything the program computed funnels into it.
func (g *gen) genStart() {
	ft := wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}}
	fb := g.b.Func("_start", ft)
	c := g.newFctx(fb, ft, true, 400)
	acc := c.addLocal(wasm.I32)
	ltmp := c.addLocal(wasm.I64)
	ftmp := c.addLocal(wasm.F64)
	r := g.r

	// fold: acc = (acc * FNV_prime) ^ value.
	fold := func(push func()) {
		fb.LocalGet(acc)
		fb.I32Const(fnvPrime)
		fb.Op(wasm.OpI32Mul)
		push()
		fb.Op(wasm.OpI32Xor)
		fb.LocalSet(acc)
	}
	foldI64 := func(push func()) {
		push()
		fb.LocalSet(ltmp)
		fold(func() { fb.LocalGet(ltmp); fb.Op(wasm.OpI32WrapI64) })
		fold(func() {
			fb.LocalGet(ltmp)
			fb.I64Const(32)
			fb.Op(wasm.OpI64ShrU)
			fb.Op(wasm.OpI32WrapI64)
		})
	}
	foldF64 := func(push func()) {
		push()
		fb.LocalSet(ftmp)
		foldI64(func() {
			// select(bits(v), canonical-NaN, v == v): NaN payloads are not
			// part of the oracle's contract, so canonicalize before folding.
			fb.LocalGet(ftmp)
			fb.Op(wasm.OpI64ReinterpretF64)
			fb.I64Const(canonNaN)
			fb.LocalGet(ftmp)
			fb.LocalGet(ftmp)
			fb.Op(wasm.OpF64Eq)
			fb.Op(wasm.OpSelect)
		})
	}
	foldCall := func(f funcInfo) {
		push := func() {
			for _, p := range f.ft.Params {
				c.ex(p, 2)
			}
			fb.Call(f.idx)
		}
		switch f.ft.Results[0] {
		case wasm.I32:
			fold(push)
		case wasm.I64:
			foldI64(push)
		default:
			foldF64(push)
		}
	}

	var basis uint32 = fnvBasis
	fb.I32Const(int32(basis))
	fb.LocalSet(acc)
	fold(func() { fb.LocalGet(0) }) // argc
	fold(func() {                   // first argv pointer
		fb.LocalGet(1)
		fb.I32Const(inBoundsMask)
		fb.Op(wasm.OpI32And)
		fb.Load(wasm.OpI32Load, 0)
	})

	nst := r.rangen(3, 8)
	trapAt := -1
	if g.opt.Traps && r.chance(35) {
		trapAt = r.intn(nst + 1)
	}
	for i := 0; i < nst; i++ {
		if i == trapAt {
			c.trapSite()
		}
		c.stmt()
	}
	if trapAt == nst {
		c.trapSite()
	}

	for _, f := range g.mids {
		foldCall(f)
	}
	for i, n := 0, r.rangen(1, 3); i < n; i++ {
		foldCall(g.leaves[r.intn(len(g.leaves))])
	}
	fold(func() { c.callIndirect(3) })

	for gi, t := range g.globals {
		idx := uint32(gi)
		switch t {
		case wasm.I32:
			fold(func() { fb.GlobalGet(idx) })
		case wasm.I64:
			foldI64(func() { fb.GlobalGet(idx) })
		default:
			foldF64(func() { fb.GlobalGet(idx) })
		}
	}
	fold(func() { fb.Op(wasm.OpMemorySize) })

	// Fold the first 16 words of linear memory (data segment bytes plus
	// whatever the program stored there).
	p := c.addLocal(wasm.I32)
	cnt := c.addLocal(wasm.I32)
	fb.I32Const(0)
	fb.LocalSet(p)
	fb.I32Const(16)
	fb.LocalSet(cnt)
	fb.Loop(wasm.BlockVoid)
	fold(func() { fb.LocalGet(p); fb.Load(wasm.OpI32Load, 0) })
	fb.LocalGet(p)
	fb.I32Const(4)
	fb.Op(wasm.OpI32Add)
	fb.LocalSet(p)
	fb.LocalGet(cnt)
	fb.I32Const(1)
	fb.Op(wasm.OpI32Sub)
	fb.LocalTee(cnt)
	fb.BrIf(0)
	fb.End()

	fb.LocalGet(acc)
	g.b.Export("_start", wasm.ExternFunc, fb.Index())
}
