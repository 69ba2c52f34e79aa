package wasm

import "fmt"

// ModuleBuilder constructs modules programmatically. It is used by the
// mini-C compiler and by tests; the matmul case study is written with it.
type ModuleBuilder struct {
	m       *Module
	started bool
}

// NewModuleBuilder returns an empty module builder.
func NewModuleBuilder() *ModuleBuilder {
	return &ModuleBuilder{m: &Module{Names: map[uint32]string{}}}
}

// ImportFunc declares an imported function and returns its index.
// All imports must be declared before the first defined function.
func (b *ModuleBuilder) ImportFunc(module, name string, ft FuncType) uint32 {
	if b.started {
		panic("wasm: imports must precede defined functions")
	}
	ti := b.m.AddTypeDedup(ft)
	b.m.Imports = append(b.m.Imports, Import{Module: module, Name: name, Kind: ExternFunc, TypeIdx: ti})
	idx := uint32(b.m.NumImportedFuncs() - 1)
	b.m.Names[idx] = module + "." + name
	return idx
}

// Memory declares the module memory with min/max pages.
func (b *ModuleBuilder) Memory(min, max uint32) {
	b.m.Mems = []Limits{{Min: min, Max: max, HasMax: max > 0}}
}

// Table declares the funcref table with the given size.
func (b *ModuleBuilder) Table(size uint32) {
	b.m.Tables = []Table{{Limits: Limits{Min: size, Max: size, HasMax: true}}}
}

// Elem appends an element segment at a constant offset.
func (b *ModuleBuilder) Elem(offset int32, funcs []uint32) {
	b.m.Elems = append(b.m.Elems, Elem{
		Offset: Instr{Op: OpI32Const, I64: int64(offset)},
		Funcs:  funcs,
	})
}

// Data appends a data segment at a constant offset.
func (b *ModuleBuilder) Data(offset int32, bytes []byte) {
	b.m.Data = append(b.m.Data, Data{
		Offset: Instr{Op: OpI32Const, I64: int64(offset)},
		Bytes:  bytes,
	})
}

// Global declares a module global with a constant initializer and returns its
// index in the global index space.
func (b *ModuleBuilder) Global(t ValType, mutable bool, init Instr) uint32 {
	b.m.Globals = append(b.m.Globals, Global{
		Type: GlobalType{Type: t, Mutable: mutable},
		Init: init,
	})
	return uint32(b.m.NumImportedGlobals() + len(b.m.Globals) - 1)
}

// GlobalI32 declares a mutable i32 global initialized to v.
func (b *ModuleBuilder) GlobalI32(v int32) uint32 {
	return b.Global(I32, true, Instr{Op: OpI32Const, I64: int64(v)})
}

// Export adds an export entry.
func (b *ModuleBuilder) Export(name string, kind ExternKind, idx uint32) {
	b.m.Exports = append(b.m.Exports, Export{Name: name, Kind: kind, Index: idx})
}

// Func begins a new function; the returned FuncBuilder appends instructions.
// Finish the function with End() (the final end is added automatically by
// Seal if missing).
func (b *ModuleBuilder) Func(name string, ft FuncType, locals ...ValType) *FuncBuilder {
	b.started = true
	ti := b.m.AddTypeDedup(ft)
	idx := uint32(b.m.NumImportedFuncs() + len(b.m.Funcs))
	b.m.Funcs = append(b.m.Funcs, Func{TypeIdx: ti, Locals: locals})
	if name != "" {
		b.m.Names[idx] = name
	}
	return &FuncBuilder{mod: b, fidx: idx, slot: len(b.m.Funcs) - 1, nparams: len(ft.Params)}
}

// Module seals and returns the built module. Function bodies missing a
// terminating end get one appended.
func (b *ModuleBuilder) Module() *Module {
	for i := range b.m.Funcs {
		f := &b.m.Funcs[i]
		// The body needs one end per open block plus one for the function
		// frame itself. Count nesting and top up.
		depth := 1
		for _, in := range f.Body {
			switch in.Op {
			case OpBlock, OpLoop, OpIf:
				depth++
			case OpEnd:
				depth--
			}
		}
		for ; depth > 0; depth-- {
			f.Body = append(f.Body, Instr{Op: OpEnd})
		}
	}
	return b.m
}

// FuncBuilder appends instructions to one function body.
type FuncBuilder struct {
	mod     *ModuleBuilder
	slot    int // index into mod.m.Funcs — the slice reallocates as functions are added, so no pointer
	fidx    uint32
	nparams int
	depth   int // open blocks
}

// Index returns the function's index in the import-prefixed function space.
func (fb *FuncBuilder) Index() uint32 { return fb.fidx }

// fn resolves the function record. Looked up on every access rather than
// held as a pointer: interleaving Func calls reallocates mod.m.Funcs, which
// would orphan any builder created earlier.
func (fb *FuncBuilder) fn() *Func { return &fb.mod.m.Funcs[fb.slot] }

// AddLocal appends a new local of type t and returns its index.
func (fb *FuncBuilder) AddLocal(t ValType) uint32 {
	f := fb.fn()
	f.Locals = append(f.Locals, t)
	return uint32(fb.nparams + len(f.Locals) - 1)
}

// Emit appends a raw instruction.
func (fb *FuncBuilder) Emit(in Instr) *FuncBuilder {
	f := fb.fn()
	f.Body = append(f.Body, in)
	return fb
}

// Op appends a no-immediate instruction.
func (fb *FuncBuilder) Op(op Opcode) *FuncBuilder { return fb.Emit(Instr{Op: op}) }

// I32Const pushes a 32-bit constant.
func (fb *FuncBuilder) I32Const(v int32) *FuncBuilder {
	return fb.Emit(Instr{Op: OpI32Const, I64: int64(v)})
}

// I64Const pushes a 64-bit constant.
func (fb *FuncBuilder) I64Const(v int64) *FuncBuilder {
	return fb.Emit(Instr{Op: OpI64Const, I64: v})
}

// F64Const pushes a float constant.
func (fb *FuncBuilder) F64Const(v float64) *FuncBuilder {
	return fb.Emit(Instr{Op: OpF64Const, F64: v})
}

// LocalGet, LocalSet, LocalTee, GlobalGet, GlobalSet access variables.
func (fb *FuncBuilder) LocalGet(i uint32) *FuncBuilder {
	return fb.Emit(Instr{Op: OpLocalGet, I64: int64(i)})
}

// LocalSet pops into local i.
func (fb *FuncBuilder) LocalSet(i uint32) *FuncBuilder {
	return fb.Emit(Instr{Op: OpLocalSet, I64: int64(i)})
}

// LocalTee stores the stack top into local i without popping.
func (fb *FuncBuilder) LocalTee(i uint32) *FuncBuilder {
	return fb.Emit(Instr{Op: OpLocalTee, I64: int64(i)})
}

// GlobalGet pushes global i.
func (fb *FuncBuilder) GlobalGet(i uint32) *FuncBuilder {
	return fb.Emit(Instr{Op: OpGlobalGet, I64: int64(i)})
}

// GlobalSet pops into global i.
func (fb *FuncBuilder) GlobalSet(i uint32) *FuncBuilder {
	return fb.Emit(Instr{Op: OpGlobalSet, I64: int64(i)})
}

// Block opens a block.
func (fb *FuncBuilder) Block(bt BlockType) *FuncBuilder {
	fb.depth++
	return fb.Emit(Instr{Op: OpBlock, Block: bt})
}

// Loop opens a loop.
func (fb *FuncBuilder) Loop(bt BlockType) *FuncBuilder {
	fb.depth++
	return fb.Emit(Instr{Op: OpLoop, Block: bt})
}

// If opens an if.
func (fb *FuncBuilder) If(bt BlockType) *FuncBuilder {
	fb.depth++
	return fb.Emit(Instr{Op: OpIf, Block: bt})
}

// Else switches to the else arm of the innermost if.
func (fb *FuncBuilder) Else() *FuncBuilder { return fb.Op(OpElse) }

// End closes the innermost block/loop/if.
func (fb *FuncBuilder) End() *FuncBuilder {
	fb.depth--
	return fb.Op(OpEnd)
}

// Br branches to the block depth levels out.
func (fb *FuncBuilder) Br(depth uint32) *FuncBuilder {
	return fb.Emit(Instr{Op: OpBr, I64: int64(depth)})
}

// BrIf conditionally branches.
func (fb *FuncBuilder) BrIf(depth uint32) *FuncBuilder {
	return fb.Emit(Instr{Op: OpBrIf, I64: int64(depth)})
}

// BrTable branches to targets[i] for the popped index i, or to the final
// (default) target when i is out of range. The builder records targets in
// the function's BrTables side table.
func (fb *FuncBuilder) BrTable(targets []uint32) *FuncBuilder {
	f := fb.fn()
	f.BrTables = append(f.BrTables, targets)
	return fb.Emit(Instr{Op: OpBrTable, I64: int64(len(f.BrTables) - 1)})
}

// Call calls function index f.
func (fb *FuncBuilder) Call(f uint32) *FuncBuilder {
	return fb.Emit(Instr{Op: OpCall, I64: int64(f)})
}

// CallIndirect calls through the table with the given type signature.
func (fb *FuncBuilder) CallIndirect(ft FuncType) *FuncBuilder {
	ti := fb.mod.m.AddTypeDedup(ft)
	return fb.Emit(Instr{Op: OpCallIndirect, I64: int64(ti)})
}

// Load emits a load with the natural alignment for the access size.
func (fb *FuncBuilder) Load(op Opcode, offset uint32) *FuncBuilder {
	return fb.Emit(Instr{Op: op, Offset: offset, Align: naturalAlign(op)})
}

// Store emits a store with the natural alignment for the access size.
func (fb *FuncBuilder) Store(op Opcode, offset uint32) *FuncBuilder {
	return fb.Emit(Instr{Op: op, Offset: offset, Align: naturalAlign(op)})
}

// Return emits an explicit return.
func (fb *FuncBuilder) Return() *FuncBuilder { return fb.Op(OpReturn) }

func naturalAlign(op Opcode) uint32 {
	switch op.MemAccessBytes() {
	case 8:
		return 3
	case 4:
		return 2
	case 2:
		return 1
	}
	return 0
}

// Depth returns the number of currently open blocks (useful for computing
// branch targets).
func (fb *FuncBuilder) Depth() int { return fb.depth }

// String summarizes the builder state for debugging.
func (fb *FuncBuilder) String() string {
	return fmt.Sprintf("func %d: %d instrs, %d open blocks", fb.fidx, len(fb.fn().Body), fb.depth)
}
