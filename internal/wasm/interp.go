package wasm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Trap is a WebAssembly runtime trap.
type Trap struct{ Msg string }

func (t *Trap) Error() string { return "wasm trap: " + t.Msg }

func trap(format string, args ...any) error {
	return &Trap{Msg: fmt.Sprintf(format, args...)}
}

// HostFunc is a native function provided to a module through imports.
// Arguments and results are passed as raw 64-bit patterns (i32 zero-extended,
// floats as IEEE bits).
type HostFunc struct {
	Type FuncType
	Fn   func(inst *Instance, args []uint64) ([]uint64, error)
}

// Imports resolves a module's imports: Funcs maps "module.name" keys, and
// Globals maps the same keys to initial values of immutable globals.
type Imports struct {
	Funcs   map[string]HostFunc
	Globals map[string]uint64
	// Memory, if non-nil, satisfies a memory import.
	Memory *Memory
}

// Memory is a linear memory instance.
type Memory struct {
	Bytes []byte
	Max   uint32 // in pages; 0 means MaxPages
}

// NewMemory allocates a linear memory with min pages.
func NewMemory(min, max uint32) *Memory {
	if max == 0 {
		max = MaxPages
	}
	return &Memory{Bytes: make([]byte, int(min)*PageSize), Max: max}
}

// Pages returns the current size in 64 KiB pages.
func (m *Memory) Pages() uint32 { return uint32(len(m.Bytes) / PageSize) }

// Grow adds delta pages, returning the previous page count or -1 on failure.
func (m *Memory) Grow(delta uint32) int32 {
	old := m.Pages()
	if uint64(old)+uint64(delta) > uint64(m.Max) {
		return -1
	}
	m.Bytes = append(m.Bytes, make([]byte, int(delta)*PageSize)...)
	return int32(old)
}

// funcKind distinguishes module functions from host functions in the unified
// function index space.
type instFunc struct {
	host  *HostFunc
	def   *Func // nil for host funcs
	typ   FuncType
	index uint32
}

// Instance is an instantiated module ready for execution.
type Instance struct {
	Module  *Module
	Mem     *Memory
	Globals []uint64
	Table   []int32 // function indices; -1 = null
	funcs   []instFunc

	// Depth limits recursion. Steps counts executed instructions (fuel);
	// execution traps if it exceeds MaxSteps when MaxSteps > 0.
	MaxDepth int
	MaxSteps uint64
	Steps    uint64

	// sidetables per module-defined function, lazily built.
	side map[*Func]*sidetable
}

// Instantiate links and initializes a validated module.
func Instantiate(m *Module, imp *Imports) (*Instance, error) {
	inst := &Instance{Module: m, MaxDepth: 2048, side: make(map[*Func]*sidetable)}

	// Build function index space: imports first.
	for _, im := range m.Imports {
		switch im.Kind {
		case ExternFunc:
			key := im.Module + "." + im.Name
			var hf HostFunc
			if imp != nil {
				if f, ok := imp.Funcs[key]; ok {
					hf = f
				}
			}
			if hf.Fn == nil {
				return nil, fmt.Errorf("wasm: unresolved function import %q", key)
			}
			want := m.Types[im.TypeIdx]
			if !hf.Type.Equal(want) {
				return nil, fmt.Errorf("wasm: import %q signature %s does not match %s", key, hf.Type, want)
			}
			h := hf
			inst.funcs = append(inst.funcs, instFunc{host: &h, typ: want, index: uint32(len(inst.funcs))})
		case ExternMemory:
			if imp == nil || imp.Memory == nil {
				return nil, fmt.Errorf("wasm: unresolved memory import %s.%s", im.Module, im.Name)
			}
			inst.Mem = imp.Memory
		case ExternGlobal:
			key := im.Module + "." + im.Name
			var v uint64
			if imp != nil {
				v = imp.Globals[key]
			}
			inst.Globals = append(inst.Globals, v)
		case ExternTable:
			inst.Table = make([]int32, im.Table.Limits.Min)
			for i := range inst.Table {
				inst.Table[i] = -1
			}
		}
	}
	for i := range m.Funcs {
		f := &m.Funcs[i]
		inst.funcs = append(inst.funcs, instFunc{
			def: f, typ: m.Types[f.TypeIdx], index: uint32(len(inst.funcs)),
		})
	}

	// Memory.
	if inst.Mem == nil && len(m.Mems) > 0 {
		lim := m.Mems[0]
		max := lim.Max
		if !lim.HasMax {
			max = MaxPages
		}
		inst.Mem = NewMemory(lim.Min, max)
	}

	// Globals (module-defined, after imported).
	for _, g := range m.Globals {
		v, err := inst.evalConst(g.Init)
		if err != nil {
			return nil, err
		}
		inst.Globals = append(inst.Globals, v)
	}

	// Table.
	if inst.Table == nil && len(m.Tables) > 0 {
		inst.Table = make([]int32, m.Tables[0].Limits.Min)
		for i := range inst.Table {
			inst.Table[i] = -1
		}
	}
	for _, e := range m.Elems {
		off, err := inst.evalConst(e.Offset)
		if err != nil {
			return nil, err
		}
		o := int(int32(off))
		if o < 0 || o+len(e.Funcs) > len(inst.Table) {
			return nil, errors.New("wasm: element segment out of bounds")
		}
		for i, fidx := range e.Funcs {
			inst.Table[o+i] = int32(fidx)
		}
	}

	// Data.
	for _, d := range m.Data {
		off, err := inst.evalConst(d.Offset)
		if err != nil {
			return nil, err
		}
		o := int(int32(off))
		if inst.Mem == nil || o < 0 || o+len(d.Bytes) > len(inst.Mem.Bytes) {
			return nil, errors.New("wasm: data segment out of bounds")
		}
		copy(inst.Mem.Bytes[o:], d.Bytes)
	}

	// Start function.
	if m.Start != nil {
		if _, err := inst.call(*m.Start, nil, 0); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

func (inst *Instance) evalConst(in Instr) (uint64, error) {
	switch in.Op {
	case OpI32Const:
		return uint64(uint32(int32(in.I64))), nil
	case OpI64Const:
		return uint64(in.I64), nil
	case OpF32Const:
		return uint64(math.Float32bits(float32(in.F64))), nil
	case OpF64Const:
		return math.Float64bits(in.F64), nil
	case OpGlobalGet:
		if int(in.I64) >= len(inst.Globals) {
			return 0, errors.New("wasm: bad global in const expr")
		}
		return inst.Globals[in.I64], nil
	}
	return 0, fmt.Errorf("wasm: non-constant expr %s", OpName(in.Op))
}

// Invoke calls the exported function name with the given arguments.
func (inst *Instance) Invoke(name string, args ...uint64) ([]uint64, error) {
	idx, ok := inst.Module.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("wasm: no exported function %q", name)
	}
	return inst.call(idx, args, 0)
}

// sidetable maps structured-control pcs to jump targets.
type sidetable struct {
	// matchEnd[pc] = pc of the matching end for block/loop/if at pc.
	matchEnd map[int]int
	// matchElse[pc] = pc of else for if at pc (or -1).
	matchElse map[int]int
}

func buildSidetable(f *Func) (*sidetable, error) {
	st := &sidetable{matchEnd: map[int]int{}, matchElse: map[int]int{}}
	var stack []int
	for pc, in := range f.Body {
		switch in.Op {
		case OpBlock, OpLoop, OpIf:
			stack = append(stack, pc)
			if in.Op == OpIf {
				st.matchElse[pc] = -1
			}
		case OpElse:
			if len(stack) == 0 {
				return nil, errors.New("wasm: else without if")
			}
			st.matchElse[stack[len(stack)-1]] = pc
		case OpEnd:
			if len(stack) == 0 {
				// Function-terminating end.
				continue
			}
			open := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			st.matchEnd[open] = pc
		}
	}
	if len(stack) != 0 {
		return nil, errors.New("wasm: unterminated block")
	}
	return st, nil
}

func (inst *Instance) sidetableFor(f *Func) (*sidetable, error) {
	if st, ok := inst.side[f]; ok {
		return st, nil
	}
	st, err := buildSidetable(f)
	if err != nil {
		return nil, err
	}
	inst.side[f] = st
	return st, nil
}

// frame label for control flow.
type label struct {
	op      Opcode
	pc      int // pc of the block/loop/if instruction (function frame: -1)
	arity   int // values a branch carries
	sp      int // operand stack height at entry
	sawElse bool
}

func (inst *Instance) call(idx uint32, args []uint64, depth int) ([]uint64, error) {
	if depth > inst.MaxDepth {
		return nil, trap("call stack exhausted")
	}
	if int(idx) >= len(inst.funcs) {
		return nil, trap("function index %d out of range", idx)
	}
	fn := &inst.funcs[idx]
	if len(args) != len(fn.typ.Params) {
		return nil, fmt.Errorf("wasm: call %d: got %d args, want %d", idx, len(args), len(fn.typ.Params))
	}
	if fn.host != nil {
		return fn.host.Fn(inst, args)
	}
	f := fn.def
	st, err := inst.sidetableFor(f)
	if err != nil {
		return nil, err
	}

	locals := make([]uint64, len(fn.typ.Params)+len(f.Locals))
	copy(locals, args)
	var stack []uint64
	labels := []label{{op: 0, pc: -1, arity: len(fn.typ.Results), sp: 0}}

	push := func(v uint64) { stack = append(stack, v) }
	pop := func() uint64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	mem := inst.Mem
	body := f.Body
	pc := 0

	// branch performs a br to relative depth d from position pc; returns new pc.
	branch := func(d int, pc int) (int, error) {
		li := len(labels) - 1 - d
		if li < 0 {
			return 0, trap("branch depth out of range")
		}
		l := labels[li]
		if l.pc == -1 {
			// Branch to function frame = return.
			return len(body), nil
		}
		// Carry l.arity values, discard the rest down to l.sp.
		carried := make([]uint64, l.arity)
		copy(carried, stack[len(stack)-l.arity:])
		stack = stack[:l.sp]
		labels = labels[:li+1]
		if l.op == OpLoop {
			// Re-enter the loop: branch target is the loop header.
			return l.pc + 1, nil
		}
		stack = append(stack, carried...)
		labels = labels[:li]
		return st.matchEnd[l.pc] + 1, nil
	}

	for pc < len(body) {
		inst.Steps++
		if inst.MaxSteps > 0 && inst.Steps > inst.MaxSteps {
			return nil, trap("interpreter fuel exhausted")
		}
		in := &body[pc]
		switch in.Op {
		case OpNop:
		case OpUnreachable:
			return nil, trap("unreachable executed")
		case OpBlock:
			arity := 0
			if in.Block.HasResult {
				arity = 1
			}
			labels = append(labels, label{op: OpBlock, pc: pc, arity: arity, sp: len(stack)})
		case OpLoop:
			// A branch to a loop carries no values (MVP loops have no params).
			labels = append(labels, label{op: OpLoop, pc: pc, arity: 0, sp: len(stack)})
		case OpIf:
			arity := 0
			if in.Block.HasResult {
				arity = 1
			}
			c := pop()
			labels = append(labels, label{op: OpIf, pc: pc, arity: arity, sp: len(stack)})
			if uint32(c) == 0 {
				if e := st.matchElse[pc]; e >= 0 {
					pc = e + 1
					continue
				}
				// No else: jump past end, popping the label.
				labels = labels[:len(labels)-1]
				pc = st.matchEnd[pc] + 1
				continue
			}
		case OpElse:
			// Falling into else means the then-branch finished: jump to end.
			l := labels[len(labels)-1]
			labels = labels[:len(labels)-1]
			pc = st.matchEnd[l.pc] + 1
			continue
		case OpEnd:
			if len(labels) > 1 {
				labels = labels[:len(labels)-1]
			}
		case OpBr:
			np, err := branch(int(in.I64), pc)
			if err != nil {
				return nil, err
			}
			pc = np
			continue
		case OpBrIf:
			if uint32(pop()) != 0 {
				np, err := branch(int(in.I64), pc)
				if err != nil {
					return nil, err
				}
				pc = np
				continue
			}
		case OpBrTable:
			i := uint32(pop())
			tbl := f.BrTables[in.I64]
			d := tbl[len(tbl)-1]
			if int(i) < len(tbl)-1 {
				d = tbl[i]
			}
			np, err := branch(int(d), pc)
			if err != nil {
				return nil, err
			}
			pc = np
			continue
		case OpReturn:
			res := make([]uint64, len(fn.typ.Results))
			copy(res, stack[len(stack)-len(res):])
			return res, nil
		case OpCall:
			callee := uint32(in.I64)
			ft := inst.funcs[callee].typ
			nargs := len(ft.Params)
			cargs := make([]uint64, nargs)
			copy(cargs, stack[len(stack)-nargs:])
			stack = stack[:len(stack)-nargs]
			res, err := inst.call(callee, cargs, depth+1)
			if err != nil {
				return nil, err
			}
			stack = append(stack, res...)
		case OpCallIndirect:
			ti := pop()
			if int(ti) >= len(inst.Table) || int32(ti) < 0 {
				return nil, trap("call_indirect: table index %d out of bounds", int32(ti))
			}
			fidx := inst.Table[ti]
			if fidx < 0 {
				return nil, trap("call_indirect: null table entry %d", ti)
			}
			want := inst.Module.Types[in.I64]
			got := inst.funcs[fidx].typ
			if !got.Equal(want) {
				return nil, trap("call_indirect: signature mismatch at table[%d]", ti)
			}
			nargs := len(want.Params)
			cargs := make([]uint64, nargs)
			copy(cargs, stack[len(stack)-nargs:])
			stack = stack[:len(stack)-nargs]
			res, err := inst.call(uint32(fidx), cargs, depth+1)
			if err != nil {
				return nil, err
			}
			stack = append(stack, res...)
		case OpDrop:
			pop()
		case OpSelect:
			c := uint32(pop())
			b := pop()
			a := pop()
			if c != 0 {
				push(a)
			} else {
				push(b)
			}
		case OpLocalGet:
			push(locals[in.I64])
		case OpLocalSet:
			locals[in.I64] = pop()
		case OpLocalTee:
			locals[in.I64] = stack[len(stack)-1]
		case OpGlobalGet:
			push(inst.Globals[in.I64])
		case OpGlobalSet:
			inst.Globals[in.I64] = pop()
		case OpMemorySize:
			push(uint64(mem.Pages()))
		case OpMemoryGrow:
			d := uint32(pop())
			push(uint64(uint32(mem.Grow(d))))
		case OpI32Const:
			push(uint64(uint32(int32(in.I64))))
		case OpI64Const:
			push(uint64(in.I64))
		case OpF32Const:
			push(uint64(math.Float32bits(float32(in.F64))))
		case OpF64Const:
			push(math.Float64bits(in.F64))
		default:
			if in.Op.IsMemAccess() {
				if err := inst.memAccess(in, &stack); err != nil {
					return nil, err
				}
			} else if err := evalNumeric(in.Op, &stack); err != nil {
				return nil, err
			}
		}
		pc++
	}
	res := make([]uint64, len(fn.typ.Results))
	copy(res, stack[len(stack)-len(res):])
	return res, nil
}

func (inst *Instance) memAccess(in *Instr, stack *[]uint64) error {
	s := *stack
	mem := inst.Mem.Bytes
	sz := in.Op.MemAccessBytes()
	if in.Op.IsLoad() {
		addr := uint64(uint32(s[len(s)-1])) + uint64(in.Offset)
		if addr+uint64(sz) > uint64(len(mem)) {
			return trap("out-of-bounds load at 0x%x", addr)
		}
		var v uint64
		switch in.Op {
		case OpI32Load, OpF32Load:
			v = uint64(binary.LittleEndian.Uint32(mem[addr:]))
		case OpI64Load, OpF64Load:
			v = binary.LittleEndian.Uint64(mem[addr:])
		case OpI32Load8U, OpI64Load8U:
			v = uint64(mem[addr])
		case OpI32Load8S, OpI64Load8S:
			v = uint64(int64(int8(mem[addr])))
		case OpI32Load16U, OpI64Load16U:
			v = uint64(binary.LittleEndian.Uint16(mem[addr:]))
		case OpI32Load16S, OpI64Load16S:
			v = uint64(int64(int16(binary.LittleEndian.Uint16(mem[addr:]))))
		case OpI64Load32U:
			v = uint64(binary.LittleEndian.Uint32(mem[addr:]))
		case OpI64Load32S:
			v = uint64(int64(int32(binary.LittleEndian.Uint32(mem[addr:]))))
		}
		if in.Op == OpI32Load8S || in.Op == OpI32Load16S {
			v = uint64(uint32(v)) // truncate sign-extension to 32 bits
		}
		s[len(s)-1] = v
		return nil
	}
	v := s[len(s)-1]
	addr := uint64(uint32(s[len(s)-2])) + uint64(in.Offset)
	*stack = s[:len(s)-2]
	if addr+uint64(sz) > uint64(len(mem)) {
		return trap("out-of-bounds store at 0x%x", addr)
	}
	switch in.Op {
	case OpI32Store, OpF32Store, OpI64Store32:
		binary.LittleEndian.PutUint32(mem[addr:], uint32(v))
	case OpI64Store, OpF64Store:
		binary.LittleEndian.PutUint64(mem[addr:], v)
	case OpI32Store8, OpI64Store8:
		mem[addr] = byte(v)
	case OpI32Store16, OpI64Store16:
		binary.LittleEndian.PutUint16(mem[addr:], uint16(v))
	}
	return nil
}

func evalNumeric(op Opcode, stack *[]uint64) error {
	s := *stack
	pop := func() uint64 {
		v := s[len(s)-1]
		s = s[:len(s)-1]
		return v
	}
	push := func(v uint64) { s = append(s, v) }
	b32 := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}

	switch op {
	// ---- i32 ----
	case OpI32Eqz:
		push(b32(uint32(pop()) == 0))
	case OpI32Eq, OpI32Ne, OpI32LtS, OpI32LtU, OpI32GtS, OpI32GtU, OpI32LeS, OpI32LeU, OpI32GeS, OpI32GeU:
		y, x := uint32(pop()), uint32(pop())
		xs, ys := int32(x), int32(y)
		var r bool
		switch op {
		case OpI32Eq:
			r = x == y
		case OpI32Ne:
			r = x != y
		case OpI32LtS:
			r = xs < ys
		case OpI32LtU:
			r = x < y
		case OpI32GtS:
			r = xs > ys
		case OpI32GtU:
			r = x > y
		case OpI32LeS:
			r = xs <= ys
		case OpI32LeU:
			r = x <= y
		case OpI32GeS:
			r = xs >= ys
		case OpI32GeU:
			r = x >= y
		}
		push(b32(r))
	case OpI32Clz:
		push(uint64(bits.LeadingZeros32(uint32(pop()))))
	case OpI32Ctz:
		push(uint64(bits.TrailingZeros32(uint32(pop()))))
	case OpI32Popcnt:
		push(uint64(bits.OnesCount32(uint32(pop()))))
	case OpI32Add, OpI32Sub, OpI32Mul, OpI32And, OpI32Or, OpI32Xor, OpI32Shl, OpI32ShrS, OpI32ShrU, OpI32Rotl, OpI32Rotr:
		y, x := uint32(pop()), uint32(pop())
		var r uint32
		switch op {
		case OpI32Add:
			r = x + y
		case OpI32Sub:
			r = x - y
		case OpI32Mul:
			r = x * y
		case OpI32And:
			r = x & y
		case OpI32Or:
			r = x | y
		case OpI32Xor:
			r = x ^ y
		case OpI32Shl:
			r = x << (y & 31)
		case OpI32ShrS:
			r = uint32(int32(x) >> (y & 31))
		case OpI32ShrU:
			r = x >> (y & 31)
		case OpI32Rotl:
			r = bits.RotateLeft32(x, int(y&31))
		case OpI32Rotr:
			r = bits.RotateLeft32(x, -int(y&31))
		}
		push(uint64(r))
	case OpI32DivS, OpI32DivU, OpI32RemS, OpI32RemU:
		y, x := uint32(pop()), uint32(pop())
		if y == 0 {
			return trap("integer divide by zero")
		}
		var r uint32
		switch op {
		case OpI32DivS:
			if int32(x) == math.MinInt32 && int32(y) == -1 {
				return trap("integer overflow")
			}
			r = uint32(int32(x) / int32(y))
		case OpI32DivU:
			r = x / y
		case OpI32RemS:
			if int32(x) == math.MinInt32 && int32(y) == -1 {
				r = 0
			} else {
				r = uint32(int32(x) % int32(y))
			}
		case OpI32RemU:
			r = x % y
		}
		push(uint64(r))

	// ---- i64 ----
	case OpI64Eqz:
		push(b32(pop() == 0))
	case OpI64Eq, OpI64Ne, OpI64LtS, OpI64LtU, OpI64GtS, OpI64GtU, OpI64LeS, OpI64LeU, OpI64GeS, OpI64GeU:
		y, x := pop(), pop()
		xs, ys := int64(x), int64(y)
		var r bool
		switch op {
		case OpI64Eq:
			r = x == y
		case OpI64Ne:
			r = x != y
		case OpI64LtS:
			r = xs < ys
		case OpI64LtU:
			r = x < y
		case OpI64GtS:
			r = xs > ys
		case OpI64GtU:
			r = x > y
		case OpI64LeS:
			r = xs <= ys
		case OpI64LeU:
			r = x <= y
		case OpI64GeS:
			r = xs >= ys
		case OpI64GeU:
			r = x >= y
		}
		push(b32(r))
	case OpI64Clz:
		push(uint64(bits.LeadingZeros64(pop())))
	case OpI64Ctz:
		push(uint64(bits.TrailingZeros64(pop())))
	case OpI64Popcnt:
		push(uint64(bits.OnesCount64(pop())))
	case OpI64Add, OpI64Sub, OpI64Mul, OpI64And, OpI64Or, OpI64Xor, OpI64Shl, OpI64ShrS, OpI64ShrU, OpI64Rotl, OpI64Rotr:
		y, x := pop(), pop()
		var r uint64
		switch op {
		case OpI64Add:
			r = x + y
		case OpI64Sub:
			r = x - y
		case OpI64Mul:
			r = x * y
		case OpI64And:
			r = x & y
		case OpI64Or:
			r = x | y
		case OpI64Xor:
			r = x ^ y
		case OpI64Shl:
			r = x << (y & 63)
		case OpI64ShrS:
			r = uint64(int64(x) >> (y & 63))
		case OpI64ShrU:
			r = x >> (y & 63)
		case OpI64Rotl:
			r = bits.RotateLeft64(x, int(y&63))
		case OpI64Rotr:
			r = bits.RotateLeft64(x, -int(y&63))
		}
		push(r)
	case OpI64DivS, OpI64DivU, OpI64RemS, OpI64RemU:
		y, x := pop(), pop()
		if y == 0 {
			return trap("integer divide by zero")
		}
		var r uint64
		switch op {
		case OpI64DivS:
			if int64(x) == math.MinInt64 && int64(y) == -1 {
				return trap("integer overflow")
			}
			r = uint64(int64(x) / int64(y))
		case OpI64DivU:
			r = x / y
		case OpI64RemS:
			if int64(x) == math.MinInt64 && int64(y) == -1 {
				r = 0
			} else {
				r = uint64(int64(x) % int64(y))
			}
		case OpI64RemU:
			r = x % y
		}
		push(r)

	// ---- f32 ----
	case OpF32Eq, OpF32Ne, OpF32Lt, OpF32Gt, OpF32Le, OpF32Ge:
		y := math.Float32frombits(uint32(pop()))
		x := math.Float32frombits(uint32(pop()))
		var r bool
		switch op {
		case OpF32Eq:
			r = x == y
		case OpF32Ne:
			r = x != y
		case OpF32Lt:
			r = x < y
		case OpF32Gt:
			r = x > y
		case OpF32Le:
			r = x <= y
		case OpF32Ge:
			r = x >= y
		}
		push(b32(r))
	case OpF32Abs, OpF32Neg, OpF32Ceil, OpF32Floor, OpF32Trunc, OpF32Nearest, OpF32Sqrt:
		x := float64(math.Float32frombits(uint32(pop())))
		var r float64
		switch op {
		case OpF32Abs:
			r = math.Abs(x)
		case OpF32Neg:
			r = -x
		case OpF32Ceil:
			r = math.Ceil(x)
		case OpF32Floor:
			r = math.Floor(x)
		case OpF32Trunc:
			r = math.Trunc(x)
		case OpF32Nearest:
			r = math.RoundToEven(x)
		case OpF32Sqrt:
			r = math.Sqrt(x)
		}
		if op == OpF32Abs || op == OpF32Neg {
			push(uint64(math.Float32bits(float32(r))))
		} else {
			push(canonF32(float32(r)))
		}
	case OpF32Add, OpF32Sub, OpF32Mul, OpF32Div, OpF32Min, OpF32Max, OpF32Copysign:
		y := math.Float32frombits(uint32(pop()))
		x := math.Float32frombits(uint32(pop()))
		var r float32
		switch op {
		case OpF32Add:
			r = x + y
		case OpF32Sub:
			r = x - y
		case OpF32Mul:
			r = x * y
		case OpF32Div:
			r = x / y
		case OpF32Min:
			r = float32(wasmMin(float64(x), float64(y)))
		case OpF32Max:
			r = float32(wasmMax(float64(x), float64(y)))
		case OpF32Copysign:
			r = float32(math.Copysign(float64(x), float64(y)))
		}
		if op == OpF32Copysign {
			push(uint64(math.Float32bits(r)))
		} else {
			push(canonF32(r))
		}

	// ---- f64 ----
	case OpF64Eq, OpF64Ne, OpF64Lt, OpF64Gt, OpF64Le, OpF64Ge:
		y := math.Float64frombits(pop())
		x := math.Float64frombits(pop())
		var r bool
		switch op {
		case OpF64Eq:
			r = x == y
		case OpF64Ne:
			r = x != y
		case OpF64Lt:
			r = x < y
		case OpF64Gt:
			r = x > y
		case OpF64Le:
			r = x <= y
		case OpF64Ge:
			r = x >= y
		}
		push(b32(r))
	case OpF64Abs, OpF64Neg, OpF64Ceil, OpF64Floor, OpF64Trunc, OpF64Nearest, OpF64Sqrt:
		x := math.Float64frombits(pop())
		var r float64
		switch op {
		case OpF64Abs:
			r = math.Abs(x)
		case OpF64Neg:
			r = -x
		case OpF64Ceil:
			r = math.Ceil(x)
		case OpF64Floor:
			r = math.Floor(x)
		case OpF64Trunc:
			r = math.Trunc(x)
		case OpF64Nearest:
			r = math.RoundToEven(x)
		case OpF64Sqrt:
			r = math.Sqrt(x)
		}
		if op == OpF64Abs || op == OpF64Neg {
			push(math.Float64bits(r))
		} else {
			push(canonF64(r))
		}
	case OpF64Add, OpF64Sub, OpF64Mul, OpF64Div, OpF64Min, OpF64Max, OpF64Copysign:
		y := math.Float64frombits(pop())
		x := math.Float64frombits(pop())
		var r float64
		switch op {
		case OpF64Add:
			r = x + y
		case OpF64Sub:
			r = x - y
		case OpF64Mul:
			r = x * y
		case OpF64Div:
			r = x / y
		case OpF64Min:
			r = wasmMin(x, y)
		case OpF64Max:
			r = wasmMax(x, y)
		case OpF64Copysign:
			r = math.Copysign(x, y)
		}
		if op == OpF64Copysign {
			push(math.Float64bits(r))
		} else {
			push(canonF64(r))
		}

	// ---- conversions ----
	case OpI32WrapI64:
		push(uint64(uint32(pop())))
	case OpI32TruncF32S, OpI32TruncF64S:
		var x float64
		if op == OpI32TruncF32S {
			x = float64(math.Float32frombits(uint32(pop())))
		} else {
			x = math.Float64frombits(pop())
		}
		if math.IsNaN(x) {
			return trap("invalid conversion to integer")
		}
		t := math.Trunc(x)
		if t < math.MinInt32 || t > math.MaxInt32 {
			return trap("integer overflow in conversion")
		}
		push(uint64(uint32(int32(t))))
	case OpI32TruncF32U, OpI32TruncF64U:
		var x float64
		if op == OpI32TruncF32U {
			x = float64(math.Float32frombits(uint32(pop())))
		} else {
			x = math.Float64frombits(pop())
		}
		if math.IsNaN(x) {
			return trap("invalid conversion to integer")
		}
		t := math.Trunc(x)
		if t < 0 || t > math.MaxUint32 {
			return trap("integer overflow in conversion")
		}
		push(uint64(uint32(t)))
	case OpI64ExtendI32S:
		push(uint64(int64(int32(uint32(pop())))))
	case OpI64ExtendI32U:
		push(uint64(uint32(pop())))
	case OpI64TruncF32S, OpI64TruncF64S:
		var x float64
		if op == OpI64TruncF32S {
			x = float64(math.Float32frombits(uint32(pop())))
		} else {
			x = math.Float64frombits(pop())
		}
		if math.IsNaN(x) {
			return trap("invalid conversion to integer")
		}
		t := math.Trunc(x)
		if t < math.MinInt64 || t >= math.MaxInt64 {
			return trap("integer overflow in conversion")
		}
		push(uint64(int64(t)))
	case OpI64TruncF32U, OpI64TruncF64U:
		var x float64
		if op == OpI64TruncF32U {
			x = float64(math.Float32frombits(uint32(pop())))
		} else {
			x = math.Float64frombits(pop())
		}
		if math.IsNaN(x) {
			return trap("invalid conversion to integer")
		}
		t := math.Trunc(x)
		if t < 0 || t >= math.MaxUint64 {
			return trap("integer overflow in conversion")
		}
		push(uint64(t))
	case OpF32ConvertI32S:
		push(uint64(math.Float32bits(float32(int32(uint32(pop()))))))
	case OpF32ConvertI32U:
		push(uint64(math.Float32bits(float32(uint32(pop())))))
	case OpF32ConvertI64S:
		push(uint64(math.Float32bits(float32(int64(pop())))))
	case OpF32ConvertI64U:
		push(uint64(math.Float32bits(float32(pop()))))
	case OpF32DemoteF64:
		push(canonF32(float32(math.Float64frombits(pop()))))
	case OpF64ConvertI32S:
		push(math.Float64bits(float64(int32(uint32(pop())))))
	case OpF64ConvertI32U:
		push(math.Float64bits(float64(uint32(pop()))))
	case OpF64ConvertI64S:
		push(math.Float64bits(float64(int64(pop()))))
	case OpF64ConvertI64U:
		push(math.Float64bits(float64(pop())))
	case OpF64PromoteF32:
		push(canonF64(float64(math.Float32frombits(uint32(pop())))))
	case OpI32ReinterpretF32, OpF32ReinterpretI32:
		// Raw bits are already the representation; for i32<->f32 keep low 32.
		push(uint64(uint32(pop())))
	case OpI64ReinterpretF64, OpF64ReinterpretI64:
		// Identity on the raw representation.
	default:
		return fmt.Errorf("wasm: interpreter: unhandled opcode %s", OpName(op))
	}
	*stack = s
	return nil
}

// canonF64 returns v's bits with NaN canonicalized to one quiet pattern.
// Wasm leaves NaN payloads nondeterministic and Go inherits whatever the
// hardware propagates — which may differ between two compilations of the
// same expression — so every arithmetic, rounding, and width-conversion
// result pins the payload. The cpu engines apply the identical rule (see
// cpu.bitsOf); abs/neg/copysign stay raw everywhere because they compile
// to pure sign-bit operations.
func canonF64(v float64) uint64 {
	if v != v {
		return 0x7ff8000000000000
	}
	return math.Float64bits(v)
}

// canonF32 is canonF64 at float32 width.
func canonF32(v float32) uint64 {
	if v != v {
		return 0x7fc00000
	}
	return uint64(math.Float32bits(v))
}

// wasmMin implements Wasm min semantics: NaN-propagating, -0 < +0.
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

// wasmMax implements Wasm max semantics: NaN-propagating, +0 > -0.
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
