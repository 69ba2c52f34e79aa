package wasm

import (
	"errors"
	"fmt"
)

// Validate type-checks the whole module per the WebAssembly MVP validation
// rules. It returns the first error found.
func Validate(m *Module) error {
	// Imported function type indices.
	for _, im := range m.Imports {
		if im.Kind == ExternFunc && int(im.TypeIdx) >= len(m.Types) {
			return fmt.Errorf("wasm: import %s.%s: type index %d out of range", im.Module, im.Name, im.TypeIdx)
		}
	}
	nfuncs := m.NumImportedFuncs() + len(m.Funcs)
	nglobals := m.NumImportedGlobals() + len(m.Globals)
	nmems := len(m.Mems)
	ntables := len(m.Tables)
	for _, im := range m.Imports {
		switch im.Kind {
		case ExternMemory:
			nmems++
		case ExternTable:
			ntables++
		}
	}
	if nmems > 1 {
		return errors.New("wasm: at most one memory is allowed in the MVP")
	}
	if ntables > 1 {
		return errors.New("wasm: at most one table is allowed in the MVP")
	}
	for _, mem := range m.Mems {
		if mem.Min > MaxPages || (mem.HasMax && (mem.Max > MaxPages || mem.Max < mem.Min)) {
			return errors.New("wasm: invalid memory limits")
		}
	}

	// Globals: initializers may reference only imported globals (which
	// precede all module-defined ones) and must match the declared type.
	nimp := m.NumImportedGlobals()
	for i, g := range m.Globals {
		t, err := constExprType(m, g.Init, nimp)
		if err != nil {
			return fmt.Errorf("wasm: global %d: %w", i, err)
		}
		if t != g.Type.Type {
			return fmt.Errorf("wasm: global %d: initializer type %s != declared %s", i, t, g.Type.Type)
		}
	}

	// Element segments.
	for i, e := range m.Elems {
		if int(e.TableIdx) >= ntables {
			return fmt.Errorf("wasm: elem %d: table index out of range", i)
		}
		t, err := constExprType(m, e.Offset, nimp)
		if err != nil {
			return fmt.Errorf("wasm: elem %d: %w", i, err)
		}
		if t != I32 {
			return fmt.Errorf("wasm: elem %d: offset must be i32", i)
		}
		for _, f := range e.Funcs {
			if int(f) >= nfuncs {
				return fmt.Errorf("wasm: elem %d: function index %d out of range", i, f)
			}
		}
	}

	// Data segments.
	for i, d := range m.Data {
		if int(d.MemIdx) >= nmems {
			return fmt.Errorf("wasm: data %d: memory index out of range", i)
		}
		t, err := constExprType(m, d.Offset, nimp)
		if err != nil {
			return fmt.Errorf("wasm: data %d: %w", i, err)
		}
		if t != I32 {
			return fmt.Errorf("wasm: data %d: offset must be i32", i)
		}
	}

	// Exports: indices in range, names unique.
	seen := make(map[string]bool, len(m.Exports))
	for _, e := range m.Exports {
		if seen[e.Name] {
			return fmt.Errorf("wasm: duplicate export %q", e.Name)
		}
		seen[e.Name] = true
		var limit int
		switch e.Kind {
		case ExternFunc:
			limit = nfuncs
		case ExternGlobal:
			limit = nglobals
		case ExternMemory:
			limit = nmems
		case ExternTable:
			limit = ntables
		default:
			return fmt.Errorf("wasm: export %q: bad kind", e.Name)
		}
		if int(e.Index) >= limit {
			return fmt.Errorf("wasm: export %q: index %d out of range", e.Name, e.Index)
		}
	}

	// Start function.
	if m.Start != nil {
		ft, err := m.FuncTypeAt(*m.Start)
		if err != nil {
			return err
		}
		if len(ft.Params) != 0 || len(ft.Results) != 0 {
			return errors.New("wasm: start function must have type () -> ()")
		}
	}

	// Function bodies.
	for i := range m.Funcs {
		if int(m.Funcs[i].TypeIdx) >= len(m.Types) {
			return fmt.Errorf("wasm: func %d: type index out of range", i)
		}
		if err := validateBody(m, &m.Funcs[i], nfuncs, nglobals, nmems, ntables); err != nil {
			return fmt.Errorf("wasm: func %d (%s): %w", i, m.FuncName(uint32(m.NumImportedFuncs()+i)), err)
		}
	}
	return nil
}

func constExprType(m *Module, in Instr, nimportedGlobals int) (ValType, error) {
	switch in.Op {
	case OpI32Const:
		return I32, nil
	case OpI64Const:
		return I64, nil
	case OpF32Const:
		return F32, nil
	case OpF64Const:
		return F64, nil
	case OpGlobalGet:
		if int(in.I64) >= nimportedGlobals {
			return 0, errors.New("initializer may only reference imported globals")
		}
		gt, err := m.GlobalTypeAt(uint32(in.I64))
		if err != nil {
			return 0, err
		}
		if gt.Mutable {
			return 0, errors.New("initializer may only reference immutable globals")
		}
		return gt.Type, nil
	}
	return 0, fmt.Errorf("non-constant initializer %s", OpName(in.Op))
}

// unknownType marks a polymorphic stack slot that appears in unreachable code.
const unknownType ValType = 0

type ctrlFrame struct {
	op          Opcode // block, loop, if, or 0 for the function frame
	results     []ValType
	stackHeight int
	unreachable bool
	sawElse     bool
}

type validator struct {
	m        *Module
	fn       *Func
	stack    []ValType
	ctrls    []ctrlFrame
	locals   []ValType
	nfuncs   int
	nglobals int
	nmems    int
	ntables  int
}

func (v *validator) push(t ValType) { v.stack = append(v.stack, t) }

func (v *validator) pop(expect ValType) (ValType, error) {
	fr := &v.ctrls[len(v.ctrls)-1]
	if len(v.stack) == fr.stackHeight {
		if fr.unreachable {
			return expect, nil
		}
		return 0, fmt.Errorf("stack underflow, wanted %s", typeName(expect))
	}
	t := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	if expect != unknownType && t != unknownType && t != expect {
		return 0, fmt.Errorf("type mismatch: got %s, wanted %s", t, expect)
	}
	if t == unknownType {
		return expect, nil
	}
	return t, nil
}

func typeName(t ValType) string {
	if t == unknownType {
		return "any"
	}
	return t.String()
}

func (v *validator) pushCtrl(op Opcode, results []ValType) {
	v.ctrls = append(v.ctrls, ctrlFrame{op: op, results: results, stackHeight: len(v.stack)})
}

func (v *validator) popCtrl() (ctrlFrame, error) {
	if len(v.ctrls) == 0 {
		return ctrlFrame{}, errors.New("control stack underflow")
	}
	fr := v.ctrls[len(v.ctrls)-1]
	// The block's results must be on the stack.
	for i := len(fr.results) - 1; i >= 0; i-- {
		if _, err := v.pop(fr.results[i]); err != nil {
			return fr, fmt.Errorf("at block end: %w", err)
		}
	}
	if len(v.stack) != fr.stackHeight {
		return fr, fmt.Errorf("%d leftover values at block end", len(v.stack)-fr.stackHeight)
	}
	v.ctrls = v.ctrls[:len(v.ctrls)-1]
	return fr, nil
}

// labelTypes returns the types a branch to the frame must supply: the result
// types for blocks/ifs, and nothing for loops (branches to a loop re-enter it).
func (fr *ctrlFrame) labelTypes() []ValType {
	if fr.op == OpLoop {
		return nil
	}
	return fr.results
}

func (v *validator) markUnreachable() {
	fr := &v.ctrls[len(v.ctrls)-1]
	v.stack = v.stack[:fr.stackHeight]
	fr.unreachable = true
}

func (v *validator) branchTo(depth int64) (*ctrlFrame, error) {
	if depth < 0 || int(depth) >= len(v.ctrls) {
		return nil, fmt.Errorf("branch depth %d out of range", depth)
	}
	return &v.ctrls[len(v.ctrls)-1-int(depth)], nil
}

func validateBody(m *Module, f *Func, nfuncs, nglobals, nmems, ntables int) error {
	ft := m.Types[f.TypeIdx]
	v := &validator{
		m: m, fn: f, nfuncs: nfuncs, nglobals: nglobals, nmems: nmems, ntables: ntables,
		locals: append(append([]ValType{}, ft.Params...), f.Locals...),
	}
	v.pushCtrl(0, ft.Results)
	for pc, in := range f.Body {
		if len(v.ctrls) == 0 {
			return fmt.Errorf("pc %d: instruction after function end", pc)
		}
		if err := v.step(in); err != nil {
			return fmt.Errorf("pc %d (%s): %w", pc, in, err)
		}
	}
	if len(v.ctrls) != 0 {
		return errors.New("missing end: control stack not empty at function end")
	}
	return nil
}

func (v *validator) step(in Instr) error {
	op := in.Op
	switch op {
	case OpNop:
	case OpUnreachable:
		v.markUnreachable()
	case OpBlock, OpLoop:
		var res []ValType
		if in.Block.HasResult {
			res = []ValType{in.Block.Result}
		}
		v.pushCtrl(op, res)
	case OpIf:
		if _, err := v.pop(I32); err != nil {
			return err
		}
		var res []ValType
		if in.Block.HasResult {
			res = []ValType{in.Block.Result}
		}
		v.pushCtrl(op, res)
	case OpElse:
		fr, err := v.popCtrl()
		if err != nil {
			return err
		}
		if fr.op != OpIf || fr.sawElse {
			return errors.New("else without matching if")
		}
		v.pushCtrl(OpIf, fr.results)
		v.ctrls[len(v.ctrls)-1].sawElse = true
	case OpEnd:
		fr, err := v.popCtrl()
		if err != nil {
			return err
		}
		// An if with a result but no else is invalid: the implicit else
		// cannot produce the result.
		if fr.op == OpIf && !fr.sawElse && len(fr.results) > 0 {
			return errors.New("if with result type requires an else branch")
		}
		for _, t := range fr.results {
			v.push(t)
		}
	case OpBr:
		fr, err := v.branchTo(in.I64)
		if err != nil {
			return err
		}
		lt := fr.labelTypes()
		for i := len(lt) - 1; i >= 0; i-- {
			if _, err := v.pop(lt[i]); err != nil {
				return err
			}
		}
		v.markUnreachable()
	case OpBrIf:
		if _, err := v.pop(I32); err != nil {
			return err
		}
		fr, err := v.branchTo(in.I64)
		if err != nil {
			return err
		}
		lt := fr.labelTypes()
		for i := len(lt) - 1; i >= 0; i-- {
			if _, err := v.pop(lt[i]); err != nil {
				return err
			}
		}
		for _, t := range lt {
			v.push(t)
		}
	case OpBrTable:
		if _, err := v.pop(I32); err != nil {
			return err
		}
		tbl := v.fn.BrTargets(in)
		if len(tbl) == 0 {
			return fmt.Errorf("br_table %d: no target list (%d in the function)", in.I64, len(v.fn.BrTables))
		}
		def, err := v.branchTo(int64(tbl[len(tbl)-1]))
		if err != nil {
			return err
		}
		defTypes := def.labelTypes()
		for _, tgt := range tbl[:len(tbl)-1] {
			fr, err := v.branchTo(int64(tgt))
			if err != nil {
				return err
			}
			lt := fr.labelTypes()
			if len(lt) != len(defTypes) {
				return errors.New("br_table targets have inconsistent arity")
			}
			for i := range lt {
				if lt[i] != defTypes[i] {
					return errors.New("br_table targets have inconsistent types")
				}
			}
		}
		for i := len(defTypes) - 1; i >= 0; i-- {
			if _, err := v.pop(defTypes[i]); err != nil {
				return err
			}
		}
		v.markUnreachable()
	case OpReturn:
		res := v.ctrls[0].results
		for i := len(res) - 1; i >= 0; i-- {
			if _, err := v.pop(res[i]); err != nil {
				return err
			}
		}
		v.markUnreachable()
	case OpCall:
		if int(in.I64) >= v.nfuncs {
			return fmt.Errorf("call target %d out of range", in.I64)
		}
		ft, err := v.m.FuncTypeAt(uint32(in.I64))
		if err != nil {
			return err
		}
		return v.applyCall(ft)
	case OpCallIndirect:
		if v.ntables == 0 {
			return errors.New("call_indirect without a table")
		}
		if int(in.I64) >= len(v.m.Types) {
			return fmt.Errorf("call_indirect type %d out of range", in.I64)
		}
		if _, err := v.pop(I32); err != nil {
			return err
		}
		return v.applyCall(v.m.Types[in.I64])
	case OpDrop:
		_, err := v.pop(unknownType)
		return err
	case OpSelect:
		if _, err := v.pop(I32); err != nil {
			return err
		}
		t1, err := v.pop(unknownType)
		if err != nil {
			return err
		}
		t2, err := v.pop(t1)
		if err != nil {
			return err
		}
		if t2 == unknownType {
			t2 = t1
		}
		v.push(t2)
	case OpLocalGet, OpLocalSet, OpLocalTee:
		if int(in.I64) >= len(v.locals) {
			return fmt.Errorf("local %d out of range", in.I64)
		}
		t := v.locals[in.I64]
		switch op {
		case OpLocalGet:
			v.push(t)
		case OpLocalSet:
			_, err := v.pop(t)
			return err
		case OpLocalTee:
			if _, err := v.pop(t); err != nil {
				return err
			}
			v.push(t)
		}
	case OpGlobalGet, OpGlobalSet:
		if int(in.I64) >= v.nglobals {
			return fmt.Errorf("global %d out of range", in.I64)
		}
		gt, err := v.m.GlobalTypeAt(uint32(in.I64))
		if err != nil {
			return err
		}
		if op == OpGlobalGet {
			v.push(gt.Type)
		} else {
			if !gt.Mutable {
				return fmt.Errorf("global %d is immutable", in.I64)
			}
			_, err := v.pop(gt.Type)
			return err
		}
	case OpMemorySize:
		if v.nmems == 0 {
			return errors.New("memory.size without a memory")
		}
		v.push(I32)
	case OpMemoryGrow:
		if v.nmems == 0 {
			return errors.New("memory.grow without a memory")
		}
		if _, err := v.pop(I32); err != nil {
			return err
		}
		v.push(I32)
	case OpI32Const:
		v.push(I32)
	case OpI64Const:
		v.push(I64)
	case OpF32Const:
		v.push(F32)
	case OpF64Const:
		v.push(F64)
	default:
		if op.IsMemAccess() {
			if v.nmems == 0 {
				return errors.New("memory access without a memory")
			}
			sz := op.MemAccessBytes()
			if in.Align > 16 || (1<<in.Align) > sz {
				return fmt.Errorf("alignment 2^%d larger than access size %d", in.Align, sz)
			}
			if op.IsLoad() {
				if _, err := v.pop(I32); err != nil {
					return err
				}
				v.push(memAccessType(op))
				return nil
			}
			if _, err := v.pop(memAccessType(op)); err != nil {
				return err
			}
			_, err := v.pop(I32)
			return err
		}
		sig, ok := numericSigs[op]
		if !ok {
			return fmt.Errorf("unhandled opcode %s", OpName(op))
		}
		for i := len(sig.in) - 1; i >= 0; i-- {
			if _, err := v.pop(sig.in[i]); err != nil {
				return err
			}
		}
		v.push(sig.out)
	}
	return nil
}

func (v *validator) applyCall(ft FuncType) error {
	for i := len(ft.Params) - 1; i >= 0; i-- {
		if _, err := v.pop(ft.Params[i]); err != nil {
			return err
		}
	}
	for _, r := range ft.Results {
		v.push(r)
	}
	return nil
}

// memAccessType returns the value type read or written by a load/store.
func memAccessType(op Opcode) ValType {
	switch op {
	case OpI32Load, OpI32Load8S, OpI32Load8U, OpI32Load16S, OpI32Load16U,
		OpI32Store, OpI32Store8, OpI32Store16:
		return I32
	case OpI64Load, OpI64Load8S, OpI64Load8U, OpI64Load16S, OpI64Load16U,
		OpI64Load32S, OpI64Load32U, OpI64Store, OpI64Store8, OpI64Store16, OpI64Store32:
		return I64
	case OpF32Load, OpF32Store:
		return F32
	case OpF64Load, OpF64Store:
		return F64
	}
	panic("not a memory access: " + OpName(op))
}

type numSig struct {
	in  []ValType
	out ValType
}

var numericSigs = map[Opcode]numSig{}

func init() {
	bin := func(t ValType, out ValType, ops ...Opcode) {
		for _, op := range ops {
			numericSigs[op] = numSig{in: []ValType{t, t}, out: out}
		}
	}
	un := func(t ValType, out ValType, ops ...Opcode) {
		for _, op := range ops {
			numericSigs[op] = numSig{in: []ValType{t}, out: out}
		}
	}
	// i32
	un(I32, I32, OpI32Eqz, OpI32Clz, OpI32Ctz, OpI32Popcnt)
	bin(I32, I32, OpI32Eq, OpI32Ne, OpI32LtS, OpI32LtU, OpI32GtS, OpI32GtU,
		OpI32LeS, OpI32LeU, OpI32GeS, OpI32GeU,
		OpI32Add, OpI32Sub, OpI32Mul, OpI32DivS, OpI32DivU, OpI32RemS, OpI32RemU,
		OpI32And, OpI32Or, OpI32Xor, OpI32Shl, OpI32ShrS, OpI32ShrU, OpI32Rotl, OpI32Rotr)
	// i64
	un(I64, I32, OpI64Eqz)
	un(I64, I64, OpI64Clz, OpI64Ctz, OpI64Popcnt)
	bin(I64, I32, OpI64Eq, OpI64Ne, OpI64LtS, OpI64LtU, OpI64GtS, OpI64GtU,
		OpI64LeS, OpI64LeU, OpI64GeS, OpI64GeU)
	bin(I64, I64, OpI64Add, OpI64Sub, OpI64Mul, OpI64DivS, OpI64DivU, OpI64RemS, OpI64RemU,
		OpI64And, OpI64Or, OpI64Xor, OpI64Shl, OpI64ShrS, OpI64ShrU, OpI64Rotl, OpI64Rotr)
	// f32
	bin(F32, I32, OpF32Eq, OpF32Ne, OpF32Lt, OpF32Gt, OpF32Le, OpF32Ge)
	un(F32, F32, OpF32Abs, OpF32Neg, OpF32Ceil, OpF32Floor, OpF32Trunc, OpF32Nearest, OpF32Sqrt)
	bin(F32, F32, OpF32Add, OpF32Sub, OpF32Mul, OpF32Div, OpF32Min, OpF32Max, OpF32Copysign)
	// f64
	bin(F64, I32, OpF64Eq, OpF64Ne, OpF64Lt, OpF64Gt, OpF64Le, OpF64Ge)
	un(F64, F64, OpF64Abs, OpF64Neg, OpF64Ceil, OpF64Floor, OpF64Trunc, OpF64Nearest, OpF64Sqrt)
	bin(F64, F64, OpF64Add, OpF64Sub, OpF64Mul, OpF64Div, OpF64Min, OpF64Max, OpF64Copysign)
	// conversions
	un(I64, I32, OpI32WrapI64)
	un(F32, I32, OpI32TruncF32S, OpI32TruncF32U)
	un(F64, I32, OpI32TruncF64S, OpI32TruncF64U)
	un(I32, I64, OpI64ExtendI32S, OpI64ExtendI32U)
	un(F32, I64, OpI64TruncF32S, OpI64TruncF32U)
	un(F64, I64, OpI64TruncF64S, OpI64TruncF64U)
	un(I32, F32, OpF32ConvertI32S, OpF32ConvertI32U)
	un(I64, F32, OpF32ConvertI64S, OpF32ConvertI64U)
	un(F64, F32, OpF32DemoteF64)
	un(I32, F64, OpF64ConvertI32S, OpF64ConvertI32U)
	un(I64, F64, OpF64ConvertI64S, OpF64ConvertI64U)
	un(F32, F64, OpF64PromoteF32)
	un(F32, I32, OpI32ReinterpretF32)
	un(F64, I64, OpI64ReinterpretF64)
	un(I32, F32, OpF32ReinterpretI32)
	un(I64, F64, OpF64ReinterpretI64)
}
