package minic

import (
	"repro/internal/wasm"
)

// lval describes an lvalue: either a wasm register local or a memory
// location whose address has been pushed on the wasm stack.
type lval struct {
	isLocal bool
	local   uint32
}

// loadScalar emits the load for type t from [addr+off] (addr on stack).
func (fg *fgen) loadScalar(t *Type, off uint32) {
	fb := fg.fb
	switch t.Kind {
	case TChar:
		fb.Load(wasm.OpI32Load8S, off)
	case TInt, TUint:
		fb.Load(wasm.OpI32Load, off)
	case TLong, TULong:
		fb.Load(wasm.OpI64Load, off)
	case TFloat:
		fb.Load(wasm.OpF32Load, off)
	case TDouble:
		fb.Load(wasm.OpF64Load, off)
	case TPtr:
		if fg.g.abi.PtrSize == 8 {
			// Pointers are stored as 8 bytes in the native data model but
			// compute as i32.
			fb.Load(wasm.OpI64Load, off)
			fb.Op(wasm.OpI32WrapI64)
		} else {
			fb.Load(wasm.OpI32Load, off)
		}
	}
}

// storeScalar emits the store for type t to [addr+off]; stack: [addr value].
func (fg *fgen) storeScalar(t *Type, off uint32) {
	fb := fg.fb
	switch t.Kind {
	case TChar:
		fb.Store(wasm.OpI32Store8, off)
	case TInt, TUint:
		fb.Store(wasm.OpI32Store, off)
	case TLong, TULong:
		fb.Store(wasm.OpI64Store, off)
	case TFloat:
		fb.Store(wasm.OpF32Store, off)
	case TDouble:
		fb.Store(wasm.OpF64Store, off)
	case TPtr:
		if fg.g.abi.PtrSize == 8 {
			fb.Op(wasm.OpI64ExtendI32U)
			fb.Store(wasm.OpI64Store, off)
		} else {
			fb.Store(wasm.OpI32Store, off)
		}
	}
}

// convert coerces the stack top from type `from` to type `to`.
func (fg *fgen) convert(from, to *Type, line int) error {
	fb := fg.fb
	if from == nil || to == nil {
		return fg.errf(line, "internal: nil type in conversion")
	}
	if sameType(from, to) {
		return nil
	}
	// Pointer/array/int interconversion at the wasm level is free (all i32).
	fi := from.isInt() || from.Kind == TPtr || from.Kind == TArray
	ti := to.isInt() || to.Kind == TPtr
	switch {
	case fi && ti:
		f64 := from.is64()
		t64 := to.is64()
		switch {
		case f64 && !t64:
			fb.Op(wasm.OpI32WrapI64)
		case !f64 && t64:
			if from.isUnsigned() || from.Kind == TPtr || from.Kind == TArray {
				fb.Op(wasm.OpI64ExtendI32U)
			} else {
				fb.Op(wasm.OpI64ExtendI32S)
			}
		}
		if to.Kind == TChar {
			// Truncate to signed char value.
			if t64 {
				fb.Op(wasm.OpI32WrapI64)
			}
			fb.I32Const(24).Op(wasm.OpI32Shl)
			fb.I32Const(24).Op(wasm.OpI32ShrS)
			if t64 {
				fb.Op(wasm.OpI64ExtendI32S)
			}
		}
		return nil
	case fi && to.isFloat():
		var op wasm.Opcode
		switch {
		case from.is64() && to.Kind == TDouble:
			op = wasm.OpF64ConvertI64S
			if from.isUnsigned() {
				op = wasm.OpF64ConvertI64U
			}
		case from.is64():
			op = wasm.OpF32ConvertI64S
			if from.isUnsigned() {
				op = wasm.OpF32ConvertI64U
			}
		case to.Kind == TDouble:
			op = wasm.OpF64ConvertI32S
			if from.isUnsigned() || from.Kind == TPtr {
				op = wasm.OpF64ConvertI32U
			}
		default:
			op = wasm.OpF32ConvertI32S
			if from.isUnsigned() || from.Kind == TPtr {
				op = wasm.OpF32ConvertI32U
			}
		}
		fb.Op(op)
		return nil
	case from.isFloat() && ti:
		var op wasm.Opcode
		switch {
		case from.Kind == TDouble && to.is64():
			op = wasm.OpI64TruncF64S
			if to.isUnsigned() {
				op = wasm.OpI64TruncF64U
			}
		case from.Kind == TDouble:
			op = wasm.OpI32TruncF64S
			if to.isUnsigned() {
				op = wasm.OpI32TruncF64U
			}
		case to.is64():
			op = wasm.OpI64TruncF32S
			if to.isUnsigned() {
				op = wasm.OpI64TruncF32U
			}
		default:
			op = wasm.OpI32TruncF32S
			if to.isUnsigned() {
				op = wasm.OpI32TruncF32U
			}
		}
		fb.Op(op)
		if to.Kind == TChar {
			fb.I32Const(24).Op(wasm.OpI32Shl)
			fb.I32Const(24).Op(wasm.OpI32ShrS)
		}
		return nil
	case from.Kind == TFloat && to.Kind == TDouble:
		fb.Op(wasm.OpF64PromoteF32)
		return nil
	case from.Kind == TDouble && to.Kind == TFloat:
		fb.Op(wasm.OpF32DemoteF64)
		return nil
	case to.Kind == TVoid:
		return nil
	}
	return fg.errf(line, "cannot convert %s to %s", from, to)
}

// commonType computes the usual-arithmetic-conversion result.
func commonType(a, b *Type) *Type {
	if a.Kind == TDouble || b.Kind == TDouble {
		return tyDouble
	}
	if a.Kind == TFloat || b.Kind == TFloat {
		return tyFloat
	}
	if a.is64() || b.is64() {
		if a.Kind == TULong || b.Kind == TULong {
			return tyULong
		}
		return tyLong
	}
	if a.Kind == TUint || b.Kind == TUint {
		return tyUint
	}
	return tyInt
}

// binOpcode returns the wasm opcode for operator tok at type t.
func binOpcode(tok string, t *Type) (wasm.Opcode, bool) {
	type key struct {
		tok string
		cls int // 0=i32, 1=i64, 2=f32, 3=f64
	}
	cls := 0
	switch {
	case t.Kind == TFloat:
		cls = 2
	case t.Kind == TDouble:
		cls = 3
	case t.is64():
		cls = 1
	}
	uns := t.isUnsigned() || t.Kind == TPtr
	pick4 := func(a, b, c, d wasm.Opcode) (wasm.Opcode, bool) {
		op := [4]wasm.Opcode{a, b, c, d}[cls]
		return op, op != wasm.OpUnreachable // 0: no instruction at this class
	}
	switch tok {
	case "+":
		return pick4(wasm.OpI32Add, wasm.OpI64Add, wasm.OpF32Add, wasm.OpF64Add)
	case "-":
		return pick4(wasm.OpI32Sub, wasm.OpI64Sub, wasm.OpF32Sub, wasm.OpF64Sub)
	case "*":
		return pick4(wasm.OpI32Mul, wasm.OpI64Mul, wasm.OpF32Mul, wasm.OpF64Mul)
	case "/":
		if cls >= 2 {
			return pick4(0, 0, wasm.OpF32Div, wasm.OpF64Div)
		}
		if uns {
			return pick4(wasm.OpI32DivU, wasm.OpI64DivU, 0, 0)
		}
		return pick4(wasm.OpI32DivS, wasm.OpI64DivS, 0, 0)
	case "%":
		if uns {
			return pick4(wasm.OpI32RemU, wasm.OpI64RemU, 0, 0)
		}
		return pick4(wasm.OpI32RemS, wasm.OpI64RemS, 0, 0)
	case "&":
		return pick4(wasm.OpI32And, wasm.OpI64And, 0, 0)
	case "|":
		return pick4(wasm.OpI32Or, wasm.OpI64Or, 0, 0)
	case "^":
		return pick4(wasm.OpI32Xor, wasm.OpI64Xor, 0, 0)
	case "<<":
		return pick4(wasm.OpI32Shl, wasm.OpI64Shl, 0, 0)
	case ">>":
		if uns {
			return pick4(wasm.OpI32ShrU, wasm.OpI64ShrU, 0, 0)
		}
		return pick4(wasm.OpI32ShrS, wasm.OpI64ShrS, 0, 0)
	}
	return 0, false
}

// cmpOpcode returns the wasm comparison opcode for tok at operand type t.
func cmpOpcode(tok string, t *Type) (wasm.Opcode, bool) {
	uns := t.isUnsigned() || t.Kind == TPtr || t.Kind == TArray
	switch t.Kind {
	case TFloat:
		switch tok {
		case "==":
			return wasm.OpF32Eq, true
		case "!=":
			return wasm.OpF32Ne, true
		case "<":
			return wasm.OpF32Lt, true
		case ">":
			return wasm.OpF32Gt, true
		case "<=":
			return wasm.OpF32Le, true
		case ">=":
			return wasm.OpF32Ge, true
		}
	case TDouble:
		switch tok {
		case "==":
			return wasm.OpF64Eq, true
		case "!=":
			return wasm.OpF64Ne, true
		case "<":
			return wasm.OpF64Lt, true
		case ">":
			return wasm.OpF64Gt, true
		case "<=":
			return wasm.OpF64Le, true
		case ">=":
			return wasm.OpF64Ge, true
		}
	case TLong, TULong:
		switch tok {
		case "==":
			return wasm.OpI64Eq, true
		case "!=":
			return wasm.OpI64Ne, true
		case "<":
			if uns {
				return wasm.OpI64LtU, true
			}
			return wasm.OpI64LtS, true
		case ">":
			if uns {
				return wasm.OpI64GtU, true
			}
			return wasm.OpI64GtS, true
		case "<=":
			if uns {
				return wasm.OpI64LeU, true
			}
			return wasm.OpI64LeS, true
		case ">=":
			if uns {
				return wasm.OpI64GeU, true
			}
			return wasm.OpI64GeS, true
		}
	default:
		switch tok {
		case "==":
			return wasm.OpI32Eq, true
		case "!=":
			return wasm.OpI32Ne, true
		case "<":
			if uns {
				return wasm.OpI32LtU, true
			}
			return wasm.OpI32LtS, true
		case ">":
			if uns {
				return wasm.OpI32GtU, true
			}
			return wasm.OpI32GtS, true
		case "<=":
			if uns {
				return wasm.OpI32LeU, true
			}
			return wasm.OpI32LeS, true
		case ">=":
			if uns {
				return wasm.OpI32GeU, true
			}
			return wasm.OpI32GeS, true
		}
	}
	return 0, false
}

// expr generates code pushing the value of the resolved expression e.
func (fg *fgen) expr(e *Expr) error {
	fb := fg.fb
	switch e.Op {
	case "num":
		if e.typ.is64() {
			fb.I64Const(e.Ival)
		} else {
			fb.I32Const(int32(e.Ival))
		}

	case "fnum":
		fb.F64Const(e.Fval)

	case "str":
		fb.I32Const(int32(fg.g.internString(e.Sval)))

	case "sizeof":
		t := e.T
		if t == nil {
			t = e.X.typ
		}
		fb.I32Const(int32(t.size(fg.g.abi.PtrSize)))

	case "var":
		if e.typ.Kind == TFunc {
			slot, err := fg.g.tableIndexOf(e.Name)
			if err != nil {
				return err
			}
			fb.I32Const(int32(slot))
			return nil
		}
		switch li, local := fg.lookup(e.Name); {
		case local && !li.isMem:
			fb.LocalGet(li.local)
		case local && !li.t.isAggregate():
			fb.LocalGet(fg.spLocal)
			fg.loadScalar(li.t, uint32(li.off))
		default:
			return fg.load(e)
		}

	case "call":
		return fg.call(e)

	case "bin":
		return fg.binary(e)

	case "un":
		return fg.unary(e)

	case "assign":
		return fg.assign(e)

	case "post":
		return fg.postIncDec(e)

	case "cond":
		if err := fg.cond(e.X); err != nil {
			return err
		}
		bt := wasm.BlockVoid
		if e.typ.Kind != TVoid {
			bt = wasm.BlockOf(fg.g.valType(e.typ))
		}
		fb.If(bt)
		if err := fg.exprTo(e.Y, e.typ, e.Line); err != nil {
			return err
		}
		fb.Else()
		if err := fg.exprTo(e.Z, e.typ, e.Line); err != nil {
			return err
		}
		fb.End()

	case "index", "member":
		return fg.load(e)

	case "cast":
		return fg.exprTo(e.X, e.T, e.Line)
	}
	return nil
}

// exprTo generates x converted to type t.
func (fg *fgen) exprTo(x *Expr, t *Type, line int) error {
	if err := fg.expr(x); err != nil {
		return err
	}
	return fg.convert(x.value(), t, line)
}

// discard generates e for its side effects only.
func (fg *fgen) discard(e *Expr) error {
	if err := fg.expr(e); err != nil {
		return err
	}
	if e.typ.Kind != TVoid {
		fg.fb.Op(wasm.OpDrop)
	}
	return nil
}

// load pushes the value of the memory object e designates: the address of
// an aggregate, the loaded value of a scalar.
func (fg *fgen) load(e *Expr) error {
	if _, err := fg.lvalue(e); err != nil {
		return err
	}
	if !e.typ.isAggregate() {
		fg.loadScalar(e.typ, 0)
	}
	return nil
}

// lvalue generates the location of the object e designates: a register
// local is returned, any other object's address is pushed.
func (fg *fgen) lvalue(e *Expr) (lval, error) {
	fb := fg.fb
	switch e.Op {
	case "var":
		if li, ok := fg.lookup(e.Name); ok {
			if !li.isMem {
				return lval{isLocal: true, local: li.local}, nil
			}
			fb.LocalGet(fg.spLocal)
			if li.off != 0 {
				fb.I32Const(int32(li.off)).Op(wasm.OpI32Add)
			}
			return lval{}, nil
		}
		fb.I32Const(int32(fg.g.globalAddr[e.Name]))
		return lval{}, nil

	case "un": // *p
		return lval{}, fg.expr(e.X)

	case "index":
		if err := fg.expr(e.X); err != nil {
			return lval{}, err
		}
		if err := fg.scaledIndex(e.Y, e.typ); err != nil {
			return lval{}, err
		}
		fb.Op(wasm.OpI32Add)
		return lval{}, nil
	}

	// Member: the struct's address, then the field offset.
	var st *Type
	if e.Tok == "->" {
		if err := fg.expr(e.X); err != nil {
			return lval{}, err
		}
		st = e.X.value().Elem
	} else {
		// A struct object always lives in memory.
		if _, err := fg.lvalue(e.X); err != nil {
			return lval{}, err
		}
		st = e.X.typ
	}
	if off, _, _ := st.S.fieldOffset(e.Name, fg.g.abi.PtrSize); off != 0 {
		fb.I32Const(int32(off)).Op(wasm.OpI32Add)
	}
	return lval{}, nil
}

// scaledIndex pushes integer x times the size of elem, as an i32.
func (fg *fgen) scaledIndex(x *Expr, elem *Type) error {
	if err := fg.expr(x); err != nil {
		return err
	}
	if x.typ.is64() {
		fg.fb.Op(wasm.OpI32WrapI64)
	}
	fg.scaleIndex(elem)
	return nil
}

// scaleIndex multiplies the i32 on the stack by the element size.
func (fg *fgen) scaleIndex(elem *Type) {
	sz := elem.size(fg.g.abi.PtrSize)
	switch sz {
	case 1:
	case 2, 4, 8:
		shift := map[int]int32{2: 1, 4: 2, 8: 3}[sz]
		fg.fb.I32Const(shift).Op(wasm.OpI32Shl)
	default:
		fg.fb.I32Const(int32(sz)).Op(wasm.OpI32Mul)
	}
}
