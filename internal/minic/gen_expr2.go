package minic

import (
	"repro/internal/wasm"
)

// binary generates binary operators.
func (fg *fgen) binary(e *Expr) error {
	fb := fg.fb
	switch e.Tok {
	case ",":
		if err := fg.discard(e.X); err != nil {
			return err
		}
		return fg.expr(e.Y)

	case "&&", "||":
		if err := fg.cond(e.X); err != nil {
			return err
		}
		fb.If(wasm.BlockOf(wasm.I32))
		if e.Tok == "&&" {
			if err := fg.cond(e.Y); err != nil {
				return err
			}
			fb.I32Const(0).Op(wasm.OpI32Ne)
			fb.Else()
			fb.I32Const(0)
		} else {
			fb.I32Const(1)
			fb.Else()
			if err := fg.cond(e.Y); err != nil {
				return err
			}
			fb.I32Const(0).Op(wasm.OpI32Ne)
		}
		fb.End()
		return nil

	case "==", "!=", "<", ">", "<=", ">=":
		at, bt := e.X.value(), e.Y.value()
		ct := tyUint // pointer comparison is unsigned 32-bit
		if at.Kind != TPtr && bt.Kind != TPtr {
			ct = commonType(at, bt)
		}
		if err := fg.exprTo(e.X, ct, e.Line); err != nil {
			return err
		}
		if err := fg.exprTo(e.Y, ct, e.Line); err != nil {
			return err
		}
		op, ok := cmpOpcode(e.Tok, ct)
		if !ok {
			return fg.errf(e.Line, "bad comparison %q on %s", e.Tok, ct)
		}
		fb.Op(op)
		return nil
	}

	// Pointer arithmetic: ptr +/- int, int + ptr, ptr - ptr.
	at := e.X.value()
	switch {
	case e.typ.Kind == TPtr && at.Kind == TPtr:
		if err := fg.expr(e.X); err != nil {
			return err
		}
		if err := fg.scaledIndex(e.Y, e.typ.Elem); err != nil {
			return err
		}
		fg.addSub(e.typ, e.Tok == "+")
		return nil
	case e.typ.Kind == TPtr:
		if err := fg.scaledIndex(e.X, e.typ.Elem); err != nil {
			return err
		}
		if err := fg.expr(e.Y); err != nil {
			return err
		}
		fb.Op(wasm.OpI32Add)
		return nil
	case at.Kind == TPtr && e.Tok == "-" && e.Y.value().Kind == TPtr:
		if err := fg.expr(e.X); err != nil {
			return err
		}
		if err := fg.expr(e.Y); err != nil {
			return err
		}
		fb.Op(wasm.OpI32Sub)
		if sz := at.Elem.size(fg.g.abi.PtrSize); sz > 1 {
			fb.I32Const(int32(sz)).Op(wasm.OpI32DivS)
		}
		return nil
	}

	if err := fg.exprTo(e.X, e.typ, e.Line); err != nil {
		return err
	}
	if err := fg.exprTo(e.Y, e.typ, e.Line); err != nil {
		return err
	}
	op, ok := binOpcode(e.Tok, e.typ)
	if !ok {
		return fg.errf(e.Line, "bad operator %q on %s", e.Tok, e.typ)
	}
	fb.Op(op)
	return nil
}

// unary generates unary operators.
func (fg *fgen) unary(e *Expr) error {
	fb := fg.fb
	switch e.Tok {
	case "-":
		switch t := e.typ; {
		case t.Kind == TDouble:
			if err := fg.expr(e.X); err != nil {
				return err
			}
			fb.Op(wasm.OpF64Neg)
		case t.Kind == TFloat:
			if err := fg.expr(e.X); err != nil {
				return err
			}
			fb.Op(wasm.OpF32Neg)
		case t.is64():
			fb.I64Const(0)
			if err := fg.expr(e.X); err != nil {
				return err
			}
			fb.Op(wasm.OpI64Sub)
		default:
			fb.I32Const(0)
			if err := fg.exprTo(e.X, tyInt, e.Line); err != nil {
				return err
			}
			fb.Op(wasm.OpI32Sub)
		}
	case "!":
		if err := fg.cond(e.X); err != nil {
			return err
		}
		fb.Op(wasm.OpI32Eqz)
	case "~":
		if err := fg.expr(e.X); err != nil {
			return err
		}
		if e.typ.is64() {
			fb.I64Const(-1).Op(wasm.OpI64Xor)
		} else {
			fb.I32Const(-1).Op(wasm.OpI32Xor)
		}
	case "*":
		return fg.load(e)
	case "&":
		lv, err := fg.lvalue(e.X)
		if err != nil {
			return err
		}
		if lv.isLocal {
			return fg.errf(e.Line, "internal: address of register local %v", e.X.Name)
		}
	}
	return nil
}

// assign handles = and compound assignment, yielding the stored value.
func (fg *fgen) assign(e *Expr) error {
	fb := fg.fb
	lv, err := fg.lvalue(e.X)
	if err != nil {
		return err
	}
	lt := e.X.typ
	var aS uint32 // a memory lvalue's address, kept for the store
	if e.Tok != "=" {
		// x op= y  =>  x = x op y: push the old value.
		if lv.isLocal {
			fb.LocalGet(lv.local)
		} else {
			aS = fg.getScratch(wasm.I32)
			fb.LocalSet(aS).LocalGet(aS).LocalGet(aS)
			fg.loadScalar(lt, 0)
		}
	}
	if err := fg.assignedValue(e, lt); err != nil {
		return err
	}
	if lv.isLocal {
		fb.LocalTee(lv.local)
		return nil
	}
	vt := fg.g.valType(lt)
	vS := fg.getScratch(vt)
	fb.LocalTee(vS)
	fg.storeScalar(lt, 0)
	fb.LocalGet(vS)
	fg.putScratch(vt, vS)
	if e.Tok != "=" {
		fg.putScratch(wasm.I32, aS)
	}
	return nil
}

// assignedValue pushes the value assignment e stores into an lvalue of
// type lt; a compound assignment finds the old value already pushed.
func (fg *fgen) assignedValue(e *Expr, lt *Type) error {
	if e.Tok == "=" {
		return fg.exprTo(e.Y, lt, e.Line)
	}
	op := e.Tok[:len(e.Tok)-1]
	if lt.Kind == TPtr && (op == "+" || op == "-") {
		if err := fg.scaledIndex(e.Y, lt.Elem); err != nil {
			return err
		}
		fg.addSub(lt, op == "+")
		return nil
	}
	ct := commonType(lt, e.Y.value())
	if err := fg.convert(lt, ct, e.Line); err != nil {
		return err
	}
	if err := fg.exprTo(e.Y, ct, e.Line); err != nil {
		return err
	}
	opc, ok := binOpcode(op, ct)
	if !ok {
		return fg.errf(e.Line, "bad operator %q on %s", op, ct)
	}
	fg.fb.Op(opc)
	return fg.convert(ct, lt, e.Line)
}

// postIncDec handles x++ / x-- yielding the old value.
func (fg *fgen) postIncDec(e *Expr) error {
	fb := fg.fb
	lv, err := fg.lvalue(e.X)
	if err != nil {
		return err
	}
	lt := e.typ
	step := int64(1)
	if lt.Kind == TPtr {
		step = int64(lt.Elem.size(fg.g.abi.PtrSize))
	}
	add := e.Tok == "++"

	if lv.isLocal {
		fb.LocalGet(lv.local) // old value (result)
		fb.LocalGet(lv.local)
		fg.pushStep(lt, step)
		fg.addSub(lt, add)
		fb.LocalSet(lv.local)
		return nil
	}
	aS := fg.getScratch(wasm.I32)
	fb.LocalSet(aS)
	vt := fg.g.valType(lt)
	oldS := fg.getScratch(vt)
	fb.LocalGet(aS)
	fg.loadScalar(lt, 0)
	fb.LocalSet(oldS)
	fb.LocalGet(aS)
	fb.LocalGet(oldS)
	fg.pushStep(lt, step)
	fg.addSub(lt, add)
	fg.storeScalar(lt, 0)
	fb.LocalGet(oldS)
	fg.putScratch(vt, oldS)
	fg.putScratch(wasm.I32, aS)
	return nil
}

func (fg *fgen) pushStep(t *Type, step int64) {
	switch {
	case t.Kind == TDouble:
		fg.fb.F64Const(float64(step))
	case t.Kind == TFloat:
		fg.fb.Emit(wasm.Instr{Op: wasm.OpF32Const, F64: float64(step)})
	case t.is64():
		fg.fb.I64Const(step)
	default:
		fg.fb.I32Const(int32(step))
	}
}

func (fg *fgen) addSub(t *Type, add bool) {
	var op wasm.Opcode
	switch {
	case t.Kind == TDouble:
		op = wasm.OpF64Add
		if !add {
			op = wasm.OpF64Sub
		}
	case t.Kind == TFloat:
		op = wasm.OpF32Add
		if !add {
			op = wasm.OpF32Sub
		}
	case t.is64():
		op = wasm.OpI64Add
		if !add {
			op = wasm.OpI64Sub
		}
	default:
		op = wasm.OpI32Add
		if !add {
			op = wasm.OpI32Sub
		}
	}
	fg.fb.Op(op)
}
