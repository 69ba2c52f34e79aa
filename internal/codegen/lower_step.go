package codegen

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/wasm"
)

// step lowers one reachable wasm instruction, returning the next pc.
func (lo *lowerer) step(pc int, in *wasm.Instr) (int, error) {
	switch in.Op {
	case wasm.OpNop:
	case wasm.OpUnreachable:
		lo.terminate(ins(ir.Trap))

	case wasm.OpBlock:
		fr := lctrl{op: wasm.OpBlock, follow: lo.newBlock(), stackH: len(lo.stack), resultV: ir.NoV}
		if in.Block.HasResult {
			fr.resType = in.Block.Result
			fr.resultV = lo.newV(in.Block.Result)
		}
		lo.ctrls = append(lo.ctrls, fr)

	case wasm.OpLoop:
		fr := lctrl{op: wasm.OpLoop, follow: lo.newBlock(), stackH: len(lo.stack), resultV: ir.NoV}
		if in.Block.HasResult {
			fr.resType = in.Block.Result
			fr.resultV = lo.newV(in.Block.Result)
		}
		if lo.cfg.RotateLoops {
			if seq, exit, next, ok := lo.scanRotatable(pc); ok {
				// Guard + bottom-test rotation. Push the frame first so
				// branch depths inside the test resolve correctly.
				fr.rotated = true
				fr.rotTest = seq
				fr.rotExit = exit
				fr.body = lo.newBlock()
				lo.ctrls = append(lo.ctrls, fr)
				// Lower the guard: test once before entering the loop.
				for i := range seq {
					if _, err := lo.step(-1, &seq[i]); err != nil {
						return 0, err
					}
				}
				t := lo.fuseCond(lo.pop())
				t.Targets = lo.targets2(lo.ctrls[exit].follow.ID, fr.body.ID)
				lo.emit(t)
				lo.startBlock(fr.body)
				return next, nil
			}
		}
		fr.header = lo.newBlock()
		lo.ctrls = append(lo.ctrls, fr)
		lo.emitJump(fr.header)
		lo.startBlock(fr.header)

	case wasm.OpIf:
		cond := lo.pop()
		fr := lctrl{op: wasm.OpIf, follow: lo.newBlock(), elseB: lo.newBlock(), stackH: len(lo.stack), resultV: ir.NoV}
		if in.Block.HasResult {
			fr.resType = in.Block.Result
			fr.resultV = lo.newV(in.Block.Result)
		}
		thenB := lo.newBlock()
		t := lo.fuseCond(cond)
		t.Targets = lo.targets2(thenB.ID, fr.elseB.ID)
		lo.emit(t)
		lo.ctrls = append(lo.ctrls, fr)
		lo.startBlock(thenB)

	case wasm.OpElse:
		fr := &lo.ctrls[len(lo.ctrls)-1]
		fr.sawElse = true
		// Close the then-arm: move result, jump to follow.
		if fr.resultV != ir.NoV {
			mv := ins(ir.Mov)
			mv.Dst = fr.resultV
			mv.A = lo.pop()
			mv.W = widthOf(fr.resType)
			lo.emit(mv)
		}
		lo.emitJump(fr.follow)
		lo.stack = lo.stack[:fr.stackH]
		lo.startBlock(fr.elseB)

	case wasm.OpEnd:
		fr := lo.ctrls[len(lo.ctrls)-1]
		lo.ctrls = lo.ctrls[:len(lo.ctrls)-1]
		if fr.op == 0 {
			// Function end: emit return with the value on the stack.
			t := ins(ir.Ret)
			if fr.resultV != ir.NoV {
				t.A = lo.pop()
			}
			lo.emit(t)
			lo.dead = true
			return pc + 1, nil
		}
		if fr.resultV != ir.NoV {
			mv := ins(ir.Mov)
			mv.Dst = fr.resultV
			mv.A = lo.pop()
			mv.W = widthOf(fr.resType)
			lo.emit(mv)
		}
		if fr.op == wasm.OpIf && !fr.sawElse {
			// Empty else arm: jump straight to follow.
			lo.emitJump(fr.follow)
			lo.startBlock(fr.elseB)
		}
		lo.emitJump(fr.follow)
		lo.stack = lo.stack[:fr.stackH]
		lo.startBlock(fr.follow)
		if fr.resultV != ir.NoV {
			lo.push(fr.resultV)
		}

	case wasm.OpBr:
		if err := lo.branchToFrame(int(in.I64)); err != nil {
			return 0, err
		}
		lo.dead = true

	case wasm.OpBrIf:
		cond := lo.pop()
		fr := lo.frameAt(int(in.I64))
		cont := lo.newBlock()
		switch {
		case fr.op == wasm.OpLoop && fr.rotated:
			// Conditional back-edge into a rotated loop: branch to a
			// trampoline that re-runs the test.
			tramp := lo.newBlock()
			t := lo.fuseCond(cond)
			t.Targets = lo.targets2(tramp.ID, cont.ID)
			lo.emit(t)
			lo.startBlock(tramp)
			if err := lo.emitRotatedBackedge(fr); err != nil {
				return 0, err
			}
			lo.startBlock(cont)
		case fr.resultV != ir.NoV:
			// Value-carrying conditional branch: trampoline does the move.
			tramp := lo.newBlock()
			t := lo.fuseCond(cond)
			t.Targets = lo.targets2(tramp.ID, cont.ID)
			lo.emit(t)
			lo.startBlock(tramp)
			mv := ins(ir.Mov)
			mv.Dst = fr.resultV
			mv.A = lo.stack[len(lo.stack)-1]
			mv.W = widthOf(fr.resType)
			lo.emit(mv)
			lo.emitJump(fr.follow)
			lo.startBlock(cont)
		default:
			var target int
			switch {
			case fr.op == wasm.OpLoop:
				target = fr.header.ID
			case fr.op == 0:
				// br_if to the function frame: conditional return.
				tramp := lo.newBlock()
				t := lo.fuseCond(cond)
				t.Targets = lo.targets2(tramp.ID, cont.ID)
				lo.emit(t)
				lo.startBlock(tramp)
				rt := ins(ir.Ret)
				if fr.resultV != ir.NoV {
					rt.A = lo.stack[len(lo.stack)-1]
				}
				lo.emit(rt)
				lo.startBlock(cont)
				return pc + 1, nil
			default:
				target = fr.follow.ID
			}
			t := lo.fuseCond(cond)
			t.Targets = lo.targets2(target, cont.ID)
			lo.emit(t)
			lo.startBlock(cont)
		}

	case wasm.OpBrTable:
		idx := lo.pop()
		t := ins(ir.BrTable)
		t.A = idx
		tbl := lo.brTabs[in.I64]
		t.Targets = lo.sc.arena.Targets(len(tbl))[:0]
		for _, d := range tbl {
			fr := lo.frameAt(int(d))
			var tb int
			switch {
			case fr.op == wasm.OpLoop && fr.rotated:
				tramp := lo.newBlock()
				save := lo.cur
				lo.startBlock(tramp)
				if err := lo.emitRotatedBackedge(fr); err != nil {
					return 0, err
				}
				lo.startBlock(save)
				tb = tramp.ID
			case fr.op == wasm.OpLoop:
				tb = fr.header.ID
			case fr.op == 0:
				tramp := lo.newBlock()
				save := lo.cur
				lo.startBlock(tramp)
				rt := ins(ir.Ret)
				if fr.resultV != ir.NoV {
					rt.A = lo.stack[len(lo.stack)-1]
				}
				lo.emit(rt)
				lo.startBlock(save)
				tb = tramp.ID
			case fr.resultV != ir.NoV:
				tramp := lo.newBlock()
				save := lo.cur
				lo.startBlock(tramp)
				mv := ins(ir.Mov)
				mv.Dst = fr.resultV
				mv.A = lo.stack[len(lo.stack)-1]
				mv.W = widthOf(fr.resType)
				lo.emit(mv)
				lo.emitJump(fr.follow)
				lo.startBlock(save)
				tb = tramp.ID
			default:
				tb = fr.follow.ID
			}
			t.Targets = append(t.Targets, tb)
		}
		lo.terminate(t)

	case wasm.OpReturn:
		t := ins(ir.Ret)
		if lo.ctrls[0].resultV != ir.NoV {
			t.A = lo.pop()
		}
		lo.terminate(t)

	case wasm.OpCall:
		return pc + 1, lo.lowerCall(uint32(in.I64))

	case wasm.OpCallIndirect:
		return pc + 1, lo.lowerCallIndirect(int(in.I64))

	case wasm.OpDrop:
		lo.pop()

	case wasm.OpSelect:
		c := lo.pop()
		b := lo.pop()
		a := lo.pop()
		t := lo.vtypeOf(a)
		dst := lo.newV(t)
		s := ins(ir.Select)
		s.Dst = dst
		s.A = c
		s.B = a
		s.Extra = b
		s.W = widthOf(t)
		lo.emit(s)
		lo.push(dst)

	case wasm.OpLocalGet:
		lo.push(lo.locals[in.I64])

	case wasm.OpLocalSet:
		v := lo.locals[in.I64]
		lo.protectLocal(v)
		mv := ins(ir.Mov)
		mv.Dst = v
		mv.A = lo.pop()
		mv.W = widthOf(lo.vtypeOf(v))
		lo.emit(mv)

	case wasm.OpLocalTee:
		v := lo.locals[in.I64]
		lo.protectLocal(v)
		mv := ins(ir.Mov)
		mv.Dst = v
		mv.A = lo.stack[len(lo.stack)-1]
		mv.W = widthOf(lo.vtypeOf(v))
		lo.emit(mv)
		// The stack keeps the source value; it is equivalent to keep the
		// original vreg (it is not a local, or protectLocal copied it).

	case wasm.OpGlobalGet:
		gt, err := lo.m.GlobalTypeAt(uint32(in.I64))
		if err != nil {
			return 0, err
		}
		dst := lo.newV(gt.Type)
		g := ins(ir.GlobalLd)
		g.Dst = dst
		g.Imm = in.I64
		g.W = widthOf(gt.Type)
		lo.emit(g)
		lo.push(dst)

	case wasm.OpGlobalSet:
		gt, err := lo.m.GlobalTypeAt(uint32(in.I64))
		if err != nil {
			return 0, err
		}
		g := ins(ir.GlobalSt)
		g.A = lo.pop()
		g.Imm = in.I64
		g.W = widthOf(gt.Type)
		lo.emit(g)

	case wasm.OpMemorySize:
		dst := lo.newV(wasm.I32)
		g := ins(ir.MemSize)
		g.Dst = dst
		lo.emit(g)
		lo.push(dst)

	case wasm.OpMemoryGrow:
		dst := lo.newV(wasm.I32)
		g := ins(ir.MemGrow)
		g.Dst = dst
		g.A = lo.pop()
		lo.emit(g)
		lo.push(dst)

	case wasm.OpI32Const:
		dst := lo.newV(wasm.I32)
		c := ins(ir.Const)
		c.Dst = dst
		c.Imm = int64(int32(in.I64))
		c.W = 4
		lo.emit(c)
		lo.push(dst)

	case wasm.OpI64Const:
		dst := lo.newV(wasm.I64)
		c := ins(ir.Const)
		c.Dst = dst
		c.Imm = in.I64
		c.W = 8
		lo.emit(c)
		lo.push(dst)

	case wasm.OpF32Const:
		dst := lo.newV(wasm.F32)
		c := ins(ir.FConst)
		c.Dst = dst
		c.F64 = in.F64
		c.W = 4
		lo.emit(c)
		lo.push(dst)

	case wasm.OpF64Const:
		dst := lo.newV(wasm.F64)
		c := ins(ir.FConst)
		c.Dst = dst
		c.F64 = in.F64
		c.W = 8
		lo.emit(c)
		lo.push(dst)

	default:
		if in.Op.IsMemAccess() {
			lo.lowerMemAccess(in)
			return pc + 1, nil
		}
		if err := lo.lowerNumeric(in.Op); err != nil {
			return 0, err
		}
	}
	return pc + 1, nil
}

// lowerCall lowers a direct call to import-space function index callee.
func (lo *lowerer) lowerCall(callee uint32) error {
	ft, err := lo.m.FuncTypeAt(callee)
	if err != nil {
		return err
	}
	nargs := len(ft.Params)
	args := lo.sc.arena.VRegs(nargs)
	for i := nargs - 1; i >= 0; i-- {
		args[i] = lo.pop()
	}
	c := ins(ir.Call)
	if int(callee) < lo.nimp {
		c.Op = ir.CallHost
		c.Callee = int(callee)
	} else {
		c.Callee = int(callee) - lo.nimp
	}
	c.Args = args
	if len(ft.Results) > 0 {
		dst := lo.newV(ft.Results[0])
		c.Dst = dst
		c.W = widthOf(ft.Results[0])
		lo.emit(c)
		lo.push(dst)
	} else {
		lo.emit(c)
	}
	return nil
}

// lowerCallIndirect lowers call_indirect with signature index sig.
func (lo *lowerer) lowerCallIndirect(sig int) error {
	ft := lo.m.Types[sig]
	idx := lo.pop()
	nargs := len(ft.Params)
	args := lo.sc.arena.VRegs(nargs)
	for i := nargs - 1; i >= 0; i-- {
		args[i] = lo.pop()
	}
	c := ins(ir.CallInd)
	c.A = idx
	c.SigID = sig
	c.Args = args
	if len(ft.Results) > 0 {
		dst := lo.newV(ft.Results[0])
		c.Dst = dst
		c.W = widthOf(ft.Results[0])
		lo.emit(c)
		lo.push(dst)
	} else {
		lo.emit(c)
	}
	return nil
}

// lowerMemAccess lowers loads and stores.
func (lo *lowerer) lowerMemAccess(in *wasm.Instr) {
	kind, vt := loadKindOf(in.Op)
	if in.Op.IsLoad() {
		addr := lo.pop()
		dst := lo.newV(vt)
		l := ins(ir.Load)
		l.Dst = dst
		l.A = addr
		l.Off = int32(in.Offset)
		l.Kind = kind
		l.W = widthOf(vt)
		lo.emit(l)
		lo.push(dst)
		return
	}
	val := lo.pop()
	addr := lo.pop()
	s := ins(ir.Store)
	s.A = addr
	s.B = val
	s.Off = int32(in.Offset)
	s.Kind = kind
	s.W = widthOf(lo.vtypeOf(val))
	lo.emit(s)
}

// loadKindOf maps a wasm memory opcode to (LoadKind, result/operand type).
func loadKindOf(op wasm.Opcode) (ir.LoadKind, wasm.ValType) {
	switch op {
	case wasm.OpI32Load, wasm.OpI32Store:
		return ir.L32, wasm.I32
	case wasm.OpI64Load, wasm.OpI64Store:
		return ir.L64, wasm.I64
	case wasm.OpF32Load, wasm.OpF32Store:
		return ir.LF32, wasm.F32
	case wasm.OpF64Load, wasm.OpF64Store:
		return ir.LF64, wasm.F64
	case wasm.OpI32Load8S:
		return ir.L8S, wasm.I32
	case wasm.OpI32Load8U, wasm.OpI32Store8:
		return ir.L8U, wasm.I32
	case wasm.OpI32Load16S:
		return ir.L16S, wasm.I32
	case wasm.OpI32Load16U, wasm.OpI32Store16:
		return ir.L16U, wasm.I32
	case wasm.OpI64Load8S:
		return ir.L8S, wasm.I64
	case wasm.OpI64Load8U, wasm.OpI64Store8:
		return ir.L8U, wasm.I64
	case wasm.OpI64Load16S:
		return ir.L16S, wasm.I64
	case wasm.OpI64Load16U, wasm.OpI64Store16:
		return ir.L16U, wasm.I64
	case wasm.OpI64Load32S:
		return ir.L32S, wasm.I64
	case wasm.OpI64Load32U, wasm.OpI64Store32:
		return ir.L32U, wasm.I64
	}
	panic(fmt.Sprintf("not a memory access: %s", wasm.OpName(op)))
}
