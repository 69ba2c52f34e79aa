package codegen

import (
	"repro/internal/ir"
	"repro/internal/regalloc"
	"repro/internal/x86"
)

// emitCall handles Call, CallHost, and CallInd.
func (e *emitter) emitCall(in *ir.Ins) {
	// For indirect calls, load and check the target before argument moves
	// so the index register cannot be clobbered by the argument shuffle.
	if in.Op == ir.CallInd {
		idx := e.readGP(in.A, e.s1(), 4)
		if idx != e.s1() {
			e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(e.s1()), Src: x86.R(idx)})
		}
		if e.cfg.IndirectCheck {
			// Table bounds check (§6.2.3).
			e.emitNote(x86.Inst{Op: x86.OCmp, W: 4, Dst: x86.R(e.s1()), Src: x86.Imm(int64(e.ctx.tableSize))}, "table bounds")
			e.emit(x86.Inst{Op: x86.OJcc, CC: x86.CCAE, Target: e.trapL})
		}
		e.emit(x86.Inst{Op: x86.OShl, W: 8, Dst: x86.R(e.s1()), Src: x86.Imm(4)}) // *16
	}

	e.setupArgs(in.Args)

	switch in.Op {
	case ir.Call:
		e.emit(x86.Inst{Op: x86.OCall, Target: e.ctx.funcLabel[in.Callee]})
	case ir.CallHost:
		e.emitNote(x86.Inst{Op: x86.OCallHost, Host: int32(in.Callee)}, e.ctx.hostName(in.Callee))
	case ir.CallInd:
		tbase := uint32(x86.TableBase)
		tb := x86.Mem{Base: x86.NoReg, Index: e.s1(), Scale: 1, Disp: int32(tbase)}
		if e.cfg.IndirectCheck {
			// Signature check: table entry holds [sig, entry].
			e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(e.s0()), Src: x86.M(tb)})
			e.emitNote(x86.Inst{Op: x86.OCmp, W: 8, Dst: x86.R(e.s0()), Src: x86.Imm(int64(in.SigID))}, "sig check")
			e.emit(x86.Inst{Op: x86.OJcc, CC: x86.CCNE, Target: e.trapL})
		}
		entry := tb
		entry.Disp += 8
		e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(e.s0()), Src: x86.M(entry)})
		e.emit(x86.Inst{Op: x86.OCallR, W: 8, Dst: x86.R(e.s0())})
	}

	// Stack-arg cleanup.
	if n := e.stackArgCount(in.Args); n > 0 {
		e.emit(x86.Inst{Op: x86.OAdd, W: 8, Dst: x86.R(x86.RSP), Src: x86.Imm(int64(n) * 8)})
	}

	if in.Dst != ir.NoV {
		e.storeCallResult(in.Dst, e.f.Class[in.Dst] == ir.FP)
	}
}

func (e *emitter) stackArgCount(args []ir.VReg) int {
	gi, fi, si := 0, 0, 0
	for _, a := range args {
		if e.f.Class[a] == ir.FP {
			if fi < len(e.cfg.ArgFP) {
				fi++
			} else {
				si++
			}
		} else {
			if gi < len(e.cfg.ArgGP) {
				gi++
			} else {
				si++
			}
		}
	}
	return si
}

// setupArgs moves argument vregs into the calling convention's registers and
// stack slots.
func (e *emitter) setupArgs(args []ir.VReg) {
	nStack := e.stackArgCount(args)
	if nStack > 0 {
		e.emit(x86.Inst{Op: x86.OSub, W: 8, Dst: x86.R(x86.RSP), Src: x86.Imm(int64(nStack) * 8)})
	}
	// The pmoves staging buffer is idle outside prologue(), which never
	// emits calls; parallelMoves copies into the separate pending buffer.
	moves := e.sc.pmoves[:0]
	gi, fi, si := 0, 0, 0
	for _, a := range args {
		fp := e.f.Class[a] == ir.FP
		var src x86.Operand
		l := e.loc(a)
		switch l.Kind {
		case regalloc.LocReg:
			src = x86.R(l.Reg)
		case regalloc.LocSpill:
			src = e.spillMem(l.Slot)
		default:
			src = x86.Imm(0) // dead value; pass zero
		}
		var dstReg x86.Reg = x86.NoReg
		stackSlot := -1
		if fp {
			if fi < len(e.cfg.ArgFP) {
				dstReg = e.cfg.ArgFP[fi]
				fi++
			} else {
				stackSlot = si
				si++
			}
		} else {
			if gi < len(e.cfg.ArgGP) {
				dstReg = e.cfg.ArgGP[gi]
				gi++
			} else {
				stackSlot = si
				si++
			}
		}
		if stackSlot >= 0 {
			// Stack args are written immediately (before register moves
			// could clobber sources? No: register moves happen after, and
			// these stores read sources from their original locations,
			// which register moves have not touched yet).
			dst := x86.MB(x86.RSP, int32(stackSlot*8))
			if src.Kind == x86.KImm {
				e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: dst, Src: src})
			} else if fp {
				s := e.readFP(a, 8)
				e.emit(x86.Inst{Op: x86.OMovsd, W: 8, Dst: dst, Src: x86.R(s)})
			} else {
				s := e.readGP(a, e.s0(), 8)
				e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: dst, Src: x86.R(s)})
			}
			continue
		}
		if src.Kind == x86.KImm {
			e.emit(x86.Inst{Op: x86.OXor, W: 4, Dst: x86.R(dstReg), Src: x86.R(dstReg)})
			continue
		}
		moves = append(moves, pmove{dst: x86.R(dstReg), src: src, fp: fp})
	}
	e.sc.pmoves = moves[:0]
	e.parallelMoves(moves)
}

// storeCallResult moves rax/xmm0 into the destination location.
func (e *emitter) storeCallResult(dst ir.VReg, fp bool) {
	l := e.loc(dst)
	if l.Kind == regalloc.LocNone {
		return
	}
	if fp {
		switch l.Kind {
		case regalloc.LocReg:
			if l.Reg != x86.XMM0 {
				e.emit(x86.Inst{Op: x86.OMovsd, W: 8, Dst: x86.R(l.Reg), Src: x86.R(x86.XMM0)})
			}
		case regalloc.LocSpill:
			e.emit(x86.Inst{Op: x86.OMovsd, W: 8, Dst: e.spillMem(l.Slot), Src: x86.R(x86.XMM0)})
		}
		return
	}
	switch l.Kind {
	case regalloc.LocReg:
		if l.Reg != x86.RAX {
			e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(l.Reg), Src: x86.R(x86.RAX)})
		}
	case regalloc.LocSpill:
		e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: e.spillMem(l.Slot), Src: x86.R(x86.RAX)})
	}
}
