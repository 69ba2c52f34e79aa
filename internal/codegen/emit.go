package codegen

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/regalloc"
	"repro/internal/x86"
)

// emitter lowers one allocated IR function to x86, into a per-function
// fragment program. Fragment-local control flow uses negative label ids
// allocated by newLabel; the only positive label an emitter touches is the
// function's pre-assigned entry label. Compile merges the fragments in
// function order and resolves both kinds to global instruction indices, so
// the merged stream is byte-identical no matter how many workers emitted.
type emitter struct {
	ctx  *moduleCtx
	cfg  *EngineConfig
	f    *ir.Func
	ra   *regalloc.Result
	sc   *compileScratch
	prog *x86.Program // the fragment being emitted into

	blockLabel []int
	epilogueL  int
	trapL      int
	localL     int // fragment-local label allocator; ids count down from -1
	uses       []int
	skip       map[*ir.Ins]bool // instructions folded into others
	rmwAt      map[*ir.Ins]*rmwInfo
	fusedMem   map[*ir.Ins]x86.Mem
	loopHead   []bool
	constVals  map[ir.VReg]int64 // single-def Const vregs; built lazily by constOf
}

// constOf reports the compile-time constant value of v: v must have exactly
// one definition in the function, and that definition must be a Const.
func (e *emitter) constOf(v ir.VReg) (int64, bool) {
	if e.constVals == nil {
		defs := map[ir.VReg]int{}
		vals := map[ir.VReg]int64{}
		for _, b := range e.f.Blocks {
			for i := range b.Ins {
				in := &b.Ins[i]
				if in.Dst == ir.NoV {
					continue
				}
				defs[in.Dst]++
				if in.Op == ir.Const {
					vals[in.Dst] = in.Imm
				}
			}
		}
		e.constVals = map[ir.VReg]int64{}
		for dst, n := range defs {
			if n == 1 {
				if imm, ok := vals[dst]; ok {
					e.constVals[dst] = imm
				}
			}
		}
	}
	imm, ok := e.constVals[v]
	return imm, ok
}

type rmwInfo struct {
	op   ir.Op
	binB ir.VReg
	imm  int64
	hasB bool
	w    uint8
}

// newLabel allocates a fragment-local label (negative, so it can never
// collide with a function entry label).
func (e *emitter) newLabel() int {
	e.localL--
	return e.localL
}

func (e *emitter) emit(in x86.Inst) { e.prog.Append(in) }

// emitNote emits in with a listing note (Fig 7 style).
func (e *emitter) emitNote(in x86.Inst, note string) { e.prog.AppendNote(in, note) }

func (e *emitter) s0() x86.Reg { return e.cfg.Scratch[0] }
func (e *emitter) s1() x86.Reg { return e.cfg.Scratch[1] }
func (e *emitter) sf() x86.Reg { return e.cfg.ScratchF }

// spillMem returns the frame slot operand for spill slot s.
func (e *emitter) spillMem(s int) x86.Operand {
	return x86.MB(x86.RBP, int32(-8-8*s))
}

func (e *emitter) loc(v ir.VReg) regalloc.Location { return e.ra.Loc[v] }

// readGP materializes GP vreg v into a register, using the given scratch if
// it is spilled.
func (e *emitter) readGP(v ir.VReg, scratch x86.Reg, w uint8) x86.Reg {
	l := e.loc(v)
	switch l.Kind {
	case regalloc.LocReg:
		return l.Reg
	case regalloc.LocSpill:
		e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(scratch), Src: e.spillMem(l.Slot)})
		return scratch
	}
	// Dead value (e.g. unused param): any register works; zero scratch.
	e.emit(x86.Inst{Op: x86.OXor, W: 4, Dst: x86.R(scratch), Src: x86.R(scratch)})
	return scratch
}

// readGPOperand returns v as an instruction operand: its register, or its
// spill slot directly when the engine fuses spill operands, else a reload.
func (e *emitter) readGPOperand(v ir.VReg, scratch x86.Reg) x86.Operand {
	l := e.loc(v)
	if l.Kind == regalloc.LocSpill && e.cfg.SpillOperandFusion {
		return e.spillMem(l.Slot)
	}
	return x86.R(e.readGP(v, scratch, 8))
}

// readFP materializes FP vreg v into an XMM register.
func (e *emitter) readFP(v ir.VReg, w uint8) x86.Reg {
	l := e.loc(v)
	switch l.Kind {
	case regalloc.LocReg:
		return l.Reg
	case regalloc.LocSpill:
		e.emit(x86.Inst{Op: x86.OMovsd, W: w, Dst: x86.R(e.sf()), Src: e.spillMem(l.Slot)})
		return e.sf()
	}
	e.emit(x86.Inst{Op: x86.OXorpd, W: 8, Dst: x86.R(e.sf()), Src: x86.R(e.sf())})
	return e.sf()
}

// readFPOperand returns v as an SSE instruction operand. Spilled FP values
// are always used as memory operands (scalar SSE ops take them directly),
// which also keeps the single FP scratch free for the destination.
func (e *emitter) readFPOperand(v ir.VReg, w uint8) x86.Operand {
	l := e.loc(v)
	if l.Kind == regalloc.LocSpill {
		return e.spillMem(l.Slot)
	}
	return x86.R(e.readFP(v, w))
}

// dstGP returns the register to compute a GP result in, plus a flush func
// that stores it back if the vreg is spilled.
func (e *emitter) dstGP(v ir.VReg) (x86.Reg, func()) {
	l := e.loc(v)
	switch l.Kind {
	case regalloc.LocReg:
		return l.Reg, func() {}
	case regalloc.LocSpill:
		s := e.s0()
		return s, func() {
			e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: e.spillMem(l.Slot), Src: x86.R(s)})
		}
	}
	return e.s0(), func() {} // dead
}

func (e *emitter) dstFP(v ir.VReg) (x86.Reg, func()) {
	l := e.loc(v)
	switch l.Kind {
	case regalloc.LocReg:
		return l.Reg, func() {}
	case regalloc.LocSpill:
		s := e.sf()
		return s, func() {
			e.emit(x86.Inst{Op: x86.OMovsd, W: 8, Dst: e.spillMem(l.Slot), Src: x86.R(s)})
		}
	}
	return e.sf(), func() {}
}

// emitFunc emits the whole function into the fragment and records FuncInfo.
func (e *emitter) emitFunc() error {
	f := e.f
	sc := e.sc
	e.prog.Reset()
	e.localL = 0
	start := len(e.prog.Code)

	// Nop padding (Chrome pads function entries).
	if e.cfg.NopPad > 0 {
		for i := 0; i < e.cfg.NopPad/8; i++ {
			e.emit(x86.Inst{Op: x86.ONop})
		}
	}

	entry := e.ctx.funcLabel[f.Index]
	e.prog.Bind(entry)

	sc.blockLabel = growSlice(sc.blockLabel, len(f.Blocks))
	e.blockLabel = sc.blockLabel
	for i := range f.Blocks {
		e.blockLabel[i] = e.newLabel()
	}
	e.epilogueL = e.newLabel()
	e.trapL = e.newLabel()
	sc.useBuf = useCountsInto(sc.useBuf, f)
	e.uses = sc.useBuf
	clear(sc.skip)
	clear(sc.rmwAt)
	clear(sc.fusedMem)
	sc.rmwInfos = sc.rmwInfos[:0]
	e.skip = sc.skip
	e.rmwAt = sc.rmwAt
	e.fusedMem = sc.fusedMem
	sc.loopHead = growSlice(sc.loopHead, len(f.Blocks))
	e.loopHead = sc.loopHead
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if s <= b.ID {
				e.loopHead[s] = true
			}
		}
	}

	e.prologue()

	for bi, b := range f.Blocks {
		e.prog.Bind(e.blockLabel[b.ID])
		if e.cfg.LoopEntryJump && e.loopHead[b.ID] {
			// Chrome's loop shape: the back edge lands on a reload point
			// that the entry path jumps over (Figure 7c lines 5-10).
			after := e.newLabel()
			e.emitNote(x86.Inst{Op: x86.OJmp, Target: after}, "loop entry")
			e.emitNote(x86.Inst{Op: x86.ONop}, "reload point")
			e.prog.Bind(after)
		}
		if err := e.emitBlock(b, bi); err != nil {
			return fmt.Errorf("%s b%d: %w", f.Name, b.ID, err)
		}
	}

	// Epilogue.
	e.prog.Bind(e.epilogueL)
	e.restoreCalleeSaved()
	e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(x86.RSP), Src: x86.R(x86.RBP)})
	e.emit(x86.Inst{Op: x86.OPop, W: 8, Dst: x86.R(x86.RBP)})
	e.emit(x86.Inst{Op: x86.ORet})

	// Shared trap (out-of-line, like the engines' OOL trap stubs).
	e.prog.Bind(e.trapL)
	e.emit(x86.Inst{Op: x86.OUd2})

	e.prog.Funcs = append(e.prog.Funcs, x86.FuncInfo{
		Name:  f.Name,
		Label: entry,
		Start: start,
		End:   len(e.prog.Code),
		SigID: f.SigID,
	})
	return nil
}

// frameSlots returns spill slots + callee-saved save area + 2 fixed slots
// for the rax/rdx/rcx save dance around div/shift.
func (e *emitter) frameSlots() int {
	return e.ra.NumSlots + len(e.ra.UsedCallee) + 2
}

func (e *emitter) csSlot(i int) int  { return e.ra.NumSlots + i }
func (e *emitter) divSlot(i int) int { return e.ra.NumSlots + len(e.ra.UsedCallee) + i }

func (e *emitter) prologue() {
	// Stack-overflow check (§6.2.2): every wasm function entry compares
	// rsp against the engine's stack limit.
	if e.cfg.StackCheck {
		e.emitNote(x86.Inst{
			Op: x86.OCmp, W: 8,
			Dst: x86.R(x86.RSP),
			Src: absMem(x86.StackLimitAddr),
		}, "stack check")
		e.emitNote(x86.Inst{Op: x86.OJcc, CC: x86.CCBE, Target: e.trapL}, "stack overflow")
	}
	e.emit(x86.Inst{Op: x86.OPush, W: 8, Dst: x86.R(x86.RBP)})
	e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(x86.RBP), Src: x86.R(x86.RSP)})
	fs := e.frameSlots()
	if fs > 0 {
		e.emit(x86.Inst{Op: x86.OSub, W: 8, Dst: x86.R(x86.RSP), Src: x86.Imm(int64(fs) * 8)})
	}
	for i, r := range e.ra.UsedCallee {
		e.emitNote(x86.Inst{Op: x86.OMov, W: 8, Dst: e.spillMem(e.csSlot(i)), Src: x86.R(r)}, "save callee-saved")
	}

	// Move parameters from argument registers / caller stack into their
	// assigned locations.
	moves := e.sc.pmoves[:0]
	gi, fi, si := 0, 0, 0
	for _, p := range e.f.Params {
		cls := e.f.Class[p]
		l := e.loc(p)
		var src x86.Operand
		fp := cls == ir.FP
		if fp {
			if fi < len(e.cfg.ArgFP) {
				src = x86.R(e.cfg.ArgFP[fi])
				fi++
			} else {
				src = x86.MB(x86.RBP, int32(16+8*si))
				si++
			}
		} else {
			if gi < len(e.cfg.ArgGP) {
				src = x86.R(e.cfg.ArgGP[gi])
				gi++
			} else {
				src = x86.MB(x86.RBP, int32(16+8*si))
				si++
			}
		}
		if l.Kind == regalloc.LocNone {
			continue
		}
		var dst x86.Operand
		if l.Kind == regalloc.LocReg {
			dst = x86.R(l.Reg)
		} else {
			dst = e.spillMem(l.Slot)
		}
		moves = append(moves, pmove{dst: dst, src: src, fp: fp})
	}
	e.sc.pmoves = moves[:0]
	e.parallelMoves(moves)
}

func (e *emitter) restoreCalleeSaved() {
	for i, r := range e.ra.UsedCallee {
		e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(r), Src: e.spillMem(e.csSlot(i))})
	}
}

// pmove is one move for the parallel-move resolver.
type pmove struct {
	dst, src x86.Operand
	fp       bool
}

// parallelMoves emits moves such that no source register is clobbered before
// it is read, breaking cycles with the scratch registers.
func (e *emitter) parallelMoves(moves []pmove) {
	emitMove := func(m pmove) {
		op := x86.OMov
		if m.fp {
			op = x86.OMovsd
		}
		if m.dst.Kind == x86.KMem && m.src.Kind == x86.KMem {
			// mem->mem goes through scratch. Scratch 0 is used so that an
			// indirect-call target staged in scratch 1 survives the moves.
			s := e.s0()
			sop := x86.OMov
			if m.fp {
				s = e.sf()
				sop = x86.OMovsd
			}
			e.emit(x86.Inst{Op: sop, W: 8, Dst: x86.R(s), Src: m.src})
			e.emit(x86.Inst{Op: sop, W: 8, Dst: m.dst, Src: x86.R(s)})
			return
		}
		e.emit(x86.Inst{Op: op, W: 8, Dst: m.dst, Src: m.src})
	}
	pending := append(e.sc.pending[:0], moves...)
	e.sc.pending = pending[:0]
	for len(pending) > 0 {
		progressed := false
		for i := 0; i < len(pending); i++ {
			m := pending[i]
			if m.dst.Kind == x86.KReg {
				blocked := false
				for j, o := range pending {
					if j != i && o.src.Kind == x86.KReg && o.src.Reg == m.dst.Reg {
						blocked = true
						break
					}
				}
				if blocked {
					continue
				}
			}
			emitMove(m)
			pending = append(pending[:i], pending[i+1:]...)
			progressed = true
			i--
		}
		if !progressed {
			// Cycle among registers: save the first destination into a
			// scratch and redirect its readers there.
			m := pending[0]
			s := e.s0()
			op := x86.OMov
			if m.fp {
				s = e.sf()
				op = x86.OMovsd
			}
			e.emit(x86.Inst{Op: op, W: 8, Dst: x86.R(s), Src: x86.R(m.dst.Reg)})
			for j := range pending {
				if pending[j].src.Kind == x86.KReg && pending[j].src.Reg == m.dst.Reg {
					pending[j].src = x86.R(s)
				}
			}
		}
	}
}

// nextBlockID returns the id of the block emitted after index bi, or -1.
func (e *emitter) nextBlockID(bi int) int {
	if bi+1 < len(e.f.Blocks) {
		return e.f.Blocks[bi+1].ID
	}
	return -1
}

func (e *emitter) jumpTo(block int, bi int) {
	if block != e.nextBlockID(bi) {
		e.emit(x86.Inst{Op: x86.OJmp, Target: e.blockLabel[block]})
	}
}

func (e *emitter) emitBlock(b *ir.Block, bi int) error {
	e.fuseAddressesInBlock(b)
	for i := 0; i < len(b.Ins); i++ {
		in := &b.Ins[i]
		if e.skip[in] {
			continue
		}
		// Detect native read-modify-write fusion.
		if e.cfg.FuseRMW && in.Op == ir.Load && i+2 < len(b.Ins) {
			e.tryRMW(b, i)
			if e.skip[in] {
				continue
			}
		}
		if err := e.emitIns(b, i, bi); err != nil {
			return err
		}
	}
	return nil
}

// tryRMW looks for Load t=[a+off]; op u=t,x; Store [a+off]=u and marks the
// load and op as fused into the store.
func (e *emitter) tryRMW(b *ir.Block, i int) {
	ld := &b.Ins[i]
	op := &b.Ins[i+1]
	st := &b.Ins[i+2]
	switch op.Op {
	case ir.Add, ir.Sub, ir.And, ir.Or, ir.Xor:
	default:
		return
	}
	if st.Op != ir.Store || ld.Op != ir.Load {
		return
	}
	if ld.Kind != ir.L32 && ld.Kind != ir.L64 {
		return
	}
	if st.Kind != ld.Kind || st.A != ld.A || st.Off != ld.Off || st.B != op.Dst {
		return
	}
	if op.A != ld.Dst || e.uses[ld.Dst] != 1 || e.uses[op.Dst] != 1 {
		return
	}
	info := rmwInfo{op: op.Op, w: op.W}
	if op.B != ir.NoV {
		info.binB = op.B
		info.hasB = true
	} else {
		info.imm = op.Imm
	}
	e.sc.rmwInfos = append(e.sc.rmwInfos, info)
	e.skip[ld] = true
	e.skip[op] = true
	e.rmwAt[st] = &e.sc.rmwInfos[len(e.sc.rmwInfos)-1]
}
