package codegen

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/wasm"
)

// classOf maps a wasm value type to a register class.
func classOf(t wasm.ValType) ir.Class {
	if t.IsFloat() {
		return ir.FP
	}
	return ir.GP
}

func widthOf(t wasm.ValType) uint8 {
	switch t {
	case wasm.I64, wasm.F64:
		return 8
	}
	return 4
}

// lctrl is a structured-control frame during lowering.
type lctrl struct {
	op      wasm.Opcode // OpBlock, OpLoop, OpIf; 0 = function frame
	follow  *ir.Block   // continuation after end
	header  *ir.Block   // loop header (branch target)
	elseB   *ir.Block
	sawElse bool
	resultV ir.VReg // carries the block result (NoV when none)
	resType wasm.ValType
	stackH  int

	// skipped marks frames opened inside unreachable code.
	skipped bool

	// Rotated-loop support (native config).
	rotated bool
	rotTest []wasm.Instr // the pure test sequence re-evaluated at latches
	rotExit int          // index in ctrls of the exit frame, which stays put while the loop is open
	body    *ir.Block    // rotated loop body (back-edge target)
}

// lowerer converts one wasm function body to IR. Its slices (value stack,
// control frames, locals, vreg types) and the IR func it builds into are
// owned by a compileScratch, so repeated lowerings reuse their capacity.
type lowerer struct {
	m      *wasm.Module
	cfg    *EngineConfig
	sc     *compileScratch
	f      *ir.Func
	cur    *ir.Block
	stack  []ir.VReg
	locals []ir.VReg
	ctrls  []lctrl
	nimp   int
	body   []wasm.Instr
	brTabs [][]uint32 // the function's br_table target lists
	dead   bool       // current position unreachable
}

// LowerFunc lowers module function fi (module space, not import space)
// through a fresh scratch. The result is not pooled; one-shot callers and
// tests use this, Compile goes through lowerFuncInto.
func LowerFunc(m *wasm.Module, fi int, cfg *EngineConfig) (*ir.Func, error) {
	return lowerFuncInto(m, fi, cfg, getScratch())
}

// lowerFuncInto lowers module function fi into sc's arena.
func lowerFuncInto(m *wasm.Module, fi int, cfg *EngineConfig, sc *compileScratch) (*ir.Func, error) {
	wf := &m.Funcs[fi]
	ft := m.Types[wf.TypeIdx]
	lo := &sc.lo
	*lo = lowerer{
		m:      m,
		cfg:    cfg,
		sc:     sc,
		f:      sc.arena.Reset(),
		stack:  lo.stack[:0],
		locals: lo.locals[:0],
		ctrls:  lo.ctrls[:0],
		nimp:   m.NumImportedFuncs(),
		body:   wf.Body,
		brTabs: wf.BrTables,
	}
	sc.vtype = sc.vtype[:0]
	lo.f.Name = m.FuncName(uint32(m.NumImportedFuncs() + fi))
	lo.f.SigID = int(wf.TypeIdx)
	lo.f.Index = fi
	lo.cur = lo.newBlock()

	// Locals: params then declared locals.
	for _, p := range ft.Params {
		v := lo.newV(p)
		lo.locals = append(lo.locals, v)
		lo.f.Params = append(lo.f.Params, v)
	}
	for _, l := range wf.Locals {
		v := lo.newV(l)
		lo.locals = append(lo.locals, v)
		// Wasm locals start zeroed.
		if classOf(l) == ir.GP {
			lo.emit(ir.Ins{Op: ir.Const, Dst: v, Imm: 0, W: widthOf(l), A: ir.NoV, B: ir.NoV, Extra: ir.NoV})
		} else {
			lo.emit(ir.Ins{Op: ir.FConst, Dst: v, F64: 0, W: widthOf(l), A: ir.NoV, B: ir.NoV, Extra: ir.NoV})
		}
	}
	if len(ft.Results) > 0 {
		lo.f.HasRet = true
		lo.f.RetType = classOf(ft.Results[0])
	}

	// Function frame.
	var resV ir.VReg = ir.NoV
	var resT wasm.ValType
	if len(ft.Results) > 0 {
		resT = ft.Results[0]
		resV = lo.newV(resT)
	}
	lo.ctrls = append(lo.ctrls, lctrl{op: 0, resultV: resV, resType: resT})

	if err := lo.run(); err != nil {
		return nil, fmt.Errorf("%s: %w", lo.f.Name, err)
	}
	ir.ComputeLoopDepth(lo.f)
	return lo.f, nil
}

func (lo *lowerer) newV(t wasm.ValType) ir.VReg {
	v := lo.f.NewV(classOf(t))
	lo.sc.vtype = append(lo.sc.vtype, t)
	return v
}

// vtypeOf returns the wasm type of vreg v.
func (lo *lowerer) vtypeOf(v ir.VReg) wasm.ValType { return lo.sc.vtype[v] }

// newBlock appends a recycled block to the function under construction.
func (lo *lowerer) newBlock() *ir.Block { return lo.sc.arena.NewBlock() }

func (lo *lowerer) emit(in ir.Ins) {
	// Normalize absent operands.
	if in.A == 0 && in.Op == ir.Const {
		in.A = ir.NoV
	}
	lo.cur.Ins = append(lo.cur.Ins, in)
}

func (lo *lowerer) push(v ir.VReg) { lo.stack = append(lo.stack, v) }

func (lo *lowerer) pop() ir.VReg {
	v := lo.stack[len(lo.stack)-1]
	lo.stack = lo.stack[:len(lo.stack)-1]
	return v
}

// ins is a convenience constructor initializing operand fields to NoV.
func ins(op ir.Op) ir.Ins {
	return ir.Ins{Op: op, Dst: ir.NoV, A: ir.NoV, B: ir.NoV, Extra: ir.NoV}
}

// startBlock switches emission to b.
func (lo *lowerer) startBlock(b *ir.Block) { lo.cur = b }

// terminate emits t and marks the position dead until the next label.
func (lo *lowerer) terminate(t ir.Ins) {
	lo.emit(t)
	lo.dead = true
}

// run walks the wasm body.
func (lo *lowerer) run() error {
	pc := 0
	for pc < len(lo.body) {
		in := &lo.body[pc]
		if lo.dead {
			// Skip unreachable instructions, tracking nesting.
			switch in.Op {
			case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
				lo.ctrls = append(lo.ctrls, lctrl{op: in.Op, resultV: ir.NoV, skipped: true})
			case wasm.OpElse:
				fr := &lo.ctrls[len(lo.ctrls)-1]
				if !fr.skipped && fr.op == wasm.OpIf {
					// The then-arm ended dead; else arm is reachable.
					fr.sawElse = true
					lo.dead = false
					lo.startBlock(fr.elseB)
					lo.stack = lo.stack[:fr.stackH]
				}
			case wasm.OpEnd:
				fr := lo.ctrls[len(lo.ctrls)-1]
				lo.ctrls = lo.ctrls[:len(lo.ctrls)-1]
				if !fr.skipped {
					// Frame was live before the dead region: resume at
					// its continuation if anything branches there.
					if fr.op == 0 {
						pc++
						continue
					}
					if fr.op == wasm.OpIf && !fr.sawElse && fr.elseB != nil {
						// if without else: else arm is the follow path.
						lo.startBlock(fr.elseB)
						lo.emitJump(fr.follow)
					}
					lo.dead = false
					lo.startBlock(fr.follow)
					lo.stack = lo.stack[:fr.stackH]
					if fr.resultV != ir.NoV {
						lo.push(fr.resultV)
					}
				}
			}
			pc++
			continue
		}

		np, err := lo.step(pc, in)
		if err != nil {
			return fmt.Errorf("pc %d (%s): %w", pc, in, err)
		}
		pc = np
	}
	return nil
}

// emitJump appends a jump to b.
func (lo *lowerer) emitJump(b *ir.Block) {
	t := ins(ir.Jump)
	tg := lo.sc.arena.Targets(1)
	tg[0] = b.ID
	t.Targets = tg
	lo.emit(t)
}

// targets2 carves a two-entry branch-target list from the arena.
func (lo *lowerer) targets2(a, b int) []int {
	tg := lo.sc.arena.Targets(2)
	tg[0], tg[1] = a, b
	return tg
}

// frameAt returns the control frame for wasm branch depth d.
func (lo *lowerer) frameAt(d int) *lctrl {
	return &lo.ctrls[len(lo.ctrls)-1-d]
}

// branchTargetForJump prepares a plain jump to the frame at depth d,
// emitting the result move if the frame carries one. It returns the target
// block id. For rotated loops it re-evaluates the loop test (see
// emitRotatedBackedge), in which case it returns -1 (branch fully emitted).
func (lo *lowerer) branchToFrame(d int) error {
	fr := lo.frameAt(d)
	if fr.op == wasm.OpLoop {
		if fr.rotated {
			return lo.emitRotatedBackedge(fr)
		}
		lo.emitJump(fr.header)
		return nil
	}
	if fr.op == 0 {
		// Branch to the function frame = return.
		t := ins(ir.Ret)
		if fr.resultV != ir.NoV {
			t.A = lo.stack[len(lo.stack)-1]
		}
		lo.emit(t)
		return nil
	}
	if fr.resultV != ir.NoV {
		mv := ins(ir.Mov)
		mv.Dst = fr.resultV
		mv.A = lo.stack[len(lo.stack)-1]
		mv.W = widthOf(fr.resType)
		lo.emit(mv)
	}
	lo.emitJump(fr.follow)
	return nil
}

// emitRotatedBackedge re-evaluates a rotated loop's test sequence and emits
// the bottom-test conditional branch: taken -> loop exit, fallthrough ->
// loop body.
func (lo *lowerer) emitRotatedBackedge(fr *lctrl) error {
	// Re-lower the pure test sequence inline.
	for i := range fr.rotTest {
		tin := &fr.rotTest[i]
		if _, err := lo.step(-1, tin); err != nil {
			return fmt.Errorf("rotated test: %w", err)
		}
	}
	t := lo.fuseCond(lo.pop())
	t.Targets = lo.targets2(lo.ctrls[fr.rotExit].follow.ID, fr.body.ID)
	lo.emit(t)
	return nil
}

// fuseCond builds a Cond/CondCmp terminator from a condition vreg, fusing a
// just-emitted compare when the engine supports it.
func (lo *lowerer) fuseCond(cond ir.VReg) ir.Ins {
	if lo.cfg.CmpFusion && len(lo.cur.Ins) > 0 {
		last := &lo.cur.Ins[len(lo.cur.Ins)-1]
		if (last.Op == ir.Cmp || last.Op == ir.FCmp || last.Op == ir.Eqz) && last.Dst == cond {
			fused := *last
			lo.cur.Ins = lo.cur.Ins[:len(lo.cur.Ins)-1]
			t := ins(ir.CondCmp)
			t.A, t.B = fused.A, fused.B
			t.Imm = fused.Imm
			t.W = fused.W
			if fused.Op == ir.Eqz {
				t.CC = ir.CCEq
				t.B = ir.NoV
				t.Imm = 0
			} else {
				t.CC = fused.CC
			}
			if fused.Op == ir.FCmp {
				t.Unsigned = true // marks float compare for the emitter
			}
			return t
		}
	}
	t := ins(ir.Cond)
	t.A = cond
	return t
}

// protectLocal copies any abstract-stack references to local vreg v into
// fresh temporaries before v is overwritten.
func (lo *lowerer) protectLocal(v ir.VReg) {
	for i, s := range lo.stack {
		if s == v {
			t := lo.vtypeOf(v)
			nv := lo.newV(t)
			mv := ins(ir.Mov)
			mv.Dst = nv
			mv.A = v
			mv.W = widthOf(t)
			lo.emit(mv)
			lo.stack[i] = nv
		}
	}
}

// scanRotatable checks whether the loop starting after pc (which indexes the
// OpLoop, whose frame is not pushed yet) begins with a pure test sequence
// ending in br_if to an enclosing block or if that carries no result. It
// returns the sequence, the exit frame's index in ctrls, and the pc just
// past the br_if, or ok=false.
func (lo *lowerer) scanRotatable(pc int) (seq []wasm.Instr, exit int, next int, ok bool) {
	delta := 0
	for i := pc + 1; i < len(lo.body); i++ {
		in := &lo.body[i]
		if in.Op.IsLoad() {
			// Loads are safe to re-execute at the latch: re-entering the
			// loop header would perform the same load.
			if delta < 1 {
				return nil, 0, 0, false
			}
			continue
		}
		switch in.Op {
		case wasm.OpLocalGet, wasm.OpGlobalGet, wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			delta++
		case wasm.OpI32Eqz, wasm.OpI64Eqz, wasm.OpI32WrapI64, wasm.OpI64ExtendI32S, wasm.OpI64ExtendI32U:
			if delta < 1 {
				return nil, 0, 0, false
			}
		case wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS, wasm.OpI32GtU,
			wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU,
			wasm.OpI64Eq, wasm.OpI64Ne, wasm.OpI64LtS, wasm.OpI64LtU, wasm.OpI64GtS, wasm.OpI64GtU,
			wasm.OpI64LeS, wasm.OpI64LeU, wasm.OpI64GeS, wasm.OpI64GeU,
			wasm.OpF64Eq, wasm.OpF64Ne, wasm.OpF64Lt, wasm.OpF64Gt, wasm.OpF64Le, wasm.OpF64Ge,
			wasm.OpF32Eq, wasm.OpF32Ne, wasm.OpF32Lt, wasm.OpF32Gt, wasm.OpF32Le, wasm.OpF32Ge,
			wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor,
			wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64And, wasm.OpI64Or, wasm.OpI64Xor:
			if delta < 2 {
				return nil, 0, 0, false
			}
			delta--
		case wasm.OpBrIf:
			if delta != 1 || in.I64 == 0 {
				return nil, 0, 0, false
			}
			// Depth d inside the loop is depth d-1 outside it. The
			// exit edge carries no value and must leave the loop.
			ex := lo.frameAt(int(in.I64) - 1)
			if (ex.op != wasm.OpBlock && ex.op != wasm.OpIf) || ex.resultV != ir.NoV {
				return nil, 0, 0, false
			}
			// Sequence consumed nothing below its own pushes and leaves
			// exactly the condition: rotatable.
			return lo.body[pc+1 : i], len(lo.ctrls) - int(in.I64), i + 1, true
		default:
			return nil, 0, 0, false
		}
		if i-pc > 24 { // keep guards small, like a real compiler would
			return nil, 0, 0, false
		}
	}
	return nil, 0, 0, false
}
