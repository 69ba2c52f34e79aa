package minic

import (
	"fmt"

	"repro/internal/wasm"
)

// localInfo is the storage of one local declaration.
type localInfo struct {
	isMem bool
	local uint32 // wasm local index (scalar register locals)
	off   int    // frame offset (memory locals)
	t     *Type
}

// loopCtx records branch targets for break/continue. Depths are absolute
// builder depths captured right after the target block was opened.
type loopCtx struct {
	breakDepth    int
	continueDepth int // -1 in switches
	isSwitch      bool
}

// fgen generates one function.
type fgen struct {
	g  *gen
	fd *FuncDecl
	fb *wasm.FuncBuilder

	scopes    []map[string]localInfo
	addressed map[string]bool
	frameSize int
	hasFrame  bool
	spLocal   uint32
	loops     []loopCtx

	// genFrameOff mirrors the prescan's allocation order during statement
	// generation so offsets line up.
	genFrameOff int

	scratch map[wasm.ValType][]uint32
}

func (g *gen) genFunc(fd *FuncDecl) error {
	fi := g.funcs[fd.Name]
	fg := &fgen{
		g: g, fd: fd,
		addressed: map[string]bool{},
		scratch:   map[wasm.ValType][]uint32{},
	}
	fg.fb = g.b.Func(fd.Name, g.wasmSig(fi.sig))
	if fg.fb.Index() != fi.idx {
		return fmt.Errorf("minic: internal: function index mismatch for %s", fd.Name)
	}

	// Find address-taken locals (conservatively, by name).
	markAddressed(fd.Body, fg.addressed)

	fg.pushScope()
	for i, p := range fd.Params {
		if fg.addressed[p.Name] {
			// Spill the parameter into the frame.
			off := fg.allocFrame(p.Type)
			fg.scopes[0][p.Name] = localInfo{isMem: true, off: off, t: p.Type}
		} else {
			fg.scopes[0][p.Name] = localInfo{local: uint32(i), t: p.Type}
		}
	}

	// Pre-size the frame by scanning declarations; generation re-allocates
	// in the same order starting after the parameter slots.
	fg.genFrameOff = fg.frameSize
	fg.prescanFrame(fd.Body)

	if fg.frameSize > 0 {
		fg.hasFrame = true
		fg.frameSize = alignUp(fg.frameSize, 16)
		fg.spLocal = fg.fb.AddLocal(wasm.I32)
		// sp = g0 - frame; g0 = sp
		fg.fb.GlobalGet(g.spGlobal).I32Const(int32(fg.frameSize)).Op(wasm.OpI32Sub)
		fg.fb.LocalTee(fg.spLocal).GlobalSet(g.spGlobal)
		// Copy addressed params into their slots.
		for i, p := range fd.Params {
			li := fg.scopes[0][p.Name]
			if !li.isMem {
				continue
			}
			fg.fb.LocalGet(fg.spLocal)
			fg.fb.LocalGet(uint32(i))
			fg.storeScalar(p.Type, uint32(li.off))
		}
	}

	if err := fg.stmt(fd.Body); err != nil {
		return err
	}

	// Implicit return (void or zero).
	fg.epilogue()
	if fd.Ret.Kind != TVoid {
		fg.pushZero(fd.Ret)
	}
	return nil
}

// markAddressed finds &name occurrences.
func markAddressed(s *Stmt, out map[string]bool) {
	if s == nil {
		return
	}
	var walkE func(e *Expr)
	walkE = func(e *Expr) {
		if e == nil {
			return
		}
		if e.Op == "un" && e.Tok == "&" && e.X != nil && e.X.Op == "var" {
			out[e.X.Name] = true
		}
		walkE(e.X)
		walkE(e.Y)
		walkE(e.Z)
		for _, a := range e.Args {
			walkE(a)
		}
	}
	var walkS func(st *Stmt)
	walkS = func(st *Stmt) {
		if st == nil {
			return
		}
		walkE(st.E)
		walkE(st.Cond)
		walkE(st.Post)
		walkE(st.DeclInit)
		walkS(st.Init)
		walkS(st.Body)
		walkS(st.Else)
		for _, c := range st.Stmts {
			walkS(c)
		}
		for _, c := range st.Cases {
			for _, cs := range c.Stmts {
				walkS(cs)
			}
		}
	}
	walkS(s)
}

// prescanFrame sizes the frame for memory locals.
func (fg *fgen) prescanFrame(s *Stmt) {
	if s == nil {
		return
	}
	if s.Op == "decl" {
		t := s.DeclType
		if t.isAggregate() || fg.addressed[s.DeclName] {
			fg.allocFrame(t)
		}
	}
	fg.prescanFrame(s.Init)
	fg.prescanFrame(s.Body)
	fg.prescanFrame(s.Else)
	for _, c := range s.Stmts {
		fg.prescanFrame(c)
	}
	for _, c := range s.Cases {
		for _, cs := range c.Stmts {
			fg.prescanFrame(cs)
		}
	}
}

// allocFrame reserves frame space and returns the offset.
func (fg *fgen) allocFrame(t *Type) int {
	a := t.alignof(fg.g.abi.PtrSize)
	fg.frameSize = alignUp(fg.frameSize, a)
	off := fg.frameSize
	fg.frameSize += t.size(fg.g.abi.PtrSize)
	return off
}

func (fg *fgen) pushScope() { fg.scopes = append(fg.scopes, map[string]localInfo{}) }
func (fg *fgen) popScope()  { fg.scopes = fg.scopes[:len(fg.scopes)-1] }

func (fg *fgen) lookup(name string) (localInfo, bool) {
	for i := len(fg.scopes) - 1; i >= 0; i-- {
		if li, ok := fg.scopes[i][name]; ok {
			return li, true
		}
	}
	return localInfo{}, false
}

func (fg *fgen) errf(line int, format string, args ...any) error {
	return fmt.Errorf("minic: line %d (%s): %s", line, fg.fd.Name, fmt.Sprintf(format, args...))
}

// epilogue restores the shadow stack pointer.
func (fg *fgen) epilogue() {
	if fg.hasFrame {
		fg.fb.LocalGet(fg.spLocal).I32Const(int32(fg.frameSize)).Op(wasm.OpI32Add)
		fg.fb.GlobalSet(fg.g.spGlobal)
	}
}

// getScratch returns a scratch wasm local of the given type.
func (fg *fgen) getScratch(t wasm.ValType) uint32 {
	pool := fg.scratch[t]
	if len(pool) > 0 {
		v := pool[len(pool)-1]
		fg.scratch[t] = pool[:len(pool)-1]
		return v
	}
	return fg.fb.AddLocal(t)
}

func (fg *fgen) putScratch(t wasm.ValType, l uint32) {
	fg.scratch[t] = append(fg.scratch[t], l)
}

// pushZero pushes the zero value of a scalar type.
func (fg *fgen) pushZero(t *Type) {
	switch fg.g.valType(t) {
	case wasm.I64:
		fg.fb.I64Const(0)
	case wasm.F32:
		fg.fb.Emit(wasm.Instr{Op: wasm.OpF32Const})
	case wasm.F64:
		fg.fb.F64Const(0)
	default:
		fg.fb.I32Const(0)
	}
}

// stmt generates one statement.
func (fg *fgen) stmt(s *Stmt) error {
	if s == nil {
		return nil
	}
	switch s.Op {
	case "block":
		fg.pushScope()
		for _, c := range s.Stmts {
			if err := fg.stmt(c); err != nil {
				return err
			}
		}
		fg.popScope()
		return nil

	case "decl":
		return fg.declStmt(s)

	case "expr":
		if err := fg.resolve(s.E); err != nil {
			return err
		}
		return fg.discard(s.E)

	case "if":
		if err := fg.resolve(s.Cond); err != nil {
			return err
		}
		if err := fg.cond(s.Cond); err != nil {
			return err
		}
		fg.fb.If(wasm.BlockVoid)
		if err := fg.stmt(s.Body); err != nil {
			return err
		}
		if s.Else != nil {
			fg.fb.Else()
			if err := fg.stmt(s.Else); err != nil {
				return err
			}
		}
		fg.fb.End()
		return nil

	case "while":
		return fg.loop(nil, s.Cond, nil, s.Body, false)

	case "for":
		fg.pushScope()
		if s.Init != nil {
			if err := fg.stmt(s.Init); err != nil {
				return err
			}
		}
		err := fg.loop(nil, s.Cond, s.Post, s.Body, false)
		fg.popScope()
		return err

	case "do":
		return fg.loop(nil, s.Cond, nil, s.Body, true)

	case "return":
		if s.E != nil {
			if err := fg.resolve(s.E); err != nil {
				return err
			}
			if err := fg.exprTo(s.E, fg.fd.Ret, s.Line); err != nil {
				return err
			}
		} else if fg.fd.Ret.Kind != TVoid {
			fg.pushZero(fg.fd.Ret)
		}
		fg.epilogue()
		fg.fb.Return()
		return nil

	case "break":
		for i := len(fg.loops) - 1; i >= 0; i-- {
			lc := fg.loops[i]
			fg.fb.Br(uint32(fg.fb.Depth() - lc.breakDepth))
			return nil
		}
		return fg.errf(s.Line, "break outside loop/switch")

	case "continue":
		for i := len(fg.loops) - 1; i >= 0; i-- {
			lc := fg.loops[i]
			if lc.isSwitch {
				continue
			}
			fg.fb.Br(uint32(fg.fb.Depth() - lc.continueDepth))
			return nil
		}
		return fg.errf(s.Line, "continue outside loop")

	case "switch":
		return fg.switchStmt(s)
	}
	return fg.errf(s.Line, "unhandled statement %q", s.Op)
}

func (fg *fgen) declStmt(s *Stmt) error {
	t := s.DeclType
	li := localInfo{t: t}
	if t.isAggregate() || fg.addressed[s.DeclName] {
		// Allocate with the same policy as the prescan.
		li.isMem = true
		li.off = alignUp(fg.genFrameOff, t.alignof(fg.g.abi.PtrSize))
		fg.genFrameOff = li.off + t.size(fg.g.abi.PtrSize)
	} else if !t.isScalar() {
		return fg.errf(s.Line, "bad local type %s", t)
	} else {
		li.local = fg.fb.AddLocal(fg.g.valType(t))
	}
	fg.scopes[len(fg.scopes)-1][s.DeclName] = li
	if s.DeclInit == nil {
		return nil
	}
	if !t.isScalar() {
		return fg.errf(s.Line, "initializer on aggregate local")
	}
	if err := fg.resolve(s.DeclInit); err != nil {
		return err
	}
	if li.isMem {
		fg.fb.LocalGet(fg.spLocal)
	}
	if err := fg.exprTo(s.DeclInit, t, s.Line); err != nil {
		return err
	}
	if li.isMem {
		fg.storeScalar(t, uint32(li.off))
	} else {
		fg.fb.LocalSet(li.local)
	}
	return nil
}

func (fg *fgen) loop(init *Stmt, cond *Expr, post *Expr, body *Stmt, isDoWhile bool) error {
	fb := fg.fb
	fb.Block(wasm.BlockVoid) // $break
	breakDepth := fb.Depth()
	fb.Loop(wasm.BlockVoid) // $top

	for _, e := range []*Expr{cond, post} {
		if e == nil {
			continue
		}
		if err := fg.resolve(e); err != nil {
			return err
		}
	}
	if !isDoWhile && cond != nil {
		// Emscripten shape: test at top, exit via br_if, back-jump at
		// bottom. The native backend's loop rotation recognizes this.
		if err := fg.cond(cond); err != nil {
			return err
		}
		fb.Op(wasm.OpI32Eqz)
		fb.BrIf(uint32(fb.Depth() - breakDepth))
	}

	fb.Block(wasm.BlockVoid) // $continue
	contDepth := fb.Depth()
	fg.loops = append(fg.loops, loopCtx{breakDepth: breakDepth, continueDepth: contDepth})
	fg.pushScope()
	err := fg.stmt(body)
	fg.popScope()
	fg.loops = fg.loops[:len(fg.loops)-1]
	if err != nil {
		return err
	}
	fb.End() // $continue

	if post != nil {
		if err := fg.discard(post); err != nil {
			return err
		}
	}
	if isDoWhile {
		if err := fg.cond(cond); err != nil {
			return err
		}
		fb.BrIf(0) // back to $top when true
	} else {
		fb.Br(0)
	}
	fb.End() // loop
	fb.End() // $break
	return nil
}

// cond emits an i32 truth value for an expression.
func (fg *fgen) cond(e *Expr) error {
	if err := fg.expr(e); err != nil {
		return err
	}
	return fg.truthify(e.typ, e.Line)
}

// truthify converts the top of stack to an i32 boolean-compatible value.
func (fg *fgen) truthify(t *Type, line int) error {
	switch {
	case t.isFloat():
		if t.Kind == TFloat {
			fg.fb.Emit(wasm.Instr{Op: wasm.OpF32Const})
			fg.fb.Op(wasm.OpF32Ne)
		} else {
			fg.fb.F64Const(0)
			fg.fb.Op(wasm.OpF64Ne)
		}
	case t.is64():
		fg.fb.I64Const(0)
		fg.fb.Op(wasm.OpI64Ne)
	case t.Kind == TVoid:
		return fg.errf(line, "void value in condition")
	}
	// i32/pointer values are already usable as conditions.
	return nil
}

func (fg *fgen) switchStmt(s *Stmt) error {
	fb := fg.fb
	if err := fg.resolve(s.Cond); err != nil {
		return err
	}
	t := s.Cond.typ
	if !t.isInt() {
		return fg.errf(s.Line, "switch on non-integer")
	}
	if err := fg.expr(s.Cond); err != nil {
		return err
	}
	if t.is64() {
		fb.Op(wasm.OpI32WrapI64)
	}
	sel := fg.getScratch(wasm.I32)
	fb.LocalSet(sel)
	defer fg.putScratch(wasm.I32, sel)

	// Outer break block.
	fb.Block(wasm.BlockVoid)
	breakDepth := fb.Depth()
	fg.loops = append(fg.loops, loopCtx{breakDepth: breakDepth, continueDepth: -1, isSwitch: true})
	defer func() { fg.loops = fg.loops[:len(fg.loops)-1] }()

	// Determine table shape.
	var min, max int64
	first := true
	defaultIdx := -1
	for i, c := range s.Cases {
		if c.IsDefault {
			defaultIdx = i
			continue
		}
		if first {
			min, max = c.Val, c.Val
			first = false
		} else {
			if c.Val < min {
				min = c.Val
			}
			if c.Val > max {
				max = c.Val
			}
		}
	}
	n := len(s.Cases)
	useTable := !first && n >= 3 && max-min < 512

	// Open one block per case, innermost = first case.
	for i := n - 1; i >= 0; i-- {
		fb.Block(wasm.BlockVoid)
		_ = i
	}
	caseDepth := func(i int) uint32 {
		// Case i's block closes after its statements; relative depth from
		// the current position (inside all n blocks) is i.
		return uint32(i)
	}

	if useTable {
		span := int(max - min + 1)
		table := make([]uint32, span+1)
		defRel := uint32(n) // break block
		if defaultIdx >= 0 {
			defRel = caseDepth(defaultIdx)
		}
		for j := 0; j < span; j++ {
			table[j] = defRel
		}
		for i, c := range s.Cases {
			if !c.IsDefault {
				table[c.Val-min] = caseDepth(i)
			}
		}
		table[span] = defRel
		fb.LocalGet(sel)
		if min != 0 {
			fb.I32Const(int32(min)).Op(wasm.OpI32Sub)
		}
		fb.Emit(wasm.Instr{Op: wasm.OpBrTable, Table: table})
	} else {
		for i, c := range s.Cases {
			if c.IsDefault {
				continue
			}
			fb.LocalGet(sel).I32Const(int32(c.Val)).Op(wasm.OpI32Eq)
			fb.BrIf(caseDepth(i))
		}
		if defaultIdx >= 0 {
			fb.Br(caseDepth(defaultIdx))
		} else {
			fb.Br(uint32(n)) // to break block
		}
	}

	// Emit case bodies; each End closes that case's block, and execution
	// falls through into the next case (C semantics).
	for _, c := range s.Cases {
		fb.End()
		fg.pushScope()
		for _, st := range c.Stmts {
			if err := fg.stmt(st); err != nil {
				fg.popScope()
				return err
			}
		}
		fg.popScope()
	}
	fb.End() // break block
	return nil
}
