package codegen

import (
	"cmp"
	"slices"

	"repro/internal/ir"
	"repro/internal/regalloc"
	"repro/internal/x86"
)

// memOperandFor computes the x86 memory operand for a Load/Store with address
// vreg addr and displacement off. Browser engines emit
// [membase + addr*1 + off] (Figure 7c); the native config, whose linear
// memory starts at process address 0, addresses [addr + off] directly and may
// fuse an add/shift chain into [base + index*scale + off] (§6.1.3).
func (e *emitter) memOperandFor(b *ir.Block, idx int, addr ir.VReg, off int32) x86.Mem {
	if m, ok := e.fusedMem[&b.Ins[idx]]; ok {
		return m
	}
	areg := e.addrReg(addr)
	if e.cfg.HeapMask {
		// asm.js heap masking: scratch = addr & mask.
		e.emit(x86.Inst{Op: x86.OMov, W: 4, Dst: x86.R(e.s0()), Src: x86.R(areg)})
		e.emitNote(x86.Inst{Op: x86.OAnd, W: 4, Dst: x86.R(e.s0()), Src: x86.Imm(x86.LinearMax - 1)}, "heap mask")
		areg = e.s0()
	}
	if e.cfg.MemBase != x86.NoReg {
		return x86.Mem{Base: e.cfg.MemBase, Index: areg, Scale: 1, Disp: off}
	}
	return x86.Mem{Base: areg, Index: x86.NoReg, Disp: off}
}

// addrReg materializes the address vreg (zero-extended u32) into a register.
func (e *emitter) addrReg(addr ir.VReg) x86.Reg {
	l := e.loc(addr)
	if l.Kind == regalloc.LocReg {
		return l.Reg
	}
	e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(e.s0()), Src: e.spillMem(l.Slot)})
	return e.s0()
}

// fuseAddressesInBlock runs before emission of block b. For each address
// vreg whose every use is a memory access in b and whose definition is a
// foldable add/shift chain, it records the fused operand for every access
// and marks the chain instructions skipped. The decision is all-or-nothing
// per address vreg so a skipped def never leaves a consumer behind.
//
// Accesses are grouped by sorting an (addr, idx) pair list from the scratch
// rather than a per-block map; groups are independent (each access belongs
// to exactly one address vreg and probeFuse reads no fusion state), so the
// processing order does not affect the result.
func (e *emitter) fuseAddressesInBlock(b *ir.Block) {
	if !e.cfg.FuseAddressing {
		return
	}
	acc := e.sc.accesses[:0]
	for i := range b.Ins {
		in := &b.Ins[i]
		if in.Op == ir.Load || in.Op == ir.Store {
			acc = append(acc, accessRef{addr: in.A, idx: i})
		}
	}
	e.sc.accesses = acc[:0]
	slices.SortFunc(acc, func(a, c accessRef) int {
		if a.addr != c.addr {
			return cmp.Compare(a.addr, c.addr)
		}
		return cmp.Compare(a.idx, c.idx)
	})
	for lo := 0; lo < len(acc); {
		hi := lo
		for hi < len(acc) && acc[hi].addr == acc[lo].addr {
			hi++
		}
		addr, group := acc[lo].addr, acc[lo:hi]
		lo = hi
		if e.uses[addr] != len(group) {
			continue // address escapes to non-memory uses or other blocks
		}
		plans := e.sc.fusePlans[:0]
		skip1, skip2 := -1, -1
		ok := true
		for _, g := range group {
			m, s1, s2, good := e.probeFuse(b, g.idx, addr, b.Ins[g.idx].Off)
			if !good {
				ok = false
				break
			}
			plans = append(plans, fusePlan{at: g.idx, mem: m})
			skip1, skip2 = s1, s2 // identical def chain for every access
		}
		e.sc.fusePlans = plans[:0]
		if !ok {
			continue
		}
		for _, p := range plans {
			e.fusedMem[&b.Ins[p.at]] = p.mem
		}
		if skip1 >= 0 {
			e.skip[&b.Ins[skip1]] = true
		}
		if skip2 >= 0 {
			e.skip[&b.Ins[skip2]] = true
		}
	}
}

// probeFuse computes the fused memory operand for one access without
// mutating state. It returns the operand, the def-chain indices that become
// dead (-1 = none), and whether fusion is legal.
func (e *emitter) probeFuse(b *ir.Block, idx int, addr ir.VReg, off int32) (x86.Mem, int, int, bool) {
	defIdx := -1
	for i := idx - 1; i >= 0 && i >= idx-24; i-- {
		if b.Ins[i].Dst == addr {
			defIdx = i
			break
		}
	}
	if defIdx < 0 {
		return x86.Mem{}, -1, -1, false
	}
	def := &b.Ins[defIdx]
	if def.Op != ir.Add {
		return x86.Mem{}, -1, -1, false
	}
	if def.B == ir.NoV {
		// addr = x + imm: fold into displacement.
		x := def.A
		no := int64(off) + def.Imm
		if no < 0 || no > 1<<30 || !e.inReg(x) || e.redefined(b, defIdx, idx, x) {
			return x86.Mem{}, -1, -1, false
		}
		return x86.Mem{Base: e.loc(x).Reg, Index: x86.NoReg, Disp: int32(no)}, defIdx, -1, true
	}
	x, y := def.A, def.B
	for swap := 0; swap < 2; swap++ {
		if swap == 1 {
			x, y = y, x
		}
		yDef := -1
		for i := defIdx - 1; i >= 0 && i >= defIdx-24; i-- {
			if b.Ins[i].Dst == y {
				yDef = i
				break
			}
		}
		if yDef >= 0 {
			yd := &b.Ins[yDef]
			if yd.Op == ir.Shl && yd.B == ir.NoV && yd.Imm >= 0 && yd.Imm <= 3 &&
				e.uses[y] == 1 && e.inReg(yd.A) && e.inReg(x) &&
				!e.redefined(b, yDef, idx, yd.A) && !e.redefined(b, defIdx, idx, x) {
				return x86.Mem{Base: e.loc(x).Reg, Index: e.loc(yd.A).Reg, Scale: 1 << uint(yd.Imm), Disp: off},
					defIdx, yDef, true
			}
		}
	}
	x, y = def.A, def.B
	if e.inReg(x) && e.inReg(y) && !e.redefined(b, defIdx, idx, x) && !e.redefined(b, defIdx, idx, y) {
		return x86.Mem{Base: e.loc(x).Reg, Index: e.loc(y).Reg, Scale: 1, Disp: off}, defIdx, -1, true
	}
	return x86.Mem{}, -1, -1, false
}

func (e *emitter) inReg(v ir.VReg) bool { return e.loc(v).Kind == regalloc.LocReg }

// redefined reports whether the value of v — or the physical register
// holding it — is overwritten between instructions (from, to). The register
// check matters because the allocator may have ended v's interval at its
// last IR use, which fusion extends past. Calls are treated as clobbering
// everything.
func (e *emitter) redefined(b *ir.Block, from, to int, v ir.VReg) bool {
	reg := e.loc(v).Reg
	for i := from + 1; i < to; i++ {
		in := &b.Ins[i]
		if in.Dst == v {
			return true
		}
		if in.Op.IsCall() {
			return true
		}
		if in.Dst != ir.NoV {
			l := e.loc(in.Dst)
			if l.Kind == regalloc.LocReg && l.Reg == reg {
				return true
			}
		}
	}
	return false
}

func loadX86(kind ir.LoadKind) (op x86.Op, w uint8) {
	switch kind {
	case ir.L32:
		return x86.OMov, 4
	case ir.L64:
		return x86.OMov, 8
	case ir.L8S:
		return x86.OMovSX8, 4
	case ir.L8U:
		return x86.OMovZX8, 4
	case ir.L16S:
		return x86.OMovSX16, 4
	case ir.L16U:
		return x86.OMovZX16, 4
	case ir.L32S:
		return x86.OMovSXD, 8
	case ir.L32U:
		return x86.OMov, 4
	case ir.LF32:
		return x86.OMovsd, 4
	case ir.LF64:
		return x86.OMovsd, 8
	}
	return x86.OMov, 4
}

func (e *emitter) emitLoad(b *ir.Block, idx int) {
	in := &b.Ins[idx]
	if e.loc(in.Dst).Kind == regalloc.LocNone {
		// Dead load: wasm loads can trap, so engines keep them; emit into
		// a scratch.
		mem := e.memOperandFor(b, idx, in.A, in.Off)
		op, w := loadX86(in.Kind)
		if in.Kind == ir.LF32 || in.Kind == ir.LF64 {
			e.emit(x86.Inst{Op: op, W: w, Dst: x86.R(e.sf()), Src: x86.M(mem)})
		} else {
			e.emit(x86.Inst{Op: op, W: w, Dst: x86.R(e.s1()), Src: x86.M(mem)})
		}
		return
	}
	mem := e.memOperandFor(b, idx, in.A, in.Off)
	op, w := loadX86(in.Kind)
	if e.f.Class[in.Dst] == ir.FP {
		d, flush := e.dstFP(in.Dst)
		e.emit(x86.Inst{Op: op, W: w, Dst: x86.R(d), Src: x86.M(mem)})
		flush()
		return
	}
	d, flush := e.dstGP(in.Dst)
	// i64 sign-extending sub-word loads need 64-bit movsx forms; the W
	// field covers it (simulator sign-extends to W).
	if in.W == 8 && (in.Kind == ir.L8S || in.Kind == ir.L16S) {
		w = 8
	}
	e.emit(x86.Inst{Op: op, W: w, Dst: x86.R(d), Src: x86.M(mem)})
	flush()
}

func (e *emitter) emitStore(b *ir.Block, idx int) {
	in := &b.Ins[idx]
	// Read-modify-write fusion (native): add [mem], src.
	if info, ok := e.rmwAt[in]; ok {
		mem := e.memOperandFor(b, idx, in.A, in.Off)
		var src x86.Operand
		if info.hasB {
			src = e.readGPOperand(info.binB, e.s1())
			if src.Kind == x86.KMem {
				// Can't have two memory operands; reload.
				e.emit(x86.Inst{Op: x86.OMov, W: 8, Dst: x86.R(e.s1()), Src: src})
				src = x86.R(e.s1())
			}
		} else {
			src = x86.Imm(info.imm)
		}
		e.emitNote(x86.Inst{Op: binX[info.op], W: info.w, Dst: x86.M(mem), Src: src}, "rmw")
		return
	}

	w := uint8(in.Kind.Bytes())
	if in.B != ir.NoV && e.f.Class[in.B] == ir.FP {
		s := e.readFP(in.B, w)
		mem := e.memOperandFor(b, idx, in.A, in.Off)
		e.emit(x86.Inst{Op: x86.OMovsd, W: w, Dst: x86.M(mem), Src: x86.R(s)})
		return
	}
	var src x86.Operand
	if in.B != ir.NoV {
		src = x86.R(e.readGP(in.B, e.s1(), w))
	} else {
		src = x86.Imm(in.Imm)
	}
	mem := e.memOperandFor(b, idx, in.A, in.Off)
	e.emit(x86.Inst{Op: x86.OMov, W: w, Dst: x86.M(mem), Src: src})
}
