package cpu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/codegen"
	"repro/internal/wasm"
	"repro/internal/x86"
)

// Instance is a loaded CompiledModule ready to run: a Machine whose memory
// image (linear memory, globals, indirect-call table, rodata) has been
// initialized from the module.
type Instance struct {
	*Machine
	CM *codegen.CompiledModule
}

// Load instantiates cm into a fresh machine.
func Load(cm *codegen.CompiledModule) (*Instance, error) {
	pages := cm.MemPages
	maxPages := cm.MemMax
	if maxPages == 0 {
		maxPages = x86.LinearMax / wasm.PageSize
	}
	m := NewMachine(cm.Prog, pages, maxPages)
	m.SetFidelity(cm.Engine.Fidelity)
	m.SetRodata(cm.Rodata)

	for i, v := range cm.GlobalInit {
		m.SetGlobal(i, v)
	}
	if cm.Engine.ShadowSP != x86.NoReg && len(cm.GlobalInit) > 0 {
		// The native config keeps wasm global 0 (the Emscripten shadow
		// stack pointer) in a dedicated register.
		m.Regs[cm.Engine.ShadowSP] = cm.GlobalInit[0]
	}
	// Every table slot reads as poison (guard semantics: indirect calls
	// through unset slots leave the code segment and trap) until written.
	// Only the declared rows are poisoned here; the rest are poisoned on
	// first touch, so release clears no more than the process reached.
	binary.LittleEndian.PutUint64(m.tableFill[:], ^uint64(0))
	binary.LittleEndian.PutUint64(m.tableFill[8:], uint64(len(cm.Prog.Code)))
	m.growTable(min(len(cm.Table)*x86.TableEntrySize, cap(m.tableMem)))
	for slot, te := range cm.Table {
		if te.FuncIdx < 0 {
			continue
		}
		m.SetTableEntry(slot, int64(te.SigID), int64(cm.Entries[te.FuncIdx]))
	}
	for _, d := range cm.Data {
		dst, ok := m.LinearRange(d.Offset, uint32(len(d.Bytes)))
		if !ok {
			return nil, fmt.Errorf("cpu: data segment out of bounds")
		}
		copy(dst, d.Bytes)
	}

	// Builtin host handler for memory.grow wraps any user handler.
	return &Instance{Machine: m, CM: cm}, nil
}

// BindHost installs the host-call handler, routing builtin ids internally.
// fn receives the import index and reads arguments from the machine's
// argument registers per the engine convention.
func (inst *Instance) BindHost(fn func(m *Machine, imp int) error) {
	argReg := inst.CM.Engine.ArgGP[0]
	inst.Machine.Host = func(m *Machine, host int) error {
		if host == -1 { // memory.grow
			delta := uint32(m.Regs[argReg])
			m.Regs[x86.RAX] = uint64(uint32(m.GrowLinear(delta)))
			return nil
		}
		if fn == nil {
			return &TrapError{Msg: fmt.Sprintf("unbound host import %d", host), PC: m.rip}
		}
		return fn(m, host)
	}
}

// Invoke calls the exported function name. Arguments are raw 64-bit values
// (i32 zero-extended, floats as IEEE bits) and are placed in the engine's
// argument registers according to the function's signature.
func (inst *Instance) Invoke(name string, args ...uint64) (uint64, error) {
	fi, ok := inst.CM.FindExport(name)
	if !ok {
		return 0, fmt.Errorf("cpu: no exported function %q", name)
	}
	cfg := inst.CM.Engine
	ft := inst.CM.Sigs[fi]
	if len(args) != len(ft.Params) {
		return 0, fmt.Errorf("cpu: %s takes %d args, got %d", name, len(ft.Params), len(args))
	}
	gi, fj := 0, 0
	for i, a := range args {
		if ft.Params[i].IsFloat() {
			if fj >= len(cfg.ArgFP) {
				return 0, fmt.Errorf("cpu: too many float args for register convention")
			}
			inst.Xmm[cfg.ArgFP[fj]-x86.XMM0] = a
			fj++
		} else {
			if gi >= len(cfg.ArgGP) {
				return 0, fmt.Errorf("cpu: too many int args for register convention")
			}
			inst.Regs[cfg.ArgGP[gi]] = a
			gi++
		}
	}
	ret, err := inst.Call(inst.CM.Entries[fi])
	if err != nil {
		return 0, err
	}
	if len(ft.Results) > 0 && ft.Results[0].IsFloat() {
		return inst.Xmm[0], nil
	}
	return ret, nil
}
