// Package codegen compiles WebAssembly modules to the modeled x86-64 target
// under four engine configurations: Clang-like native code, Chrome (V8),
// Firefox (SpiderMonkey), and asm.js. The configurations encode exactly the
// §5/§6 root causes the paper identifies: register allocator choice, reserved
// registers, per-function stack-overflow checks, indirect-call checks,
// loop-entry jumps, addressing-mode and read-modify-write fusion, loop
// rotation, and compare/branch fusion.
package codegen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/x86"
)

// AllocKind selects the register allocator.
type AllocKind uint8

// Allocator kinds.
const (
	AllocLinearScan AllocKind = iota
	AllocGraphColor
)

// EngineConfig describes one code generator. Every field is one of the
// paper's root causes, so ablations can toggle them individually.
type EngineConfig struct {
	Name string

	// Allocator selects linear scan (browser JITs, §6.1.2) or graph
	// colouring (Clang).
	Allocator AllocKind

	// GP/FP are the allocatable registers in preference order. The
	// browsers' sets exclude the JavaScript-reserved registers (§6.1.1).
	GP []x86.Reg
	FP []x86.Reg

	// CalleeSaved registers survive calls in this engine's convention.
	CalleeSaved []x86.Reg

	// ArgGP/ArgFP are the argument-passing registers.
	ArgGP []x86.Reg
	ArgFP []x86.Reg

	// Scratch registers are reserved for spill traffic and address
	// materialization (V8: r10; SpiderMonkey: r11; plus a second for
	// two-operand memory sequences).
	Scratch  [2]x86.Reg
	ScratchF x86.Reg

	// MemBase holds the linear-memory base at runtime (V8 uses rbx in the
	// paper's Figure 7c; SpiderMonkey r15).
	MemBase x86.Reg

	// ShadowSP promotes wasm global 0 (the Emscripten shadow stack
	// pointer) to a dedicated register. Clang native keeps its stack
	// pointer in a register; wasm engines cannot and access the global
	// through memory.
	ShadowSP x86.Reg // NoReg when not promoted

	// StackCheck inserts the per-function stack-overflow check (§6.2.2).
	StackCheck bool

	// IndirectCheck inserts table-bounds and signature checks on
	// call_indirect (§6.2.3).
	IndirectCheck bool

	// LoopEntryJump emits Chrome's extra jump into loop bodies that skips
	// the loop-head reload sequence on the first iteration (§5.1.3).
	LoopEntryJump bool

	// RotateLoops converts top-test loops into bottom-test form with an
	// entry guard, Clang's single-branch-per-iteration shape (§5.1.3).
	RotateLoops bool

	// FuseAddressing folds base+index*scale+disp chains into memory
	// operands (§6.1.3). Chrome "does not take advantage of these modes".
	FuseAddressing bool

	// FuseRMW folds load-op-store on the same address into a single
	// read-modify-write instruction (Figure 7b line 14).
	FuseRMW bool

	// SpillOperandFusion lets instructions use spill slots as memory
	// operands directly instead of reloading into a scratch register.
	SpillOperandFusion bool

	// CmpFusion fuses compare+branch. asm.js materializes the |0-coerced
	// boolean first.
	CmpFusion bool

	// HeapMask emits the asm.js heap-index masking AND before every
	// linear-memory access.
	HeapMask bool

	// NopPad aligns function entries to this many bytes with nops
	// (V8 pads; contributes to the larger Chrome code footprint).
	NopPad int

	// Fidelity selects the simulation tier the compiled module runs under
	// (see fidelity.go). It does not change generated code, but it is part
	// of the content address: cached artifacts and memoized suite results
	// never mix fidelities.
	Fidelity Fidelity
}

// Native returns the Clang-like native configuration.
// Reserved: rsp, rbp (frame), r14 (memory base), r10/r11 (spill scratch),
// r13 (shadow stack pointer register, standing in for native rsp usage).
func Native() *EngineConfig {
	return &EngineConfig{
		Name:      "native",
		Allocator: AllocGraphColor,
		GP: []x86.Reg{
			x86.RAX, x86.RCX, x86.RDX, x86.RBX, x86.RSI, x86.RDI,
			x86.R8, x86.R9, x86.R12, x86.R15,
		},
		FP: []x86.Reg{
			x86.XMM0, x86.XMM1, x86.XMM2, x86.XMM3, x86.XMM4, x86.XMM5,
			x86.XMM6, x86.XMM7, x86.XMM8, x86.XMM9, x86.XMM10, x86.XMM11,
			x86.XMM12, x86.XMM13,
		},
		CalleeSaved:        []x86.Reg{x86.RBX, x86.R12, x86.R15},
		ArgGP:              []x86.Reg{x86.RDI, x86.RSI, x86.RDX, x86.RCX, x86.R8, x86.R9},
		ArgFP:              []x86.Reg{x86.XMM0, x86.XMM1, x86.XMM2, x86.XMM3, x86.XMM4, x86.XMM5},
		Scratch:            [2]x86.Reg{x86.R10, x86.R11},
		ScratchF:           x86.XMM15,
		MemBase:            x86.R14,
		ShadowSP:           x86.R13,
		StackCheck:         false,
		IndirectCheck:      false,
		LoopEntryJump:      false,
		RotateLoops:        true,
		FuseAddressing:     true,
		FuseRMW:            true,
		SpillOperandFusion: true,
		CmpFusion:          true,
	}
}

// Chrome returns the V8 configuration: linear scan, r13 reserved for GC
// roots, r10 and xmm13 reserved as scratch, rbx as heap base, stack and
// indirect-call checks, loop-entry jumps, and function-entry nop padding.
func Chrome() *EngineConfig {
	return &EngineConfig{
		Name:      "chrome",
		Allocator: AllocLinearScan,
		GP: []x86.Reg{
			x86.RAX, x86.RCX, x86.RDX, x86.RSI, x86.RDI,
			x86.R8, x86.R9, x86.R12, x86.R14, x86.R15,
		},
		FP: []x86.Reg{
			x86.XMM0, x86.XMM1, x86.XMM2, x86.XMM3, x86.XMM4, x86.XMM5,
			x86.XMM6, x86.XMM7, x86.XMM8, x86.XMM9, x86.XMM10, x86.XMM11, x86.XMM12,
		},
		CalleeSaved:        []x86.Reg{x86.R12, x86.R14},
		ArgGP:              []x86.Reg{x86.RAX, x86.RCX, x86.RDX, x86.RSI, x86.RDI, x86.R8},
		ArgFP:              []x86.Reg{x86.XMM0, x86.XMM1, x86.XMM2, x86.XMM3, x86.XMM4, x86.XMM5},
		Scratch:            [2]x86.Reg{x86.R10, x86.R11},
		ScratchF:           x86.XMM13,
		MemBase:            x86.RBX,
		ShadowSP:           x86.NoReg,
		StackCheck:         true,
		IndirectCheck:      true,
		LoopEntryJump:      true,
		RotateLoops:        false,
		FuseAddressing:     false,
		FuseRMW:            false,
		SpillOperandFusion: false,
		CmpFusion:          true,
		NopPad:             32,
	}
}

// Firefox returns the SpiderMonkey configuration: linear scan, r15 reserved
// as the heap base, r11 and xmm15 reserved as scratch. One more allocatable
// GPR than Chrome, no loop-entry jumps, no padding — which is why Firefox
// comes out somewhat faster in the paper.
func Firefox() *EngineConfig {
	return &EngineConfig{
		Name:      "firefox",
		Allocator: AllocLinearScan,
		GP: []x86.Reg{
			x86.RAX, x86.RCX, x86.RDX, x86.RBX, x86.RSI, x86.RDI,
			x86.R8, x86.R9, x86.R12, x86.R13, x86.R14,
		},
		FP: []x86.Reg{
			x86.XMM0, x86.XMM1, x86.XMM2, x86.XMM3, x86.XMM4, x86.XMM5,
			x86.XMM6, x86.XMM7, x86.XMM8, x86.XMM9, x86.XMM10, x86.XMM11,
			x86.XMM12, x86.XMM13,
		},
		CalleeSaved:        []x86.Reg{x86.R12, x86.R13, x86.R14},
		ArgGP:              []x86.Reg{x86.RDI, x86.RSI, x86.RDX, x86.RCX, x86.R8, x86.R9},
		ArgFP:              []x86.Reg{x86.XMM0, x86.XMM1, x86.XMM2, x86.XMM3, x86.XMM4, x86.XMM5},
		Scratch:            [2]x86.Reg{x86.R11, x86.R10},
		ScratchF:           x86.XMM15,
		MemBase:            x86.R15,
		ShadowSP:           x86.NoReg,
		StackCheck:         true,
		IndirectCheck:      true,
		LoopEntryJump:      false,
		RotateLoops:        false,
		FuseAddressing:     false,
		FuseRMW:            false,
		SpillOperandFusion: false,
		CmpFusion:          true,
	}
}

// AsmJSChrome returns the asm.js-in-Chrome configuration: the wasm pipeline
// plus heap-index masking, no compare/branch fusion (|0 boolean
// materialization), and one fewer allocatable register (the second typed-
// array view base).
func AsmJSChrome() *EngineConfig {
	c := Chrome()
	c.Name = "asmjs-chrome"
	c.GP = c.GP[:len(c.GP)-1]
	c.HeapMask = true
	c.CmpFusion = false
	return c
}

// AsmJSFirefox returns the asm.js-in-Firefox configuration.
func AsmJSFirefox() *EngineConfig {
	c := Firefox()
	c.Name = "asmjs-firefox"
	c.GP = c.GP[:len(c.GP)-1]
	c.HeapMask = true
	c.CmpFusion = false
	return c
}

// calleeSavedSet returns the callee-saved set as a map for the allocators.
func (cfg *EngineConfig) calleeSavedSet() map[x86.Reg]bool {
	m := make(map[x86.Reg]bool, len(cfg.CalleeSaved))
	for _, r := range cfg.CalleeSaved {
		m[r] = true
	}
	return m
}

// engineByName maps knob spellings to stock engine constructors — the one
// registry behind every "-engine" flag and the serving wire format, so a
// new configuration becomes addressable everywhere by being added here.
var engineByName = map[string]func() *EngineConfig{
	"native":        Native,
	"chrome":        Chrome,
	"firefox":       Firefox,
	"asmjs-chrome":  AsmJSChrome,
	"asmjs-firefox": AsmJSFirefox,
}

// EngineNames lists the stock engine spellings Engine accepts, sorted.
func EngineNames() []string {
	names := make([]string, 0, len(engineByName))
	for n := range engineByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Engine returns a fresh stock configuration by its knob spelling, or an
// error naming the accepted spellings (a user-facing message: it surfaces
// on CLI flags and serving requests alike).
func Engine(name string) (*EngineConfig, error) {
	ctor, ok := engineByName[name]
	if !ok {
		return nil, fmt.Errorf("codegen: unknown engine %q (want one of %s)",
			name, strings.Join(EngineNames(), ", "))
	}
	return ctor(), nil
}
