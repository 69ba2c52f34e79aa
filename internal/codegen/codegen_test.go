package codegen_test

import (
	"math"
	"testing"

	"repro/internal/codegen"
	"repro/internal/cpu"
	"repro/internal/wasm"
	"repro/internal/x86"
)

// engines under test.
func engines() []*codegen.EngineConfig {
	return []*codegen.EngineConfig{
		codegen.Native(), codegen.Chrome(), codegen.Firefox(),
		codegen.AsmJSChrome(), codegen.AsmJSFirefox(),
	}
}

// runBoth executes fn on the interpreter and on every engine, checking that
// results agree.
func runBoth(t *testing.T, m *wasm.Module, export string, args ...uint64) {
	t.Helper()
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	inst, err := wasm.Instantiate(m, nil)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	want, wantErr := inst.Invoke(export, args...)

	for _, cfg := range engines() {
		cm, err := codegen.Compile(m, cfg)
		if err != nil {
			t.Fatalf("%s: compile: %v", cfg.Name, err)
		}
		mi, err := cpu.Load(cm)
		if err != nil {
			t.Fatalf("%s: load: %v", cfg.Name, err)
		}
		mi.BindHost(nil)
		got, gotErr := mi.Invoke(export, args...)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("%s: trap mismatch: interp=%v machine=%v", cfg.Name, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if len(want) > 0 && got != want[0] {
			t.Errorf("%s: %s(%v) = %#x, interpreter says %#x", cfg.Name, export, args, got, want[0])
		}
	}
}

func TestCompileAdd(t *testing.T) {
	b := wasm.NewModuleBuilder()
	fb := b.Func("add", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	fb.LocalGet(0).LocalGet(1).Op(wasm.OpI32Add)
	b.Export("add", wasm.ExternFunc, fb.Index())
	m := b.Module()
	runBoth(t, m, "add", 2, 40)
	runBoth(t, m, "add", 0xffffffff, 1)
}

func TestCompileLoopSum(t *testing.T) {
	b := wasm.NewModuleBuilder()
	fb := b.Func("sum", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}}, wasm.I32, wasm.I32)
	fb.Block(wasm.BlockVoid)
	fb.Loop(wasm.BlockVoid)
	fb.LocalGet(1).LocalGet(0).Op(wasm.OpI32GeS).BrIf(1)
	fb.LocalGet(2).LocalGet(1).Op(wasm.OpI32Add).LocalSet(2)
	fb.LocalGet(1).I32Const(1).Op(wasm.OpI32Add).LocalSet(1)
	fb.Br(0)
	fb.End()
	fb.End()
	fb.LocalGet(2)
	b.Export("sum", wasm.ExternFunc, fb.Index())
	m := b.Module()
	for _, n := range []uint64{0, 1, 7, 100, 10000} {
		runBoth(t, m, "sum", n)
	}
}

func TestCompileMemory(t *testing.T) {
	b := wasm.NewModuleBuilder()
	b.Memory(1, 2)
	// fill(n): for i in 0..n: mem[i*4] = i*3; then checksum.
	fb := b.Func("fill", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}}, wasm.I32, wasm.I32)
	fb.Block(wasm.BlockVoid)
	fb.Loop(wasm.BlockVoid)
	fb.LocalGet(1).LocalGet(0).Op(wasm.OpI32GeU).BrIf(1)
	// mem[i*4] = i*3
	fb.LocalGet(1).I32Const(2).Op(wasm.OpI32Shl)
	fb.LocalGet(1).I32Const(3).Op(wasm.OpI32Mul)
	fb.Store(wasm.OpI32Store, 0)
	fb.LocalGet(1).I32Const(1).Op(wasm.OpI32Add).LocalSet(1)
	fb.Br(0)
	fb.End()
	fb.End()
	// checksum
	fb.I32Const(0).LocalSet(1)
	fb.Block(wasm.BlockVoid)
	fb.Loop(wasm.BlockVoid)
	fb.LocalGet(1).LocalGet(0).Op(wasm.OpI32GeU).BrIf(1)
	fb.LocalGet(2)
	fb.LocalGet(1).I32Const(2).Op(wasm.OpI32Shl).Load(wasm.OpI32Load, 0)
	fb.Op(wasm.OpI32Add).LocalSet(2)
	fb.LocalGet(1).I32Const(1).Op(wasm.OpI32Add).LocalSet(1)
	fb.Br(0)
	fb.End()
	fb.End()
	fb.LocalGet(2)
	b.Export("fill", wasm.ExternFunc, fb.Index())
	m := b.Module()
	runBoth(t, m, "fill", 100)
	runBoth(t, m, "fill", 4000)
}

func TestCompileIfElse(t *testing.T) {
	b := wasm.NewModuleBuilder()
	fb := b.Func("clamp", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	fb.LocalGet(0).I32Const(0).Op(wasm.OpI32LtS)
	fb.If(wasm.BlockOf(wasm.I32))
	fb.I32Const(0)
	fb.Else()
	fb.LocalGet(0).I32Const(100).Op(wasm.OpI32GtS)
	fb.If(wasm.BlockOf(wasm.I32))
	fb.I32Const(100)
	fb.Else()
	fb.LocalGet(0)
	fb.End()
	fb.End()
	b.Export("clamp", wasm.ExternFunc, fb.Index())
	m := b.Module()
	for _, v := range []uint64{5, 0, 100, 101, 0xffffffff, 50} {
		runBoth(t, m, "clamp", v)
	}
}

func TestCompileCallIndirect(t *testing.T) {
	b := wasm.NewModuleBuilder()
	sig := wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}}
	inc := b.Func("inc", sig)
	inc.LocalGet(0).I32Const(1).Op(wasm.OpI32Add)
	dbl := b.Func("dbl", sig)
	dbl.LocalGet(0).I32Const(2).Op(wasm.OpI32Mul)
	b.Table(3)
	b.Elem(0, []uint32{inc.Index(), dbl.Index()})
	disp := b.Func("dispatch", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	disp.LocalGet(1).LocalGet(0).CallIndirect(sig)
	b.Export("dispatch", wasm.ExternFunc, disp.Index())
	m := b.Module()
	runBoth(t, m, "dispatch", 0, 10)
	runBoth(t, m, "dispatch", 1, 10)
	runBoth(t, m, "dispatch", 2, 10) // null entry: traps everywhere
	runBoth(t, m, "dispatch", 9, 10) // out of bounds: traps everywhere
}

func TestCompileRecursion(t *testing.T) {
	b := wasm.NewModuleBuilder()
	sig := wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}}
	fb := b.Func("fib", sig)
	fb.LocalGet(0).I64Const(2).Op(wasm.OpI64LtS)
	fb.If(wasm.BlockOf(wasm.I64))
	fb.LocalGet(0)
	fb.Else()
	fb.LocalGet(0).I64Const(1).Op(wasm.OpI64Sub).Call(fb.Index())
	fb.LocalGet(0).I64Const(2).Op(wasm.OpI64Sub).Call(fb.Index())
	fb.Op(wasm.OpI64Add)
	fb.End()
	b.Export("fib", wasm.ExternFunc, fb.Index())
	m := b.Module()
	runBoth(t, m, "fib", 15)
}

func TestCompileF64(t *testing.T) {
	b := wasm.NewModuleBuilder()
	fb := b.Func("norm", wasm.FuncType{Params: []wasm.ValType{wasm.F64, wasm.F64}, Results: []wasm.ValType{wasm.F64}})
	fb.LocalGet(0).LocalGet(0).Op(wasm.OpF64Mul)
	fb.LocalGet(1).LocalGet(1).Op(wasm.OpF64Mul)
	fb.Op(wasm.OpF64Add).Op(wasm.OpF64Sqrt)
	b.Export("norm", wasm.ExternFunc, fb.Index())
	m := b.Module()
	runBoth(t, m, "norm", math.Float64bits(3), math.Float64bits(4))
	runBoth(t, m, "norm", math.Float64bits(-1.5), math.Float64bits(2.25))
}

func TestCompileF64Compare(t *testing.T) {
	b := wasm.NewModuleBuilder()
	fb := b.Func("flt", wasm.FuncType{Params: []wasm.ValType{wasm.F64, wasm.F64}, Results: []wasm.ValType{wasm.I32}})
	fb.LocalGet(0).LocalGet(1).Op(wasm.OpF64Lt)
	b.Export("flt", wasm.ExternFunc, fb.Index())
	feq := b.Func("feq", wasm.FuncType{Params: []wasm.ValType{wasm.F64, wasm.F64}, Results: []wasm.ValType{wasm.I32}})
	feq.LocalGet(0).LocalGet(1).Op(wasm.OpF64Eq)
	b.Export("feq", wasm.ExternFunc, feq.Index())
	m := b.Module()
	nan := math.Float64bits(math.NaN())
	one := math.Float64bits(1)
	two := math.Float64bits(2)
	runBoth(t, m, "flt", one, two)
	runBoth(t, m, "flt", two, one)
	runBoth(t, m, "flt", nan, one)
	runBoth(t, m, "flt", one, nan)
	runBoth(t, m, "feq", one, one)
	runBoth(t, m, "feq", nan, nan)
}

func TestCompileDivRem(t *testing.T) {
	b := wasm.NewModuleBuilder()
	for _, op := range []struct {
		name string
		op   wasm.Opcode
	}{
		{"divs", wasm.OpI32DivS}, {"divu", wasm.OpI32DivU},
		{"rems", wasm.OpI32RemS}, {"remu", wasm.OpI32RemU},
	} {
		fb := b.Func(op.name, wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
		fb.LocalGet(0).LocalGet(1).Op(op.op)
		b.Export(op.name, wasm.ExternFunc, fb.Index())
	}
	m := b.Module()
	neg7 := uint64(uint32(0xfffffff9))
	for _, name := range []string{"divs", "divu", "rems", "remu"} {
		runBoth(t, m, name, 100, 7)
		runBoth(t, m, name, neg7, 2)
		runBoth(t, m, name, 100, 0) // trap
	}
}

func TestCompileBrTable(t *testing.T) {
	m := buildBrTableModule()
	for _, v := range []uint64{0, 1, 2, 3, 99} {
		runBoth(t, m, "sel", v)
	}
}

// buildBrTableModule exports sel(i) = 10, 20, 30 for i = 0, 1 and any
// other value, dispatched through one br_table.
func buildBrTableModule() *wasm.Module {
	b := wasm.NewModuleBuilder()
	fb := b.Func("sel", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	fb.Block(wasm.BlockVoid)
	fb.Block(wasm.BlockVoid)
	fb.Block(wasm.BlockVoid)
	fb.LocalGet(0)
	fb.BrTable([]uint32{0, 1, 2})
	fb.End()
	fb.I32Const(10).Return()
	fb.End()
	fb.I32Const(20).Return()
	fb.End()
	fb.I32Const(30)
	b.Export("sel", wasm.ExternFunc, fb.Index())
	return b.Module()
}

func TestCompileGlobals(t *testing.T) {
	b := wasm.NewModuleBuilder()
	g0 := b.GlobalI32(1 << 16) // shadow stack pointer convention slot
	g1 := b.GlobalI32(7)
	fb := b.Func("bump", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	// g0 -= 16 (spill frame); g1 += arg; result = g1 + g0; g0 += 16
	fb.GlobalGet(g0).I32Const(16).Op(wasm.OpI32Sub).GlobalSet(g0)
	fb.GlobalGet(g1).LocalGet(0).Op(wasm.OpI32Add).GlobalSet(g1)
	fb.GlobalGet(g1).GlobalGet(g0).Op(wasm.OpI32Add)
	fb.GlobalGet(g0).I32Const(16).Op(wasm.OpI32Add).GlobalSet(g0)
	b.Export("bump", wasm.ExternFunc, fb.Index())
	m := b.Module()
	runBoth(t, m, "bump", 5)
}

func TestCompileSelect(t *testing.T) {
	b := wasm.NewModuleBuilder()
	fb := b.Func("max", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	fb.LocalGet(0).LocalGet(1)
	fb.LocalGet(0).LocalGet(1).Op(wasm.OpI32GtS)
	fb.Op(wasm.OpSelect)
	b.Export("max", wasm.ExternFunc, fb.Index())
	m := b.Module()
	runBoth(t, m, "max", 3, 9)
	runBoth(t, m, "max", 9, 3)
	runBoth(t, m, "max", 0xfffffffe, 1)
}

func TestCompileHostCall(t *testing.T) {
	b := wasm.NewModuleBuilder()
	ft := wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}}
	imp := b.ImportFunc("env", "twice", ft)
	fb := b.Func("run", ft)
	fb.LocalGet(0).Call(imp)
	fb.I32Const(1).Op(wasm.OpI32Add)
	b.Export("run", wasm.ExternFunc, fb.Index())
	m := b.Module()

	for _, cfg := range engines() {
		cm, err := codegen.Compile(m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		mi, err := cpu.Load(cm)
		if err != nil {
			t.Fatal(err)
		}
		arg0 := cfg.ArgGP[0]
		mi.BindHost(func(mach *cpu.Machine, imp int) error {
			v := mach.Regs[arg0]
			mach.Regs[0] = v * 2 // RAX
			return nil
		})
		got, err := mi.Invoke("run", 21)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if uint32(got) != 43 {
			t.Errorf("%s: run(21) = %d, want 43", cfg.Name, got)
		}
	}
}

func TestMemoryGrowCompiled(t *testing.T) {
	b := wasm.NewModuleBuilder()
	b.Memory(1, 4)
	fb := b.Func("grow", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	fb.LocalGet(0).Op(wasm.OpMemoryGrow)
	fb.Op(wasm.OpMemorySize).Op(wasm.OpI32Add)
	b.Export("grow", wasm.ExternFunc, fb.Index())
	m := b.Module()
	runBoth(t, m, "grow", 2) // 1 (old) + 3 (new size) = 4
}

// TestNativeSmallerThanChrome checks the paper's core code-size claim on a
// matmul-like kernel: native codegen emits meaningfully fewer instructions.
func TestNativeSmallerThanChrome(t *testing.T) {
	m := buildMatmulModule()
	nat, err := codegen.Compile(m, codegen.Native())
	if err != nil {
		t.Fatal(err)
	}
	chr, err := codegen.Compile(m, codegen.Chrome())
	if err != nil {
		t.Fatal(err)
	}
	ni := nat.Stats[0].Insts
	ci := chr.Stats[0].Insts
	if ni >= ci {
		t.Errorf("native matmul has %d instructions, chrome %d; expected native < chrome", ni, ci)
	}
	t.Logf("matmul instructions: native=%d chrome=%d", ni, ci)
}

// TestDeclinedRotationLowersNoGuard compiles an inner loop whose top test
// loads from linear memory and branches to the outer loop. Rotation cannot
// exit to a loop frame, so native declines it; the declined guard must not
// be lowered as well, or its load survives DCE and native reads memory
// twice per iteration where Chrome, which never rotates, reads once.
func TestDeclinedRotationLowersNoGuard(t *testing.T) {
	b := wasm.NewModuleBuilder()
	b.Memory(1, 1)
	b.Data(4, []byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	// count(p): n = 0; do { n++; p += 4 } while (mem[p] != 0); return n.
	fb := b.Func("count", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}}, wasm.I32)
	fb.Block(wasm.BlockVoid)
	fb.Loop(wasm.BlockVoid)
	fb.LocalGet(1).I32Const(1).Op(wasm.OpI32Add).LocalSet(1)
	fb.LocalGet(0).I32Const(4).Op(wasm.OpI32Add).LocalSet(0)
	fb.Loop(wasm.BlockVoid)
	fb.LocalGet(0).Load(wasm.OpI32Load, 0).BrIf(1)
	fb.Br(2)
	fb.End()
	fb.End()
	fb.End()
	fb.LocalGet(1)
	b.Export("count", wasm.ExternFunc, fb.Index())
	m := b.Module()
	runBoth(t, m, "count", 0)

	linearOperands := func(cfg *codegen.EngineConfig) int {
		cm, err := codegen.Compile(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, in := range cm.Prog.Code {
			for _, op := range []x86.Operand{in.Dst, in.Src} {
				if op.Kind == x86.KMem && (op.Mem.Base == cfg.MemBase || op.Mem.Index == cfg.MemBase) {
					n++
				}
			}
		}
		return n
	}
	nat, chr := linearOperands(codegen.Native()), linearOperands(codegen.Chrome())
	if nat != 1 || chr != 1 {
		t.Errorf("linear-memory operands: native %d, chrome %d; want 1 each", nat, chr)
	}
}

// TestRotatedLoopEdges covers rotation's exit and back-edge shapes: a
// back edge from a block nested in a rotated loop must re-run the test
// against the loop's own exit frame, and a top test that leaves the whole
// function (a frame with no follow block) is not rotated.
func TestRotatedLoopEdges(t *testing.T) {
	b := wasm.NewModuleBuilder()
	// nested(n): s = 0; while (n != 0) { s += 3; { n--; continue } } return s.
	fb := b.Func("nested", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}}, wasm.I32)
	fb.Block(wasm.BlockVoid)
	fb.Loop(wasm.BlockVoid)
	fb.LocalGet(0).Op(wasm.OpI32Eqz).BrIf(1)
	fb.LocalGet(1).I32Const(3).Op(wasm.OpI32Add).LocalSet(1)
	fb.Block(wasm.BlockVoid)
	fb.LocalGet(0).I32Const(1).Op(wasm.OpI32Sub).LocalSet(0)
	fb.Br(1)
	fb.End()
	fb.End()
	fb.End()
	fb.LocalGet(1)
	b.Export("nested", wasm.ExternFunc, fb.Index())
	// leave(n): while (n != 0) { g += 3; n-- } in a void function whose
	// loop test branches straight out of the function.
	g := b.GlobalI32(0)
	fb = b.Func("leave", wasm.FuncType{Params: []wasm.ValType{wasm.I32}})
	fb.Loop(wasm.BlockVoid)
	fb.LocalGet(0).Op(wasm.OpI32Eqz).BrIf(1)
	fb.GlobalGet(g).I32Const(3).Op(wasm.OpI32Add).GlobalSet(g)
	fb.LocalGet(0).I32Const(1).Op(wasm.OpI32Sub).LocalSet(0)
	fb.Br(0)
	fb.End()
	b.Export("leave", wasm.ExternFunc, fb.Index())
	m := b.Module()
	for _, n := range []uint64{0, 1, 5} {
		runBoth(t, m, "nested", n)
		runBoth(t, m, "leave", n)
	}
}

// buildMatmulModule builds matmul over i32 matrices at fixed sizes
// (the §5 case study shape) indexing memory directly.
func buildMatmulModule() *wasm.Module {
	const NI, NJ, NK = 8, 8, 8
	b := wasm.NewModuleBuilder()
	b.Memory(1, 1)
	// matmul(C, A, B base addrs)
	ft := wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32}}
	fb := b.Func("matmul", ft, wasm.I32, wasm.I32, wasm.I32) // i, k, j
	i, k, j := uint32(3), uint32(4), uint32(5)
	C, A, B := uint32(0), uint32(1), uint32(2)

	fb.I32Const(0).LocalSet(i)
	fb.Block(wasm.BlockVoid)
	fb.Loop(wasm.BlockVoid)
	fb.LocalGet(i).I32Const(NI).Op(wasm.OpI32GeS).BrIf(1)
	{
		fb.I32Const(0).LocalSet(k)
		fb.Block(wasm.BlockVoid)
		fb.Loop(wasm.BlockVoid)
		fb.LocalGet(k).I32Const(NK).Op(wasm.OpI32GeS).BrIf(1)
		{
			fb.I32Const(0).LocalSet(j)
			fb.Block(wasm.BlockVoid)
			fb.Loop(wasm.BlockVoid)
			fb.LocalGet(j).I32Const(NJ).Op(wasm.OpI32GeS).BrIf(1)
			{
				// C[i*NJ+j] += A[i*NK+k] * B[k*NJ+j]
				// addrC = C + (i*NJ+j)*4
				fb.LocalGet(C)
				fb.LocalGet(i).I32Const(NJ).Op(wasm.OpI32Mul)
				fb.LocalGet(j).Op(wasm.OpI32Add)
				fb.I32Const(2).Op(wasm.OpI32Shl)
				fb.Op(wasm.OpI32Add)
				// value = load C + A*B
				fb.LocalGet(C)
				fb.LocalGet(i).I32Const(NJ).Op(wasm.OpI32Mul)
				fb.LocalGet(j).Op(wasm.OpI32Add)
				fb.I32Const(2).Op(wasm.OpI32Shl)
				fb.Op(wasm.OpI32Add)
				fb.Load(wasm.OpI32Load, 0)
				fb.LocalGet(A)
				fb.LocalGet(i).I32Const(NK).Op(wasm.OpI32Mul)
				fb.LocalGet(k).Op(wasm.OpI32Add)
				fb.I32Const(2).Op(wasm.OpI32Shl)
				fb.Op(wasm.OpI32Add)
				fb.Load(wasm.OpI32Load, 0)
				fb.LocalGet(B)
				fb.LocalGet(k).I32Const(NJ).Op(wasm.OpI32Mul)
				fb.LocalGet(j).Op(wasm.OpI32Add)
				fb.I32Const(2).Op(wasm.OpI32Shl)
				fb.Op(wasm.OpI32Add)
				fb.Load(wasm.OpI32Load, 0)
				fb.Op(wasm.OpI32Mul)
				fb.Op(wasm.OpI32Add)
				fb.Store(wasm.OpI32Store, 0)
				fb.LocalGet(j).I32Const(1).Op(wasm.OpI32Add).LocalSet(j)
			}
			fb.Br(0)
			fb.End()
			fb.End()
			fb.LocalGet(k).I32Const(1).Op(wasm.OpI32Add).LocalSet(k)
		}
		fb.Br(0)
		fb.End()
		fb.End()
		fb.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalSet(i)
	}
	fb.Br(0)
	fb.End()
	fb.End()
	b.Export("matmul", wasm.ExternFunc, fb.Index())

	// checksum over C
	cs := b.Func("checksum", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}}, wasm.I32, wasm.I32)
	cs.Block(wasm.BlockVoid)
	cs.Loop(wasm.BlockVoid)
	cs.LocalGet(1).I32Const(NI * NJ).Op(wasm.OpI32GeS).BrIf(1)
	cs.LocalGet(2)
	cs.LocalGet(0).LocalGet(1).I32Const(2).Op(wasm.OpI32Shl).Op(wasm.OpI32Add).Load(wasm.OpI32Load, 0)
	cs.Op(wasm.OpI32Add).LocalSet(2)
	cs.LocalGet(1).I32Const(1).Op(wasm.OpI32Add).LocalSet(1)
	cs.Br(0)
	cs.End()
	cs.End()
	cs.LocalGet(2)
	b.Export("checksum", wasm.ExternFunc, cs.Index())

	// init fills A and B with i*7+3 patterns
	init := b.Func("init", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}}, wasm.I32)
	init.Block(wasm.BlockVoid)
	init.Loop(wasm.BlockVoid)
	init.LocalGet(2).I32Const(NI * NK).Op(wasm.OpI32GeS).BrIf(1)
	init.LocalGet(0).LocalGet(2).I32Const(2).Op(wasm.OpI32Shl).Op(wasm.OpI32Add)
	init.LocalGet(2).I32Const(7).Op(wasm.OpI32Mul).I32Const(3).Op(wasm.OpI32Add)
	init.Store(wasm.OpI32Store, 0)
	init.LocalGet(1).LocalGet(2).I32Const(2).Op(wasm.OpI32Shl).Op(wasm.OpI32Add)
	init.LocalGet(2).I32Const(5).Op(wasm.OpI32Mul).I32Const(1).Op(wasm.OpI32Add)
	init.Store(wasm.OpI32Store, 0)
	init.LocalGet(2).I32Const(1).Op(wasm.OpI32Add).LocalSet(2)
	init.Br(0)
	init.End()
	init.End()
	b.Export("init", wasm.ExternFunc, init.Index())
	return b.Module()
}

// TestMatmulDifferential runs the full matmul on every engine and the
// interpreter and compares checksums.
func TestMatmulDifferential(t *testing.T) {
	m := buildMatmulModule()
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	const cAddr, aAddr, bAddr = 0, 4096, 8192

	inst, err := wasm.Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("init", aAddr, bAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("matmul", cAddr, aAddr, bAddr); err != nil {
		t.Fatal(err)
	}
	want, err := inst.Invoke("checksum", cAddr)
	if err != nil {
		t.Fatal(err)
	}

	for _, cfg := range engines() {
		cm, err := codegen.Compile(m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		mi, err := cpu.Load(cm)
		if err != nil {
			t.Fatal(err)
		}
		mi.BindHost(nil)
		if _, err := mi.Invoke("init", aAddr, bAddr); err != nil {
			t.Fatalf("%s init: %v", cfg.Name, err)
		}
		if _, err := mi.Invoke("matmul", cAddr, aAddr, bAddr); err != nil {
			t.Fatalf("%s matmul: %v", cfg.Name, err)
		}
		got, err := mi.Invoke("checksum", cAddr)
		if err != nil {
			t.Fatalf("%s checksum: %v", cfg.Name, err)
		}
		if uint32(got) != uint32(want[0]) {
			t.Errorf("%s: checksum = %#x, interpreter %#x", cfg.Name, got, want[0])
		}
	}
}
