package wasm

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// buildAddModule returns a module exporting add(i32,i32)->i32.
func buildAddModule(t *testing.T) *Module {
	t.Helper()
	b := NewModuleBuilder()
	fb := b.Func("add", FuncType{Params: []ValType{I32, I32}, Results: []ValType{I32}})
	fb.LocalGet(0).LocalGet(1).Op(OpI32Add)
	b.Export("add", ExternFunc, fb.Index())
	return b.Module()
}

func TestAddModule(t *testing.T) {
	m := buildAddModule(t)
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	res, err := inst.Invoke("add", 2, 40)
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if len(res) != 1 || uint32(res[0]) != 42 {
		t.Fatalf("add(2,40) = %v, want [42]", res)
	}
	// Wrapping behaviour.
	res, err = inst.Invoke("add", uint64(uint32(0xffffffff)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(res[0]) != 0 {
		t.Fatalf("add(-1,1) = %d, want 0", uint32(res[0]))
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	m := buildAddModule(t)
	bin := Encode(m)
	m2, err := Decode(bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := Validate(m2); err != nil {
		t.Fatalf("validate decoded: %v", err)
	}
	if !reflect.DeepEqual(m.Types, m2.Types) {
		t.Errorf("types differ: %v vs %v", m.Types, m2.Types)
	}
	if len(m2.Funcs) != 1 || len(m2.Funcs[0].Body) != len(m.Funcs[0].Body) {
		t.Errorf("function body length mismatch")
	}
	inst, err := Instantiate(m2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("add", 5, 6)
	if err != nil || uint32(res[0]) != 11 {
		t.Fatalf("decoded add(5,6) = %v, %v", res, err)
	}
}

// buildLoopSum builds sum(n) = 0+1+...+(n-1) with a loop.
func buildLoopSum(b *ModuleBuilder) uint32 {
	fb := b.Func("sum", FuncType{Params: []ValType{I32}, Results: []ValType{I32}}, I32, I32) // locals: i, acc
	// for (i = 0; i < n; i++) acc += i
	fb.Block(BlockVoid)
	fb.Loop(BlockVoid)
	// if i >= n, break
	fb.LocalGet(1).LocalGet(0).Op(OpI32GeS).BrIf(1)
	// acc += i
	fb.LocalGet(2).LocalGet(1).Op(OpI32Add).LocalSet(2)
	// i++
	fb.LocalGet(1).I32Const(1).Op(OpI32Add).LocalSet(1)
	fb.Br(0)
	fb.End() // loop
	fb.End() // block
	fb.LocalGet(2)
	b.Export("sum", ExternFunc, fb.Index())
	return fb.Index()
}

func TestLoopSum(t *testing.T) {
	b := NewModuleBuilder()
	buildLoopSum(b)
	m := b.Module()
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 2, 10, 100} {
		res, err := inst.Invoke("sum", uint64(n))
		if err != nil {
			t.Fatalf("sum(%d): %v", n, err)
		}
		want := uint32(n * (n - 1) / 2)
		if uint32(res[0]) != want {
			t.Errorf("sum(%d) = %d, want %d", n, uint32(res[0]), want)
		}
	}
}

func TestIfElse(t *testing.T) {
	b := NewModuleBuilder()
	fb := b.Func("abs", FuncType{Params: []ValType{I32}, Results: []ValType{I32}})
	fb.LocalGet(0).I32Const(0).Op(OpI32LtS)
	fb.If(BlockOf(I32))
	fb.I32Const(0).LocalGet(0).Op(OpI32Sub)
	fb.Else()
	fb.LocalGet(0)
	fb.End()
	b.Export("abs", ExternFunc, fb.Index())
	m := b.Module()
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[int32]int32{5: 5, -5: 5, 0: 0, -2147483647: 2147483647}
	for in, want := range cases {
		res, err := inst.Invoke("abs", uint64(uint32(in)))
		if err != nil {
			t.Fatal(err)
		}
		if int32(res[0]) != want {
			t.Errorf("abs(%d) = %d, want %d", in, int32(res[0]), want)
		}
	}
}

func TestMemoryLoadStore(t *testing.T) {
	b := NewModuleBuilder()
	b.Memory(1, 1)
	fb := b.Func("poke", FuncType{Params: []ValType{I32, I32}})
	fb.LocalGet(0).LocalGet(1).Store(OpI32Store, 0)
	b.Export("poke", ExternFunc, fb.Index())
	fb2 := b.Func("peek", FuncType{Params: []ValType{I32}, Results: []ValType{I32}})
	fb2.LocalGet(0).Load(OpI32Load, 0)
	b.Export("peek", ExternFunc, fb2.Index())
	m := b.Module()
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("poke", 100, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("peek", 100)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(res[0]) != 0xdeadbeef {
		t.Fatalf("peek = %#x", res[0])
	}
	// Out-of-bounds traps.
	if _, err := inst.Invoke("peek", 65536); err == nil {
		t.Error("expected OOB trap")
	}
	if _, err := inst.Invoke("peek", 65533); err == nil {
		t.Error("expected OOB trap for partially out-of-range access")
	}
}

func TestDivTraps(t *testing.T) {
	b := NewModuleBuilder()
	fb := b.Func("div", FuncType{Params: []ValType{I32, I32}, Results: []ValType{I32}})
	fb.LocalGet(0).LocalGet(1).Op(OpI32DivS)
	b.Export("div", ExternFunc, fb.Index())
	m := b.Module()
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("div", 1, 0); err == nil {
		t.Error("expected divide-by-zero trap")
	}
	if _, err := inst.Invoke("div", uint64(uint32(1)<<31), uint64(uint32(0xffffffff))); err == nil {
		t.Error("expected overflow trap for MinInt32 / -1")
	}
	negSeven := uint64(uint32(0xfffffff9)) // -7 as u32
	res, err := inst.Invoke("div", negSeven, 2)
	if err != nil {
		t.Fatal(err)
	}
	if int32(res[0]) != -3 {
		t.Errorf("div(-7,2) = %d, want -3 (truncating)", int32(res[0]))
	}
}

func TestCallIndirect(t *testing.T) {
	b := NewModuleBuilder()
	sig := FuncType{Params: []ValType{I32}, Results: []ValType{I32}}
	inc := b.Func("inc", sig)
	inc.LocalGet(0).I32Const(1).Op(OpI32Add)
	dbl := b.Func("dbl", sig)
	dbl.LocalGet(0).I32Const(2).Op(OpI32Mul)
	b.Table(2)
	b.Elem(0, []uint32{inc.Index(), dbl.Index()})
	disp := b.Func("dispatch", FuncType{Params: []ValType{I32, I32}, Results: []ValType{I32}})
	disp.LocalGet(1).LocalGet(0).CallIndirect(sig)
	b.Export("dispatch", ExternFunc, disp.Index())
	m := b.Module()
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := inst.Invoke("dispatch", 0, 10)
	if uint32(res[0]) != 11 {
		t.Errorf("dispatch(0,10) = %d, want 11", res[0])
	}
	res, _ = inst.Invoke("dispatch", 1, 10)
	if uint32(res[0]) != 20 {
		t.Errorf("dispatch(1,10) = %d, want 20", res[0])
	}
	if _, err := inst.Invoke("dispatch", 5, 10); err == nil {
		t.Error("expected trap for out-of-range table index")
	}
}

func TestHostFunc(t *testing.T) {
	b := NewModuleBuilder()
	logT := FuncType{Params: []ValType{I32}, Results: []ValType{I32}}
	imp := b.ImportFunc("env", "twice", logT)
	fb := b.Func("run", FuncType{Params: []ValType{I32}, Results: []ValType{I32}})
	fb.LocalGet(0).Call(imp)
	b.Export("run", ExternFunc, fb.Index())
	m := b.Module()
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	inst, err := Instantiate(m, &Imports{Funcs: map[string]HostFunc{
		"env.twice": {Type: logT, Fn: func(_ *Instance, args []uint64) ([]uint64, error) {
			return []uint64{args[0] * 2}, nil
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("run", 21)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(res[0]) != 42 {
		t.Fatalf("run(21) = %d", res[0])
	}
}

func TestBrTable(t *testing.T) {
	b := NewModuleBuilder()
	fb := b.Func("sel", FuncType{Params: []ValType{I32}, Results: []ValType{I32}})
	// switch(x): case0 -> 10, case1 -> 20, default -> 30
	fb.Block(BlockVoid) // depth 2 when inside all
	fb.Block(BlockVoid)
	fb.Block(BlockVoid)
	fb.LocalGet(0)
	fb.BrTable([]uint32{0, 1, 2})
	fb.End()
	fb.I32Const(10).Return()
	fb.End()
	fb.I32Const(20).Return()
	fb.End()
	fb.I32Const(30)
	b.Export("sel", ExternFunc, fb.Index())
	m := b.Module()
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint32{0: 10, 1: 20, 2: 30, 99: 30}
	for in, w := range want {
		res, err := inst.Invoke("sel", in)
		if err != nil {
			t.Fatal(err)
		}
		if uint32(res[0]) != w {
			t.Errorf("sel(%d) = %d, want %d", in, res[0], w)
		}
	}
}

func TestF64Arith(t *testing.T) {
	b := NewModuleBuilder()
	fb := b.Func("hyp", FuncType{Params: []ValType{F64, F64}, Results: []ValType{F64}})
	fb.LocalGet(0).LocalGet(0).Op(OpF64Mul)
	fb.LocalGet(1).LocalGet(1).Op(OpF64Mul)
	fb.Op(OpF64Add).Op(OpF64Sqrt)
	b.Export("hyp", ExternFunc, fb.Index())
	m := b.Module()
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("hyp", math.Float64bits(3), math.Float64bits(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(res[0]); got != 5 {
		t.Errorf("hyp(3,4) = %g, want 5", got)
	}
}

func TestValidateRejects(t *testing.T) {
	// Type mismatch: i32.add on f64 operands.
	b := NewModuleBuilder()
	fb := b.Func("bad", FuncType{Results: []ValType{I32}})
	fb.F64Const(1).F64Const(2).Op(OpI32Add)
	m := b.Module()
	if err := Validate(m); err == nil {
		t.Error("expected validation error for f64 operands to i32.add")
	}

	// Stack underflow.
	b2 := NewModuleBuilder()
	fb2 := b2.Func("bad2", FuncType{Results: []ValType{I32}})
	fb2.Op(OpI32Add)
	if err := Validate(b2.Module()); err == nil {
		t.Error("expected validation error for stack underflow")
	}

	// Branch depth out of range.
	b3 := NewModuleBuilder()
	fb3 := b3.Func("bad3", FuncType{})
	fb3.Br(5)
	if err := Validate(b3.Module()); err == nil {
		t.Error("expected validation error for bad branch depth")
	}

	// Local index out of range.
	b4 := NewModuleBuilder()
	fb4 := b4.Func("bad4", FuncType{Results: []ValType{I32}})
	fb4.LocalGet(3)
	if err := Validate(b4.Module()); err == nil {
		t.Error("expected validation error for bad local index")
	}

	// If with result but no else.
	b5 := NewModuleBuilder()
	fb5 := b5.Func("bad5", FuncType{Results: []ValType{I32}})
	fb5.I32Const(1).If(BlockOf(I32)).I32Const(2).End()
	if err := Validate(b5.Module()); err == nil {
		t.Error("expected validation error for if-with-result without else")
	}
	_ = fb
}

func TestValidateUnreachableCode(t *testing.T) {
	// Code after br is unreachable; polymorphic stack must accept anything.
	b := NewModuleBuilder()
	fb := b.Func("f", FuncType{Results: []ValType{I32}})
	fb.Block(BlockOf(I32))
	fb.I32Const(1).Br(0)
	fb.Op(OpI32Add) // unreachable, operands come from the polymorphic stack
	fb.End()
	m := b.Module()
	if err := Validate(m); err != nil {
		t.Errorf("unreachable code should validate: %v", err)
	}
}

func TestMemoryGrow(t *testing.T) {
	b := NewModuleBuilder()
	b.Memory(1, 4)
	fb := b.Func("grow", FuncType{Params: []ValType{I32}, Results: []ValType{I32}})
	fb.LocalGet(0).Op(OpMemoryGrow)
	b.Export("grow", ExternFunc, fb.Index())
	fb2 := b.Func("size", FuncType{Results: []ValType{I32}})
	fb2.Op(OpMemorySize)
	b.Export("size", ExternFunc, fb2.Index())
	m := b.Module()
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := inst.Invoke("size")
	if uint32(res[0]) != 1 {
		t.Fatalf("initial size = %d", res[0])
	}
	res, _ = inst.Invoke("grow", 2)
	if int32(res[0]) != 1 {
		t.Fatalf("grow(2) = %d, want 1 (old size)", int32(res[0]))
	}
	res, _ = inst.Invoke("size")
	if uint32(res[0]) != 3 {
		t.Fatalf("size after grow = %d, want 3", res[0])
	}
	res, _ = inst.Invoke("grow", 100)
	if int32(res[0]) != -1 {
		t.Fatalf("grow(100) = %d, want -1 (exceeds max)", int32(res[0]))
	}
}

func TestGlobals(t *testing.T) {
	b := NewModuleBuilder()
	g := b.GlobalI32(100)
	fb := b.Func("bump", FuncType{Params: []ValType{I32}, Results: []ValType{I32}})
	fb.GlobalGet(g).LocalGet(0).Op(OpI32Add).GlobalSet(g)
	fb.GlobalGet(g)
	b.Export("bump", ExternFunc, fb.Index())
	m := b.Module()
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := inst.Invoke("bump", 5)
	if uint32(res[0]) != 105 {
		t.Fatalf("bump = %d", res[0])
	}
	res, _ = inst.Invoke("bump", 5)
	if uint32(res[0]) != 110 {
		t.Fatalf("bump 2 = %d", res[0])
	}
}

func TestRecursionFactorial(t *testing.T) {
	b := NewModuleBuilder()
	sig := FuncType{Params: []ValType{I64}, Results: []ValType{I64}}
	fb := b.Func("fact", sig)
	fb.LocalGet(0).I64Const(2).Op(OpI64LtS)
	fb.If(BlockOf(I64))
	fb.I64Const(1)
	fb.Else()
	fb.LocalGet(0)
	fb.LocalGet(0).I64Const(1).Op(OpI64Sub).Call(fb.Index())
	fb.Op(OpI64Mul)
	fb.End()
	b.Export("fact", ExternFunc, fb.Index())
	m := b.Module()
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("fact", 20)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 2432902008176640000 {
		t.Fatalf("fact(20) = %d", res[0])
	}
}

func TestDataSegments(t *testing.T) {
	b := NewModuleBuilder()
	b.Memory(1, 1)
	b.Data(16, []byte("hello"))
	fb := b.Func("byteAt", FuncType{Params: []ValType{I32}, Results: []ValType{I32}})
	fb.LocalGet(0).Load(OpI32Load8U, 0)
	b.Export("byteAt", ExternFunc, fb.Index())
	m := b.Module()
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := inst.Invoke("byteAt", 16)
	if byte(res[0]) != 'h' {
		t.Fatalf("byteAt(16) = %c", byte(res[0]))
	}
	res, _ = inst.Invoke("byteAt", 20)
	if byte(res[0]) != 'o' {
		t.Fatalf("byteAt(20) = %c", byte(res[0]))
	}
}

func TestEncodeDecodeComplex(t *testing.T) {
	b := NewModuleBuilder()
	b.Memory(2, 10)
	b.Data(0, []byte{1, 2, 3, 4})
	g := b.GlobalI32(7)
	sig := FuncType{Params: []ValType{I32}, Results: []ValType{I32}}
	f1 := b.Func("f1", sig, I32, I64, I64, F64, F64, F64)
	f1.LocalGet(0).GlobalGet(g).Op(OpI32Add)
	b.Table(1)
	b.Elem(0, []uint32{f1.Index()})
	f2 := b.Func("f2", sig)
	f2.LocalGet(0).I32Const(0).CallIndirect(sig)
	b.Export("f2", ExternFunc, f2.Index())
	b.Export("mem", ExternMemory, 0)
	m := b.Module()
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}

	bin := Encode(m)
	m2, err := Decode(bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := Validate(m2); err != nil {
		t.Fatalf("validate round-tripped: %v", err)
	}
	if !reflect.DeepEqual(m2.Funcs[0].Locals, m.Funcs[0].Locals) {
		t.Errorf("locals %v after round trip, want %v", m2.Funcs[0].Locals, m.Funcs[0].Locals)
	}
	// Local runs count against one per-function limit of 1<<20.
	huge := *m
	huge.Funcs = slices.Clone(m.Funcs)
	huge.Funcs[0].Locals = append(slices.Repeat([]ValType{I32}, 1<<19), slices.Repeat([]ValType{I64}, 1<<19+1)...)
	if _, err := Decode(Encode(&huge)); err == nil {
		t.Error("decoded a function with more than 1<<20 locals")
	}
	inst, err := Instantiate(m2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Invoke("f2", 35)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(res[0]) != 42 {
		t.Fatalf("f2(35) = %d, want 42", res[0])
	}
}

func TestPrint(t *testing.T) {
	m := buildAddModule(t)
	s := Print(m)
	for _, want := range []string{"(module", "local.get 0", "i32.add", `export "add"`} {
		if !contains(s, want) {
			t.Errorf("Print output missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestBuilderInterleavedFuncs pins a former footgun: a FuncBuilder created
// before later Func calls kept a pointer into the module's function slice,
// so the append's reallocation orphaned it and its instructions went to a
// stale copy. Builders must stay usable in any interleaving.
func TestBuilderInterleavedFuncs(t *testing.T) {
	b := NewModuleBuilder()
	sig := FuncType{Results: []ValType{I32}}
	first := b.Func("first", sig)
	// Force the Funcs slice to reallocate several times.
	for i := 0; i < 9; i++ {
		f := b.Func("", sig)
		f.I32Const(int32(i))
	}
	first.I32Const(77)
	b.Export("first", ExternFunc, first.Index())
	m := b.Module()
	if err := Validate(m); err != nil {
		t.Fatalf("module invalid: %v", err)
	}
	if len(m.Funcs[0].Body) != 2 { // i32.const 77, end
		t.Fatalf("first function body has %d instrs, want 2", len(m.Funcs[0].Body))
	}
	inst, err := Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := inst.Invoke("first")
	if err != nil {
		t.Fatal(err)
	}
	if int32(ret[0]) != 77 {
		t.Fatalf("first() = %d, want 77", int32(ret[0]))
	}
}
