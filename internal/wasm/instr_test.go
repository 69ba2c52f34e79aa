package wasm

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestInstrLayout pins Instr at 32 bytes or less with no pointer anywhere in
// it, so function bodies are noscan arrays: br_table target lists live in
// Func.BrTables, not in the instruction.
func TestInstrLayout(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n > 32 {
		t.Errorf("unsafe.Sizeof(Instr{}) = %d, want <= 32", n)
	}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: Instr must hold no pointers", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(Instr{}), "Instr")
}

// buildTwoSwitchModule exports pick(x) = first(x) + second(x) in one
// function with two br_tables: the first maps 0/1/other to 1/2/0, the
// second 0/1/2/other to 40/10/20/30.
func buildTwoSwitchModule() *Module {
	b := NewModuleBuilder()
	fb := b.Func("pick", FuncType{Params: []ValType{I32}, Results: []ValType{I32}})
	r := fb.AddLocal(I32)
	fb.Block(BlockVoid).Block(BlockVoid).Block(BlockVoid)
	fb.LocalGet(0).BrTable([]uint32{0, 1, 2})
	fb.End().I32Const(1).LocalSet(r).Br(1)
	fb.End().I32Const(2).LocalSet(r).Br(0)
	fb.End()
	fb.LocalGet(r).I32Const(0).LocalSet(r)
	fb.Block(BlockVoid).Block(BlockVoid).Block(BlockVoid).Block(BlockVoid).Block(BlockVoid)
	fb.LocalGet(0).BrTable([]uint32{3, 0, 1, 2})
	fb.End().I32Const(10).LocalSet(r).Br(3)
	fb.End().I32Const(20).LocalSet(r).Br(2)
	fb.End().I32Const(30).LocalSet(r).Br(1)
	fb.End().I32Const(40).LocalSet(r)
	fb.End()
	fb.LocalGet(r).Op(OpI32Add)
	b.Export("pick", ExternFunc, fb.Index())
	return b.Module()
}

// TestBrTableRoundTrip sends a function with two br_tables through Encode,
// Decode, Print and the reference interpreter: the target lists survive
// each, in order, and select the right arm on both copies of the module.
func TestBrTableRoundTrip(t *testing.T) {
	m := buildTwoSwitchModule()
	if err := Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	want := [][]uint32{{0, 1, 2}, {3, 0, 1, 2}}
	if got := m.Funcs[0].BrTables; !reflect.DeepEqual(got, want) {
		t.Fatalf("built BrTables = %v, want %v", got, want)
	}
	enc := Encode(m)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := dec.Funcs[0].BrTables; !reflect.DeepEqual(got, want) {
		t.Errorf("decoded BrTables = %v, want %v", got, want)
	}
	if re := Encode(dec); !bytes.Equal(re, enc) {
		t.Errorf("re-encoding the decoded module changed its bytes")
	}
	text := Print(dec)
	for _, line := range []string{"br_table [0 1 2]", "br_table [3 0 1 2]"} {
		if !strings.Contains(text, line) {
			t.Errorf("Print lacks %q:\n%s", line, text)
		}
	}
	for name, mod := range map[string]*Module{"built": m, "decoded": dec} {
		inst, err := Instantiate(mod, nil)
		if err != nil {
			t.Fatal(err)
		}
		for x, w := range map[uint64]uint32{0: 41, 1: 12, 2: 20, 7: 30} {
			res, err := inst.Invoke("pick", x)
			if err != nil {
				t.Fatal(err)
			}
			if uint32(res[0]) != w {
				t.Errorf("%s: pick(%d) = %d, want %d", name, x, res[0], w)
			}
		}
	}
}

// TestValidateBrTableIndex checks the validator rejects a br_table whose
// index names no entry of the function's BrTables, or an empty one.
func TestValidateBrTableIndex(t *testing.T) {
	for _, idx := range []int64{-1, 2, 1 << 40} {
		m := buildTwoSwitchModule()
		body := m.Funcs[0].Body
		for i := range body {
			if body[i].Op == OpBrTable {
				body[i].I64 = idx
				break
			}
		}
		err := Validate(m)
		if err == nil || !strings.Contains(err.Error(), "no target list") {
			t.Errorf("br_table index %d: Validate = %v, want a no-target-list error", idx, err)
		}
	}
	m := buildTwoSwitchModule()
	m.Funcs[0].BrTables[0] = nil
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "no target list") {
		t.Errorf("empty target list: Validate = %v, want a no-target-list error", err)
	}
}
