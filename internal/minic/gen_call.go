package minic

import (
	"repro/internal/wasm"
)

var (
	sigDouble = &FuncSig{Params: []*Type{tyDouble}, Ret: tyDouble}
	sigFloat  = &FuncSig{Params: []*Type{tyFloat}, Ret: tyFloat}
	sigMinMax = &FuncSig{Params: []*Type{tyDouble, tyDouble}, Ret: tyDouble}
	sigInt    = &FuncSig{Ret: tyInt}
)

// intrinsics map directly to wasm instructions.
var intrinsics = map[string]struct {
	op  wasm.Opcode
	sig *FuncSig
}{
	"sqrt":        {wasm.OpF64Sqrt, sigDouble},
	"fabs":        {wasm.OpF64Abs, sigDouble},
	"floor":       {wasm.OpF64Floor, sigDouble},
	"ceil":        {wasm.OpF64Ceil, sigDouble},
	"trunc":       {wasm.OpF64Trunc, sigDouble},
	"sqrtf":       {wasm.OpF32Sqrt, sigFloat},
	"fabsf":       {wasm.OpF32Abs, sigFloat},
	"fmin":        {wasm.OpF64Min, sigMinMax},
	"fmax":        {wasm.OpF64Max, sigMinMax},
	"mem_pages":   {wasm.OpMemorySize, sigInt},
	"grow_memory": {wasm.OpMemoryGrow, &FuncSig{Params: []*Type{tyInt}, Ret: tyInt}},
}

// call generates function calls: intrinsics, syscalls, direct calls, and
// indirect calls through function pointers.
func (fg *fgen) call(e *Expr) error {
	fb := fg.fb
	sig, direct := fg.g.directCall(e)
	if !direct {
		sig = e.X.value().Fn
	}
	for i, a := range e.Args {
		if err := fg.exprTo(a, sig.Params[i], a.Line); err != nil {
			return err
		}
	}
	if !direct {
		if err := fg.expr(e.X); err != nil {
			return err
		}
		fb.CallIndirect(fg.g.wasmSig(sig))
		return nil
	}
	name := e.X.Name
	if name == "heap_base" {
		fb.GlobalGet(fg.g.heapGlobal)
		return nil
	}
	if name == "heap_end" {
		fb.GlobalGet(fg.g.heapEndG)
		return nil
	}
	if in, ok := intrinsics[name]; ok {
		fb.Op(in.op)
		return nil
	}
	fi, ok := fg.g.imports[name]
	if !ok {
		fi = fg.g.funcs[name]
	}
	fb.Call(fi.idx)
	return nil
}
