package minic

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/wasm"
)

// ABI selects the target data model. Browsers compile the 4-byte-pointer
// build; the native backend compiles the 8-byte-pointer build, mirroring
// wasm32 vs x86-64 data layout (the paper's mcf/milc pointer-density effect).
type ABI struct {
	PtrSize int
	// StackSize is the shadow stack reservation.
	StackSize int
	// HeapSize is the initial heap arena.
	HeapSize int
}

// ABI32 is the wasm32 (Emscripten) data model.
var ABI32 = ABI{PtrSize: 4, StackSize: 1 << 20, HeapSize: 1 << 22}

// ABI64 is the native x86-64 data model.
var ABI64 = ABI{PtrSize: 8, StackSize: 1 << 20, HeapSize: 1 << 22}

// dataBase is where globals and literals start (below: null guard + argv).
const dataBase = 4096

// syscallImports lists the Browsix syscall ABI in fixed import order.
var syscallImports = []struct {
	name string
	sig  *FuncSig
}{
	{"sys_open", &FuncSig{Params: []*Type{ptrTo(tyChar), tyInt, tyInt}, Ret: tyInt}},
	{"sys_close", &FuncSig{Params: []*Type{tyInt}, Ret: tyInt}},
	{"sys_read", &FuncSig{Params: []*Type{tyInt, ptrTo(tyChar), tyInt}, Ret: tyInt}},
	{"sys_write", &FuncSig{Params: []*Type{tyInt, ptrTo(tyChar), tyInt}, Ret: tyInt}},
	{"sys_lseek", &FuncSig{Params: []*Type{tyInt, tyInt, tyInt}, Ret: tyInt}},
	{"sys_stat_size", &FuncSig{Params: []*Type{ptrTo(tyChar)}, Ret: tyInt}},
	{"sys_unlink", &FuncSig{Params: []*Type{ptrTo(tyChar)}, Ret: tyInt}},
	{"sys_mkdir", &FuncSig{Params: []*Type{ptrTo(tyChar)}, Ret: tyInt}},
	{"sys_pipe", &FuncSig{Params: []*Type{ptrTo(tyInt)}, Ret: tyInt}},
	{"sys_dup2", &FuncSig{Params: []*Type{tyInt, tyInt}, Ret: tyInt}},
	{"sys_spawn", &FuncSig{Params: []*Type{ptrTo(tyChar), ptrTo(ptrTo(tyChar))}, Ret: tyInt}},
	{"sys_wait", &FuncSig{Params: []*Type{tyInt}, Ret: tyInt}},
	{"sys_exit", &FuncSig{Params: []*Type{tyInt}, Ret: tyInt}},
	{"sys_getpid", &FuncSig{Params: []*Type{}, Ret: tyInt}},
	{"sys_now", &FuncSig{Params: []*Type{}, Ret: tyInt}},
	{"perf_begin", &FuncSig{Params: []*Type{}, Ret: tyInt}},
	{"perf_end", &FuncSig{Params: []*Type{}, Ret: tyInt}},
}

// gen is module-level code generation state.
type gen struct {
	prog *Program
	abi  ABI
	b    *wasm.ModuleBuilder

	// The data image starting at dataBase is dataLen bytes long, of which
	// only the runs carry bytes (in runBytes); the rest is bss, left to
	// zero-initialized linear memory as Emscripten does.
	dataLen    int
	runs       []dataRun
	runBytes   []byte
	globalAddr map[string]int64
	globalType map[string]*Type
	strAddr    map[string]int64

	funcs   map[string]*funcInfo
	imports map[string]*funcInfo

	table     []string // function names by table slot (slot 0 = null)
	tableSlot map[string]int

	spGlobal   uint32
	heapGlobal uint32
	heapEndG   uint32
}

// dataRun is one initialized run of the data image: runBytes[lo:hi] at
// image offset off.
type dataRun struct{ off, lo, hi int }

// maxZeroGap is the longest zero stretch merged into a segment rather than
// splitting it: a segment header costs about as many bytes.
const maxZeroGap = 8

type funcInfo struct {
	decl *FuncDecl
	idx  uint32
	sig  *FuncSig
}

// Compile compiles mini-C source (with the runtime prelude) to a validated
// wasm module under the given ABI.
func Compile(src string, abi ABI) (*wasm.Module, error) {
	prog, err := parseProgram(src)
	if err != nil {
		return nil, err
	}
	g := &gen{
		prog:       prog,
		abi:        abi,
		b:          wasm.NewModuleBuilder(),
		globalAddr: map[string]int64{},
		globalType: map[string]*Type{},
		strAddr:    map[string]int64{},
		funcs:      map[string]*funcInfo{},
		imports:    map[string]*funcInfo{},
		tableSlot:  map[string]int{},
		table:      []string{""}, // slot 0 reserved (null)
	}
	if err := g.run(); err != nil {
		return nil, err
	}
	m := g.b.Module()
	if err := wasm.Validate(m); err != nil {
		return nil, fmt.Errorf("minic: internal error: generated module invalid: %w", err)
	}
	return m, nil
}

func (g *gen) run() error {
	// Imports first (the builder requires it).
	for _, im := range syscallImports {
		idx := g.b.ImportFunc("env", im.name, g.wasmSig(im.sig))
		g.imports[im.name] = &funcInfo{idx: idx, sig: im.sig}
	}

	// Lay out globals.
	for _, gd := range g.prog.Globals {
		if gd.Type.Kind == TFunc || gd.Type.Kind == TVoid {
			return fmt.Errorf("minic: line %d: bad global type", gd.Line)
		}
		a := gd.Type.alignof(g.abi.PtrSize)
		off := alignUp(dataBase+g.dataLen, a) - dataBase
		g.dataLen = off + gd.Type.size(g.abi.PtrSize)
		g.globalAddr[gd.Name] = int64(dataBase + off)
		g.globalType[gd.Name] = gd.Type
	}
	// Global initializers (constant folding only).
	for _, gd := range g.prog.Globals {
		if err := g.initGlobal(gd); err != nil {
			return err
		}
	}

	// Intern string literals and assign function indices/table slots.
	// (Strings are interned lazily during expression generation; function
	// indices must be known up front for direct calls.)
	nimp := uint32(len(syscallImports))
	for i, fd := range g.prog.Funcs {
		if _, dup := g.funcs[fd.Name]; dup {
			return fmt.Errorf("minic: line %d: function %s redefined", fd.Line, fd.Name)
		}
		sig := &FuncSig{Ret: fd.Ret}
		for _, p := range fd.Params {
			if !p.Type.isScalar() {
				return fmt.Errorf("minic: line %d: %s: aggregate parameters are not supported (pass pointers)", fd.Line, fd.Name)
			}
			sig.Params = append(sig.Params, p.Type)
		}
		g.funcs[fd.Name] = &funcInfo{decl: fd, idx: nimp + uint32(i), sig: sig}
	}

	// Memory layout: after data comes the shadow stack, then the heap.
	//
	// Open fidelity decision: string literals interned later, while the
	// functions are generated, land past stackBase, in the lowest bytes of
	// the shadow stack. Moving them below would shift every simulated
	// address, so the layout keeps them there (see ROADMAP).
	stackBase := alignUp(dataBase+g.dataLen, 16)
	stackTop := stackBase + g.abi.StackSize
	heapBase := stackTop
	heapEnd := heapBase + g.abi.HeapSize
	pages := uint32((heapEnd + wasm.PageSize - 1) / wasm.PageSize)
	g.b.Memory(pages, 16384) // max 1 GiB, the paper's TOTAL_MEMORY

	// Wasm globals: 0 = shadow stack pointer, 1 = heap pointer, 2 = heap end.
	g.spGlobal = g.b.GlobalI32(int32(stackTop))
	g.heapGlobal = g.b.GlobalI32(int32(heapBase))
	g.heapEndG = g.b.GlobalI32(int32(heapEnd))

	// Generate functions.
	for _, fd := range g.prog.Funcs {
		if err := g.genFunc(fd); err != nil {
			return err
		}
	}

	// _start(argc, argv) calls main and returns its result.
	mainFn, ok := g.funcs["main"]
	if !ok {
		return fmt.Errorf("minic: no main function")
	}
	fb := g.b.Func("_start", wasm.FuncType{
		Params:  []wasm.ValType{wasm.I32, wasm.I32},
		Results: []wasm.ValType{wasm.I32},
	}, wasm.I32)
	// The userspace runtime brackets main with the Browsix-SPEC perf
	// marks (the XHRs of Figure 2 steps 4 and 6).
	fb.Call(g.imports["perf_begin"].idx).Op(wasm.OpDrop)
	switch len(mainFn.sig.Params) {
	case 0:
		fb.Call(mainFn.idx)
	case 2:
		fb.LocalGet(0).LocalGet(1).Call(mainFn.idx)
	default:
		return fmt.Errorf("minic: main must take 0 or 2 parameters")
	}
	if mainFn.sig.Ret.Kind == TVoid {
		fb.I32Const(0)
	}
	fb.LocalSet(2)
	fb.Call(g.imports["perf_end"].idx).Op(wasm.OpDrop)
	fb.LocalGet(2)
	g.b.Export("_start", wasm.ExternFunc, fb.Index())

	// Data segments + function table.
	g.emitData()
	g.b.Table(uint32(len(g.table)))
	var elems []uint32
	for _, name := range g.table[1:] {
		elems = append(elems, g.funcs[name].idx)
	}
	if len(elems) > 0 {
		g.b.Elem(1, elems)
	}
	return nil
}

// wasmSig converts a mini-C signature to a wasm function type.
func (g *gen) wasmSig(sig *FuncSig) wasm.FuncType {
	var ft wasm.FuncType
	for _, p := range sig.Params {
		ft.Params = append(ft.Params, g.valType(p))
	}
	if sig.Ret != nil && sig.Ret.Kind != TVoid {
		ft.Results = []wasm.ValType{g.valType(sig.Ret)}
	}
	return ft
}

// valType maps a scalar mini-C type to a wasm value type. Pointers compute
// as i32 regardless of their storage size.
func (g *gen) valType(t *Type) wasm.ValType {
	switch t.Kind {
	case TLong, TULong:
		return wasm.I64
	case TFloat:
		return wasm.F32
	case TDouble:
		return wasm.F64
	}
	return wasm.I32
}

// internString places a NUL-terminated literal at the end of the data
// image.
func (g *gen) internString(s string) int64 {
	if a, ok := g.strAddr[s]; ok {
		return a
	}
	addr := int64(dataBase + g.dataLen)
	g.runs = append(g.runs, dataRun{off: g.dataLen, lo: len(g.runBytes), hi: len(g.runBytes) + len(s)})
	g.runBytes = append(g.runBytes, s...)
	g.dataLen += len(s) + 1
	g.strAddr[s] = addr
	return addr
}

// emitData turns the initialized runs into data segments: sorted by
// offset, trimmed of zero edges, and merged across zero gaps of at most
// maxZeroGap bytes. Runs never overlap (initGlobal keeps every write inside
// its global), and no segment is all zero.
func (g *gen) emitData() {
	slices.SortFunc(g.runs, func(a, b dataRun) int { return cmp.Compare(a.off, b.off) })
	var seg []byte
	start := 0
	for _, r := range g.runs {
		b := bytes.TrimLeft(g.runBytes[r.lo:r.hi], "\x00")
		off := r.off + (r.hi - r.lo - len(b))
		if b = bytes.TrimRight(b, "\x00"); len(b) == 0 {
			continue
		}
		if seg != nil && off-(start+len(seg)) > maxZeroGap {
			g.b.Data(int32(dataBase+start), seg)
			seg = nil
		}
		if seg == nil {
			start = off
		}
		seg = append(seg, make([]byte, off-(start+len(seg)))...)
		seg = append(seg, b...)
	}
	if seg != nil {
		g.b.Data(int32(dataBase+start), seg)
	}
}

// tableIndexOf assigns (or returns) the table slot for a function.
func (g *gen) tableIndexOf(name string) (int, error) {
	if s, ok := g.tableSlot[name]; ok {
		return s, nil
	}
	if _, ok := g.funcs[name]; !ok {
		return 0, fmt.Errorf("minic: unknown function %q", name)
	}
	slot := len(g.table)
	g.table = append(g.table, name)
	g.tableSlot[name] = slot
	return slot, nil
}

// initGlobal records constant initializers as runs of the data image.
func (g *gen) initGlobal(gd *GlobalDecl) error {
	base := int(g.globalAddr[gd.Name]) - dataBase
	end := base + gd.Type.size(g.abi.PtrSize)
	write := func(off int, t *Type, e *Expr) error {
		iv, fv, isF, err := g.constEval(e)
		if err != nil {
			return fmt.Errorf("minic: line %d: global %s: %w", gd.Line, gd.Name, err)
		}
		var buf [8]byte
		n := 4
		switch {
		case t.Kind == TDouble:
			v := fv
			if !isF {
				v = float64(iv)
			}
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			n = 8
		case t.Kind == TFloat:
			v := fv
			if !isF {
				v = float64(iv)
			}
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(float32(v)))
		case t.is64(), t.Kind == TPtr && g.abi.PtrSize == 8:
			binary.LittleEndian.PutUint64(buf[:], uint64(iv))
			n = 8
		case t.Kind == TChar:
			buf[0] = byte(iv)
			n = 1
		default:
			binary.LittleEndian.PutUint32(buf[:], uint32(iv))
		}
		if off+n > end {
			return fmt.Errorf("minic: line %d: global %s: initializer does not fit", gd.Line, gd.Name)
		}
		g.runs = append(g.runs, dataRun{off: off, lo: len(g.runBytes), hi: len(g.runBytes) + n})
		g.runBytes = append(g.runBytes, buf[:n]...)
		return nil
	}
	if gd.Init != nil {
		return write(base, gd.Type, gd.Init)
	}
	if gd.InitList != nil {
		if gd.Type.Kind != TArray {
			return fmt.Errorf("minic: line %d: initializer list on non-array", gd.Line)
		}
		esz := gd.Type.Elem.size(g.abi.PtrSize)
		for i, e := range gd.InitList {
			if err := write(base+i*esz, gd.Type.Elem, e); err != nil {
				return err
			}
		}
	}
	return nil
}

// constEval evaluates a constant expression.
func (g *gen) constEval(e *Expr) (int64, float64, bool, error) {
	switch e.Op {
	case "num":
		return e.Ival, 0, false, nil
	case "fnum":
		return 0, e.Fval, true, nil
	case "str":
		return g.internString(e.Sval), 0, false, nil
	case "sizeof":
		if e.T != nil {
			return int64(e.T.size(g.abi.PtrSize)), 0, false, nil
		}
		return 0, 0, false, fmt.Errorf("sizeof(expr) not constant here")
	case "un":
		iv, fv, isF, err := g.constEval(e.X)
		if err != nil {
			return 0, 0, false, err
		}
		switch e.Tok {
		case "-":
			return -iv, -fv, isF, nil
		case "~":
			return ^iv, 0, false, nil
		}
	case "bin":
		a, af, aF, err := g.constEval(e.X)
		if err != nil {
			return 0, 0, false, err
		}
		b, bf, bF, err := g.constEval(e.Y)
		if err != nil {
			return 0, 0, false, err
		}
		if aF || bF {
			if !aF {
				af = float64(a)
			}
			if !bF {
				bf = float64(b)
			}
			switch e.Tok {
			case "+":
				return 0, af + bf, true, nil
			case "-":
				return 0, af - bf, true, nil
			case "*":
				return 0, af * bf, true, nil
			case "/":
				return 0, af / bf, true, nil
			}
			return 0, 0, false, fmt.Errorf("bad constant float op %q", e.Tok)
		}
		switch e.Tok {
		case "+":
			return a + b, 0, false, nil
		case "-":
			return a - b, 0, false, nil
		case "*":
			return a * b, 0, false, nil
		case "/":
			if b == 0 {
				return 0, 0, false, fmt.Errorf("constant division by zero")
			}
			return a / b, 0, false, nil
		case "%":
			if b == 0 {
				return 0, 0, false, fmt.Errorf("constant division by zero")
			}
			return a % b, 0, false, nil
		case "<<":
			return a << uint(b), 0, false, nil
		case ">>":
			return a >> uint(b), 0, false, nil
		case "|":
			return a | b, 0, false, nil
		case "&":
			return a & b, 0, false, nil
		case "^":
			return a ^ b, 0, false, nil
		}
	case "cast":
		return g.constEval(e.X)
	}
	return 0, 0, false, fmt.Errorf("not a constant expression")
}
