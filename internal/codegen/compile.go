package codegen

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/regalloc"
	"repro/internal/wasm"
	"repro/internal/x86"
)

// moduleCtx is shared emission state across a module's functions,
// read-only while functions emit in parallel. The rodata pool is written
// only by mergeFragments, which interns each fragment's constants serially
// in function order.
type moduleCtx struct {
	cfg       *EngineConfig
	funcLabel []int // module-function index -> entry label
	tableSize int
	rodata    []byte
	roIndex   map[uint64]uint32
	hostNames []string
}

func (c *moduleCtx) hostName(i int) string {
	if i >= 0 && i < len(c.hostNames) {
		return c.hostNames[i]
	}
	return fmt.Sprintf("host%d", i)
}

// TableEntry is one indirect-call table slot.
type TableEntry struct {
	SigID   int
	FuncIdx int // module-function index; -1 = null
}

// FuncStats records per-function compilation metrics (Figure 7 analysis).
type FuncStats struct {
	Name      string
	Insts     int
	CodeBytes uint32
	Spills    int
	UsedRegs  int
	IRLen     int
	NumBlocks int
}

// DataSegment is one initialized region of linear memory, its constant
// offset expression resolved at compile time.
type DataSegment struct {
	Offset uint32
	Bytes  []byte
}

// CompiledModule is the output of compiling a module for one engine: the
// machine program plus exactly what loading and invoking it read. It keeps
// no reference to the source wasm module, so neither an artifact nor the
// in-memory build cache carries function bodies that no run reads.
type CompiledModule struct {
	Engine  *EngineConfig
	Prog    *x86.Program
	Entries []int // module-function index -> instruction index
	// Sigs holds each module-defined function's signature, indexed like
	// Entries; Invoke places arguments and reads results by it.
	Sigs  []wasm.FuncType
	Table []TableEntry
	// GlobalInit holds initial global values (raw bits).
	GlobalInit []uint64
	// MemPages is the initial linear-memory size in pages.
	MemPages uint32
	MemMax   uint32
	// Data holds the data segments cpu.Load copies into linear memory.
	Data []DataSegment
	// Rodata is mapped at x86.RodataBase.
	Rodata []byte
	// HostImports lists imported functions in index order ("env.name").
	HostImports []string
	// Exports maps exported function names to module-function indices.
	Exports map[string]int
	// Stats per function, plus compile time.
	Stats       []FuncStats
	CompileTime time.Duration
	TotalSpills int

	// PtrSize is the source data model (4 = wasm32, 8 = native x86-64);
	// set by pipeline.Compile so loaders lay out argv correctly.
	PtrSize int
}

// Compile lowers, optimizes, allocates, and emits every function of m under
// the engine configuration cfg.
//
// Functions compile independently: the frontend (lowering, optimization,
// liveness, register allocation) and the emission of per-function machine
// fragments both fan out over the shared scheduler, borrowing worker slots
// from the process-wide budget (sched.Shared; Workers caps the width). One
// short serial pass follows them: the fragment merge, which concatenates
// the fragments in function order, resolves branch/call targets to global
// instruction indices and places rodata constants. When concurrent suite
// jobs hold the whole budget the compile simply runs serially on its
// caller's goroutine. The output is
// byte-identical at any worker count and any budget size.
func Compile(m *wasm.Module, cfg *EngineConfig) (*CompiledModule, error) {
	return CompileContext(context.Background(), m, cfg)
}

// CompileContext is Compile under a caller context. The context's role is
// scheduler accounting: when it carries the shared scheduler's pool marker
// (the compile was reached from inside a RunJobs job, as
// pipeline.Compile arranges), the per-function fan-out skips the
// best-effort self token its goroutine is already charged for. A
// cancellable context also stops dispatching function jobs once cancelled;
// note that the pipeline's build cache deliberately strips cancellation
// before calling this, so shared compiles are never aborted by one
// requester.
func CompileContext(ctx context.Context, m *wasm.Module, cfg *EngineConfig) (*CompiledModule, error) {
	start := time.Now()
	mctx := &moduleCtx{
		cfg:     cfg,
		roIndex: map[uint64]uint32{},
	}

	// Host imports.
	for _, im := range m.Imports {
		if im.Kind == wasm.ExternFunc {
			mctx.hostNames = append(mctx.hostNames, im.Module+"."+im.Name)
		}
	}

	// Function labels.
	mctx.funcLabel = make([]int, len(m.Funcs))
	for i := range m.Funcs {
		mctx.funcLabel[i] = i + 1
	}

	// Table.
	cm := &CompiledModule{Engine: cfg, Exports: map[string]int{}}
	if len(m.Tables) > 0 {
		mctx.tableSize = int(m.Tables[0].Limits.Min)
		cm.Table = make([]TableEntry, mctx.tableSize)
		for i := range cm.Table {
			cm.Table[i] = TableEntry{SigID: -1, FuncIdx: -1}
		}
		nimp := m.NumImportedFuncs()
		for _, e := range m.Elems {
			off, _ := constI32(e.Offset)
			for i, fidx := range e.Funcs {
				fi := int(fidx) - nimp
				if fi < 0 {
					return nil, fmt.Errorf("codegen: imported function in table (unsupported)")
				}
				slot := int(off) + i
				if slot < 0 || slot >= len(cm.Table) {
					return nil, fmt.Errorf("codegen: element segment out of range")
				}
				cm.Table[slot] = TableEntry{SigID: int(m.Funcs[fi].TypeIdx), FuncIdx: fi}
			}
		}
	}

	// Phase 1 (parallel): frontend — lower, optimize, liveness, allocate.
	// Each function carries its pooled scratch through to emission.
	raCfg := &regalloc.Config{GP: cfg.GP, FP: cfg.FP, CalleeSavedGP: cfg.calleeSavedSet()}
	n := len(m.Funcs)
	frags := make([]*compileScratch, n)
	releaseAll := func() {
		for _, sc := range frags {
			if sc != nil {
				sc.release()
			}
		}
	}
	err := runPerFunc(ctx, n, func(fi int) error {
		sc := getScratch()
		frags[fi] = sc
		f, err := lowerFuncInto(m, fi, cfg, sc)
		if err != nil {
			return err
		}
		// Fault site inside the nested fan-out, keyed by function name: an
		// injected panic here unwinds through a scheduler worker at the
		// deepest containment boundary the pipeline has.
		if err := fault.Check(fault.SiteCodegenFunc, f.Name); err != nil {
			return err
		}
		optimize(sc, f)
		if cfg.Allocator == AllocGraphColor {
			optimizeNative(sc, f)
		}
		lv := sc.live.ComputeLiveness(f)
		if cfg.Allocator == AllocGraphColor {
			sc.res = sc.ra.GraphColor(f, lv, raCfg)
		} else {
			sc.res = sc.ra.LinearScan(f, lv, raCfg)
		}
		sc.f = f
		return nil
	})
	if err != nil {
		releaseAll()
		return nil, err
	}

	// Phase 2 (parallel): emit every function into its scratch fragment.
	err = runPerFunc(ctx, n, func(fi int) error {
		sc := frags[fi]
		em := &emitter{ctx: mctx, cfg: cfg, f: sc.f, ra: sc.res, sc: sc, prog: sc.frag}
		if err := em.emitFunc(); err != nil {
			return err
		}
		irLen := 0
		for _, b := range sc.f.Blocks {
			irLen += len(b.Ins)
		}
		sc.stats = FuncStats{
			Name:      sc.f.Name,
			Insts:     len(sc.frag.Code),
			Spills:    sc.res.Spills,
			IRLen:     irLen,
			NumBlocks: len(sc.f.Blocks),
		}
		return nil
	})
	if err != nil {
		releaseAll()
		return nil, err
	}

	// Phase 3 (serial): merge fragments in function order.
	prog, entries, err := mergeFragments(mctx, frags)
	if err != nil {
		releaseAll()
		return nil, err
	}
	for _, sc := range frags {
		cm.Stats = append(cm.Stats, sc.stats)
		cm.TotalSpills += sc.stats.Spills
	}
	releaseAll()

	prog.Layout()
	for i := range cm.Stats {
		f := prog.Funcs[i]
		var bytes uint32
		for j := f.Start; j < f.End; j++ {
			bytes += uint32(prog.Code[j].Size)
		}
		cm.Stats[i].CodeBytes = bytes
	}

	// Entries and signatures; lowering has already indexed m.Types with
	// every function's TypeIdx, so each is in range.
	cm.Prog = prog
	cm.Entries = entries
	cm.Sigs = make([]wasm.FuncType, len(m.Funcs))
	for i := range m.Funcs {
		cm.Sigs[i] = m.Types[m.Funcs[i].TypeIdx]
	}

	// Globals.
	for _, g := range m.Globals {
		v, err := constBits(g.Init)
		if err != nil {
			return nil, err
		}
		cm.GlobalInit = append(cm.GlobalInit, v)
	}

	// Memory + data.
	if len(m.Mems) > 0 {
		cm.MemPages = m.Mems[0].Min
		cm.MemMax = m.Mems[0].Max
		if !m.Mems[0].HasMax {
			cm.MemMax = x86.LinearMax / wasm.PageSize
		}
	}
	for i, d := range m.Data {
		off, err := constI32(d.Offset)
		if err != nil {
			return nil, fmt.Errorf("codegen: data segment %d: non-constant offset", i)
		}
		cm.Data = append(cm.Data, DataSegment{Offset: uint32(off), Bytes: d.Bytes})
	}
	cm.Rodata = mctx.rodata
	cm.HostImports = mctx.hostNames

	nimp := m.NumImportedFuncs()
	for _, e := range m.Exports {
		if e.Kind == wasm.ExternFunc {
			fi := int(e.Index) - nimp
			if fi >= 0 {
				cm.Exports[e.Name] = fi
			}
		}
	}

	cm.CompileTime = time.Since(start)
	return cm, nil
}

// mergeFragments concatenates the per-function fragment programs in
// function order into one module program, resolving fragment-local
// (negative) labels and function entry labels to global instruction
// indices and rebasing each fragment's jump tables and listing notes. It is
// the compiler's one label resolver; the merged program binds no labels,
// like a decoded one. It also places rodata: each fragment's constant uses
// are interned into ctx.rodata in function and emission order, so constant
// addresses never depend on emission concurrency. It returns each
// function's entry index.
func mergeFragments(ctx *moduleCtx, frags []*compileScratch) (*x86.Program, []int, error) {
	total := 0
	for _, sc := range frags {
		total += len(sc.frag.Code)
	}
	prog := &x86.Program{HostNames: ctx.hostNames, Code: make([]x86.Inst, 0, total)}

	fragStart := make([]int, len(frags))
	entryIdx := make([]int, len(frags))
	off := 0
	for i, sc := range frags {
		fragStart[i] = off
		li, ok := sc.frag.LabelTarget(ctx.funcLabel[i])
		if !ok {
			return nil, nil, fmt.Errorf("codegen: function %d entry label unbound in fragment", i)
		}
		entryIdx[i] = off + li
		off += len(sc.frag.Code)
	}

	for i, sc := range frags {
		resolve := func(t int) (int, error) {
			if t < 0 {
				idx, ok := sc.frag.LabelTarget(t)
				if !ok {
					return 0, fmt.Errorf("x86: undefined label L%d in function %d", t, i)
				}
				return idx + fragStart[i], nil
			}
			// Positive labels are function entries (funcLabel[fi] = fi+1).
			fi := t - 1
			if fi < 0 || fi >= len(frags) {
				return 0, fmt.Errorf("x86: undefined entry label L%d in function %d", t, i)
			}
			return entryIdx[fi], nil
		}
		base, tableBase := len(prog.Code), len(prog.Tables)
		prog.Code = append(prog.Code, sc.frag.Code...)
		var err error
		for j := base; j < len(prog.Code); j++ {
			in := &prog.Code[j]
			switch in.Op {
			case x86.OJmp, x86.OJcc, x86.OCall:
				if in.Target, err = resolve(in.Target); err != nil {
					return nil, nil, err
				}
			case x86.OJmpTable:
				in.Target += tableBase
			}
		}
		for _, table := range sc.frag.Tables {
			for k, t := range table {
				if table[k], err = resolve(t); err != nil {
					return nil, nil, err
				}
			}
			prog.Tables = append(prog.Tables, table)
		}
		for _, u := range sc.roUses {
			addr, ok := ctx.roIndex[u.key]
			if !ok {
				addr = uint32(x86.RodataBase) + uint32(len(ctx.rodata))
				ctx.rodata = append(ctx.rodata, u.data[:]...)
				ctx.roIndex[u.key] = addr
			}
			prog.Code[base+u.at].Src.Mem.Disp = int32(addr)
		}
		for _, n := range sc.frag.Notes {
			n.Idx += base
			prog.Notes = append(prog.Notes, n)
		}
		for _, fn := range sc.frag.Funcs {
			fn.Start += fragStart[i]
			fn.End += fragStart[i]
			prog.Funcs = append(prog.Funcs, fn)
		}
	}
	return prog, entryIdx, nil
}

func constI32(in wasm.Instr) (int32, error) {
	if in.Op != wasm.OpI32Const {
		return 0, fmt.Errorf("codegen: non-constant offset")
	}
	return int32(in.I64), nil
}

func constBits(in wasm.Instr) (uint64, error) {
	switch in.Op {
	case wasm.OpI32Const:
		return uint64(uint32(int32(in.I64))), nil
	case wasm.OpI64Const:
		return uint64(in.I64), nil
	case wasm.OpF32Const:
		return uint64(math.Float32bits(float32(in.F64))), nil
	case wasm.OpF64Const:
		return math.Float64bits(in.F64), nil
	}
	return 0, fmt.Errorf("codegen: unsupported global initializer %s", wasm.OpName(in.Op))
}

// FindExport returns the module-function index of an exported function.
func (cm *CompiledModule) FindExport(name string) (int, bool) {
	fi, ok := cm.Exports[name]
	return fi, ok
}

// DisasmFunc returns the Figure 7-style listing of a function by name.
func (cm *CompiledModule) DisasmFunc(name string) (string, bool) {
	for i, f := range cm.Prog.Funcs {
		if f.Name == name {
			return cm.Prog.Disasm(i), true
		}
	}
	return "", false
}
