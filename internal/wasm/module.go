package wasm

import "fmt"

// Module is a parsed or programmatically built WebAssembly module.
type Module struct {
	Types   []FuncType
	Imports []Import
	Funcs   []Func // module-defined functions (not imports)
	Tables  []Table
	Mems    []Limits
	Globals []Global
	Exports []Export
	Start   *uint32
	Elems   []Elem
	Data    []Data

	// Names optionally maps function index (import-space) to a symbolic
	// name; populated by the builder and minic for diagnostics.
	Names map[uint32]string
}

// Import is a single imported extern.
type Import struct {
	Module string
	Name   string
	Kind   ExternKind

	// TypeIdx is the signature index when Kind == ExternFunc.
	TypeIdx uint32
	// Table, Mem, GlobalType describe the other kinds.
	Table      Table
	Mem        Limits
	GlobalType GlobalType
}

// Func is a module-defined function: a signature index, local declarations,
// and a flat body terminated by OpEnd.
type Func struct {
	TypeIdx uint32
	Locals  []ValType // locals beyond the parameters
	Body    []Instr
	// BrTables holds the target lists of the body's br_table instructions,
	// each indexed by its instruction's I64; a list's final entry is the
	// default target.
	BrTables [][]uint32
}

// BrTargets returns the target list of the br_table instruction in, or nil
// if its index is outside f.BrTables.
func (f *Func) BrTargets(in Instr) []uint32 {
	if in.I64 < 0 || in.I64 >= int64(len(f.BrTables)) {
		return nil
	}
	return f.BrTables[in.I64]
}

// Table is a funcref table.
type Table struct {
	Limits Limits
}

// Global is a module-defined global with a constant initializer.
type Global struct {
	Type GlobalType
	// Init must be a single constant instruction (t.const or global.get
	// of an imported immutable global).
	Init Instr
}

// Export names a module item.
type Export struct {
	Name  string
	Kind  ExternKind
	Index uint32
}

// Elem is an element segment initializing part of a table.
type Elem struct {
	TableIdx uint32
	Offset   Instr // constant expression
	Funcs    []uint32
}

// Data is a data segment initializing part of linear memory.
type Data struct {
	MemIdx uint32
	Offset Instr // constant expression
	Bytes  []byte
}

// NumImportedFuncs returns the number of imported functions; module-defined
// functions are indexed starting at this value.
func (m *Module) NumImportedFuncs() int {
	n := 0
	for _, im := range m.Imports {
		if im.Kind == ExternFunc {
			n++
		}
	}
	return n
}

// NumImportedGlobals returns the number of imported globals.
func (m *Module) NumImportedGlobals() int {
	n := 0
	for _, im := range m.Imports {
		if im.Kind == ExternGlobal {
			n++
		}
	}
	return n
}

// FuncTypeAt returns the signature of the function at index idx in the
// import-prefixed function index space.
func (m *Module) FuncTypeAt(idx uint32) (FuncType, error) {
	i := uint32(0)
	for _, im := range m.Imports {
		if im.Kind != ExternFunc {
			continue
		}
		if i == idx {
			if int(im.TypeIdx) >= len(m.Types) {
				return FuncType{}, fmt.Errorf("wasm: import %q.%q has bad type index %d", im.Module, im.Name, im.TypeIdx)
			}
			return m.Types[im.TypeIdx], nil
		}
		i++
	}
	d := int(idx) - m.NumImportedFuncs()
	if d < 0 || d >= len(m.Funcs) {
		return FuncType{}, fmt.Errorf("wasm: function index %d out of range", idx)
	}
	ti := m.Funcs[d].TypeIdx
	if int(ti) >= len(m.Types) {
		return FuncType{}, fmt.Errorf("wasm: function %d has bad type index %d", idx, ti)
	}
	return m.Types[ti], nil
}

// GlobalTypeAt returns the type of the global at index idx in the
// import-prefixed global index space.
func (m *Module) GlobalTypeAt(idx uint32) (GlobalType, error) {
	i := uint32(0)
	for _, im := range m.Imports {
		if im.Kind != ExternGlobal {
			continue
		}
		if i == idx {
			return im.GlobalType, nil
		}
		i++
	}
	d := int(idx) - m.NumImportedGlobals()
	if d < 0 || d >= len(m.Globals) {
		return GlobalType{}, fmt.Errorf("wasm: global index %d out of range", idx)
	}
	return m.Globals[d].Type, nil
}

// ExportedFunc returns the import-space function index of the export named
// name, if it exists and is a function.
func (m *Module) ExportedFunc(name string) (uint32, bool) {
	for _, e := range m.Exports {
		if e.Name == name && e.Kind == ExternFunc {
			return e.Index, true
		}
	}
	return 0, false
}

// FuncName returns a symbolic name for function index idx if one is known,
// else "func<idx>".
func (m *Module) FuncName(idx uint32) string {
	if m.Names != nil {
		if n, ok := m.Names[idx]; ok {
			return n
		}
	}
	return fmt.Sprintf("func%d", idx)
}

// AddTypeDedup appends ft to the type section unless an identical signature
// already exists, returning its index either way.
func (m *Module) AddTypeDedup(ft FuncType) uint32 {
	for i, t := range m.Types {
		if t.Equal(ft) {
			return uint32(i)
		}
	}
	m.Types = append(m.Types, ft)
	return uint32(len(m.Types) - 1)
}
