package wasm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/leb128"
)

// Magic and version prefix every WebAssembly binary module.
var (
	Magic   = []byte{0x00, 0x61, 0x73, 0x6d}
	Version = []byte{0x01, 0x00, 0x00, 0x00}
)

// Section ids in the binary format.
const (
	secCustom   = 0
	secType     = 1
	secImport   = 2
	secFunction = 3
	secTable    = 4
	secMemory   = 5
	secGlobal   = 6
	secExport   = 7
	secStart    = 8
	secElem     = 9
	secCode     = 10
	secData     = 11
)

// Encode serializes m to the WebAssembly binary format.
func Encode(m *Module) []byte {
	var out []byte
	out = append(out, Magic...)
	out = append(out, Version...)

	section := func(id byte, body []byte) {
		if len(body) == 0 {
			return
		}
		out = append(out, id)
		out = leb128.AppendUint(out, uint64(len(body)))
		out = append(out, body...)
	}

	// Type section.
	if len(m.Types) > 0 {
		var b []byte
		b = leb128.AppendUint(b, uint64(len(m.Types)))
		for _, t := range m.Types {
			b = append(b, 0x60)
			b = leb128.AppendUint(b, uint64(len(t.Params)))
			for _, p := range t.Params {
				b = append(b, byte(p))
			}
			b = leb128.AppendUint(b, uint64(len(t.Results)))
			for _, r := range t.Results {
				b = append(b, byte(r))
			}
		}
		section(secType, b)
	}

	// Import section.
	if len(m.Imports) > 0 {
		var b []byte
		b = leb128.AppendUint(b, uint64(len(m.Imports)))
		for _, im := range m.Imports {
			b = appendName(b, im.Module)
			b = appendName(b, im.Name)
			b = append(b, byte(im.Kind))
			switch im.Kind {
			case ExternFunc:
				b = leb128.AppendUint(b, uint64(im.TypeIdx))
			case ExternTable:
				b = append(b, 0x70) // funcref
				b = appendLimits(b, im.Table.Limits)
			case ExternMemory:
				b = appendLimits(b, im.Mem)
			case ExternGlobal:
				b = append(b, byte(im.GlobalType.Type))
				b = appendBool(b, im.GlobalType.Mutable)
			}
		}
		section(secImport, b)
	}

	// Function section.
	if len(m.Funcs) > 0 {
		var b []byte
		b = leb128.AppendUint(b, uint64(len(m.Funcs)))
		for _, f := range m.Funcs {
			b = leb128.AppendUint(b, uint64(f.TypeIdx))
		}
		section(secFunction, b)
	}

	// Table section.
	if len(m.Tables) > 0 {
		var b []byte
		b = leb128.AppendUint(b, uint64(len(m.Tables)))
		for _, t := range m.Tables {
			b = append(b, 0x70)
			b = appendLimits(b, t.Limits)
		}
		section(secTable, b)
	}

	// Memory section.
	if len(m.Mems) > 0 {
		var b []byte
		b = leb128.AppendUint(b, uint64(len(m.Mems)))
		for _, l := range m.Mems {
			b = appendLimits(b, l)
		}
		section(secMemory, b)
	}

	// Global section.
	if len(m.Globals) > 0 {
		var b []byte
		b = leb128.AppendUint(b, uint64(len(m.Globals)))
		for _, g := range m.Globals {
			b = append(b, byte(g.Type.Type))
			b = appendBool(b, g.Type.Mutable)
			b = appendInstr(b, g.Init, nil)
			b = append(b, byte(OpEnd))
		}
		section(secGlobal, b)
	}

	// Export section.
	if len(m.Exports) > 0 {
		var b []byte
		b = leb128.AppendUint(b, uint64(len(m.Exports)))
		for _, e := range m.Exports {
			b = appendName(b, e.Name)
			b = append(b, byte(e.Kind))
			b = leb128.AppendUint(b, uint64(e.Index))
		}
		section(secExport, b)
	}

	// Start section.
	if m.Start != nil {
		var b []byte
		b = leb128.AppendUint(b, uint64(*m.Start))
		section(secStart, b)
	}

	// Element section.
	if len(m.Elems) > 0 {
		var b []byte
		b = leb128.AppendUint(b, uint64(len(m.Elems)))
		for _, e := range m.Elems {
			b = leb128.AppendUint(b, uint64(e.TableIdx))
			b = appendInstr(b, e.Offset, nil)
			b = append(b, byte(OpEnd))
			b = leb128.AppendUint(b, uint64(len(e.Funcs)))
			for _, f := range e.Funcs {
				b = leb128.AppendUint(b, uint64(f))
			}
		}
		section(secElem, b)
	}

	// Code section.
	if len(m.Funcs) > 0 {
		var b []byte
		b = leb128.AppendUint(b, uint64(len(m.Funcs)))
		for _, f := range m.Funcs {
			body := encodeFuncBody(&f)
			b = leb128.AppendUint(b, uint64(len(body)))
			b = append(b, body...)
		}
		section(secCode, b)
	}

	// Data section.
	if len(m.Data) > 0 {
		var b []byte
		b = leb128.AppendUint(b, uint64(len(m.Data)))
		for _, d := range m.Data {
			b = leb128.AppendUint(b, uint64(d.MemIdx))
			b = appendInstr(b, d.Offset, nil)
			b = append(b, byte(OpEnd))
			b = leb128.AppendUint(b, uint64(len(d.Bytes)))
			b = append(b, d.Bytes...)
		}
		section(secData, b)
	}

	return out
}

func appendName(b []byte, s string) []byte {
	b = leb128.AppendUint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendLimits(b []byte, l Limits) []byte {
	if l.HasMax {
		b = append(b, 1)
		b = leb128.AppendUint(b, uint64(l.Min))
		return leb128.AppendUint(b, uint64(l.Max))
	}
	b = append(b, 0)
	return leb128.AppendUint(b, uint64(l.Min))
}

func encodeFuncBody(f *Func) []byte {
	var b []byte
	// Run-length encode locals.
	type run struct {
		n int
		t ValType
	}
	var runs []run
	for _, t := range f.Locals {
		if len(runs) > 0 && runs[len(runs)-1].t == t {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, run{1, t})
		}
	}
	b = leb128.AppendUint(b, uint64(len(runs)))
	for _, r := range runs {
		b = leb128.AppendUint(b, uint64(r.n))
		b = append(b, byte(r.t))
	}
	for _, in := range f.Body {
		b = appendInstr(b, in, f)
	}
	return b
}

// appendInstr encodes in; f resolves br_table target lists and is nil for
// constant expressions.
func appendInstr(b []byte, in Instr, f *Func) []byte {
	b = append(b, byte(in.Op))
	switch in.Op {
	case OpBlock, OpLoop, OpIf:
		if in.Block.HasResult {
			b = append(b, byte(in.Block.Result))
		} else {
			b = append(b, 0x40)
		}
	case OpBr, OpBrIf, OpCall, OpLocalGet, OpLocalSet, OpLocalTee, OpGlobalGet, OpGlobalSet:
		b = leb128.AppendUint(b, uint64(in.I64))
	case OpCallIndirect:
		b = leb128.AppendUint(b, uint64(in.I64))
		b = append(b, 0x00) // table index (MVP: always 0)
	case OpBrTable:
		var tbl []uint32
		if f != nil {
			tbl = f.BrTargets(in)
		}
		b = leb128.AppendUint(b, uint64(len(tbl)-1))
		for _, t := range tbl {
			b = leb128.AppendUint(b, uint64(t))
		}
	case OpI32Const:
		b = leb128.AppendInt(b, int64(int32(in.I64)))
	case OpI64Const:
		b = leb128.AppendInt(b, in.I64)
	case OpF32Const:
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(float32(in.F64)))
		b = append(b, buf[:]...)
	case OpF64Const:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(in.F64))
		b = append(b, buf[:]...)
	case OpMemorySize, OpMemoryGrow:
		b = append(b, 0x00)
	default:
		if in.Op.IsMemAccess() {
			b = leb128.AppendUint(b, uint64(in.Align))
			b = leb128.AppendUint(b, uint64(in.Offset))
		}
	}
	return b
}

// decoder walks a byte slice with position tracking.
type decoder struct {
	p   []byte
	pos int
}

func (d *decoder) eof() bool { return d.pos >= len(d.p) }

func (d *decoder) byte() (byte, error) {
	if d.eof() {
		return 0, io.ErrUnexpectedEOF
	}
	b := d.p[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.pos+n > len(d.p) {
		return nil, io.ErrUnexpectedEOF
	}
	b := d.p[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *decoder) uint(bits uint) (uint64, error) {
	v, n, err := leb128.Uint(d.p[d.pos:], bits)
	if err != nil {
		return 0, err
	}
	d.pos += n
	return v, nil
}

func (d *decoder) int(bits uint) (int64, error) {
	v, n, err := leb128.Int(d.p[d.pos:], bits)
	if err != nil {
		return 0, err
	}
	d.pos += n
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	v, err := d.uint(32)
	return uint32(v), err
}

func (d *decoder) name() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	b, err := d.bytes(int(n))
	return string(b), err
}

func (d *decoder) limits() (Limits, error) {
	var l Limits
	flag, err := d.byte()
	if err != nil {
		return l, err
	}
	l.Min, err = d.u32()
	if err != nil {
		return l, err
	}
	if flag == 1 {
		l.HasMax = true
		l.Max, err = d.u32()
		if err != nil {
			return l, err
		}
	} else if flag != 0 {
		return l, fmt.Errorf("wasm: bad limits flag 0x%02x", flag)
	}
	return l, nil
}

func (d *decoder) valtype() (ValType, error) {
	b, err := d.byte()
	if err != nil {
		return 0, err
	}
	t := ValType(b)
	if !t.Valid() {
		return 0, fmt.Errorf("wasm: bad value type 0x%02x", b)
	}
	return t, nil
}

// Decode parses a WebAssembly binary module.
func Decode(p []byte) (*Module, error) {
	d := &decoder{p: p}
	hdr, err := d.bytes(8)
	if err != nil {
		return nil, errors.New("wasm: truncated header")
	}
	for i := range Magic {
		if hdr[i] != Magic[i] {
			return nil, errors.New("wasm: bad magic")
		}
	}
	for i := range Version {
		if hdr[4+i] != Version[i] {
			return nil, errors.New("wasm: unsupported version")
		}
	}

	m := &Module{}
	var funcTypeIdxs []uint32
	lastSec := -1
	for !d.eof() {
		id, err := d.byte()
		if err != nil {
			return nil, err
		}
		size, err := d.u32()
		if err != nil {
			return nil, err
		}
		body, err := d.bytes(int(size))
		if err != nil {
			return nil, fmt.Errorf("wasm: truncated section %d", id)
		}
		if id != secCustom {
			if int(id) <= lastSec {
				return nil, fmt.Errorf("wasm: section %d out of order", id)
			}
			lastSec = int(id)
		}
		sd := &decoder{p: body}
		switch id {
		case secCustom:
			// Skipped (names etc. are not needed for execution).
		case secType:
			if err := decodeTypeSection(sd, m); err != nil {
				return nil, err
			}
		case secImport:
			if err := decodeImportSection(sd, m); err != nil {
				return nil, err
			}
		case secFunction:
			n, err := sd.u32()
			if err != nil {
				return nil, err
			}
			for i := uint32(0); i < n; i++ {
				ti, err := sd.u32()
				if err != nil {
					return nil, err
				}
				funcTypeIdxs = append(funcTypeIdxs, ti)
			}
		case secTable:
			n, err := sd.u32()
			if err != nil {
				return nil, err
			}
			for i := uint32(0); i < n; i++ {
				et, err := sd.byte()
				if err != nil {
					return nil, err
				}
				if et != 0x70 {
					return nil, fmt.Errorf("wasm: unsupported table elem type 0x%02x", et)
				}
				l, err := sd.limits()
				if err != nil {
					return nil, err
				}
				m.Tables = append(m.Tables, Table{Limits: l})
			}
		case secMemory:
			n, err := sd.u32()
			if err != nil {
				return nil, err
			}
			for i := uint32(0); i < n; i++ {
				l, err := sd.limits()
				if err != nil {
					return nil, err
				}
				m.Mems = append(m.Mems, l)
			}
		case secGlobal:
			if err := decodeGlobalSection(sd, m); err != nil {
				return nil, err
			}
		case secExport:
			n, err := sd.u32()
			if err != nil {
				return nil, err
			}
			for i := uint32(0); i < n; i++ {
				name, err := sd.name()
				if err != nil {
					return nil, err
				}
				kind, err := sd.byte()
				if err != nil {
					return nil, err
				}
				idx, err := sd.u32()
				if err != nil {
					return nil, err
				}
				m.Exports = append(m.Exports, Export{Name: name, Kind: ExternKind(kind), Index: idx})
			}
		case secStart:
			idx, err := sd.u32()
			if err != nil {
				return nil, err
			}
			m.Start = &idx
		case secElem:
			if err := decodeElemSection(sd, m); err != nil {
				return nil, err
			}
		case secCode:
			if err := decodeCodeSection(sd, m, funcTypeIdxs); err != nil {
				return nil, err
			}
		case secData:
			if err := decodeDataSection(sd, m); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wasm: unknown section id %d", id)
		}
	}
	if len(m.Funcs) != len(funcTypeIdxs) {
		return nil, fmt.Errorf("wasm: function section declares %d funcs but code section has %d", len(funcTypeIdxs), len(m.Funcs))
	}
	return m, nil
}

func decodeTypeSection(d *decoder, m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		form, err := d.byte()
		if err != nil {
			return err
		}
		if form != 0x60 {
			return fmt.Errorf("wasm: bad functype form 0x%02x", form)
		}
		var ft FuncType
		np, err := d.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < np; j++ {
			t, err := d.valtype()
			if err != nil {
				return err
			}
			ft.Params = append(ft.Params, t)
		}
		nr, err := d.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < nr; j++ {
			t, err := d.valtype()
			if err != nil {
				return err
			}
			ft.Results = append(ft.Results, t)
		}
		m.Types = append(m.Types, ft)
	}
	return nil
}

func decodeImportSection(d *decoder, m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var im Import
		if im.Module, err = d.name(); err != nil {
			return err
		}
		if im.Name, err = d.name(); err != nil {
			return err
		}
		kind, err := d.byte()
		if err != nil {
			return err
		}
		im.Kind = ExternKind(kind)
		switch im.Kind {
		case ExternFunc:
			if im.TypeIdx, err = d.u32(); err != nil {
				return err
			}
		case ExternTable:
			et, err := d.byte()
			if err != nil {
				return err
			}
			if et != 0x70 {
				return fmt.Errorf("wasm: unsupported table elem type 0x%02x", et)
			}
			if im.Table.Limits, err = d.limits(); err != nil {
				return err
			}
		case ExternMemory:
			if im.Mem, err = d.limits(); err != nil {
				return err
			}
		case ExternGlobal:
			t, err := d.valtype()
			if err != nil {
				return err
			}
			mut, err := d.byte()
			if err != nil {
				return err
			}
			im.GlobalType = GlobalType{Type: t, Mutable: mut == 1}
		default:
			return fmt.Errorf("wasm: bad import kind %d", kind)
		}
		m.Imports = append(m.Imports, im)
	}
	return nil
}

func decodeGlobalSection(d *decoder, m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		t, err := d.valtype()
		if err != nil {
			return err
		}
		mut, err := d.byte()
		if err != nil {
			return err
		}
		init, err := decodeConstExpr(d)
		if err != nil {
			return err
		}
		m.Globals = append(m.Globals, Global{
			Type: GlobalType{Type: t, Mutable: mut == 1},
			Init: init,
		})
	}
	return nil
}

func decodeElemSection(d *decoder, m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var e Elem
		if e.TableIdx, err = d.u32(); err != nil {
			return err
		}
		if e.Offset, err = decodeConstExpr(d); err != nil {
			return err
		}
		cnt, err := d.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < cnt; j++ {
			f, err := d.u32()
			if err != nil {
				return err
			}
			e.Funcs = append(e.Funcs, f)
		}
		m.Elems = append(m.Elems, e)
	}
	return nil
}

func decodeDataSection(d *decoder, m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var seg Data
		if seg.MemIdx, err = d.u32(); err != nil {
			return err
		}
		if seg.Offset, err = decodeConstExpr(d); err != nil {
			return err
		}
		sz, err := d.u32()
		if err != nil {
			return err
		}
		b, err := d.bytes(int(sz))
		if err != nil {
			return err
		}
		seg.Bytes = append([]byte(nil), b...)
		m.Data = append(m.Data, seg)
	}
	return nil
}

func decodeCodeSection(d *decoder, m *Module, typeIdxs []uint32) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	if int(n) != len(typeIdxs) {
		return fmt.Errorf("wasm: code count %d != function count %d", n, len(typeIdxs))
	}
	for i := uint32(0); i < n; i++ {
		size, err := d.u32()
		if err != nil {
			return err
		}
		body, err := d.bytes(int(size))
		if err != nil {
			return err
		}
		f := Func{TypeIdx: typeIdxs[i]}
		bd := &decoder{p: body}
		nruns, err := bd.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < nruns; j++ {
			cnt, err := bd.u32()
			if err != nil {
				return err
			}
			t, err := bd.valtype()
			if err != nil {
				return err
			}
			if len(f.Locals)+int(cnt) > 1<<20 {
				return errors.New("wasm: too many locals")
			}
			start := len(f.Locals)
			f.Locals = slices.Grow(f.Locals, int(cnt))[:start+int(cnt)]
			for k := start; k < len(f.Locals); k++ {
				f.Locals[k] = t
			}
		}
		for !bd.eof() {
			in, err := decodeInstr(bd, &f.BrTables)
			if err != nil {
				return fmt.Errorf("wasm: func %d: %w", i, err)
			}
			f.Body = append(f.Body, in)
		}
		if len(f.Body) == 0 || f.Body[len(f.Body)-1].Op != OpEnd {
			return fmt.Errorf("wasm: func %d body not terminated by end", i)
		}
		m.Funcs = append(m.Funcs, f)
	}
	return nil
}

// decodeConstExpr reads a single constant instruction followed by end.
func decodeConstExpr(d *decoder) (Instr, error) {
	var brTables [][]uint32 // a br_table is rejected below
	in, err := decodeInstr(d, &brTables)
	if err != nil {
		return Instr{}, err
	}
	switch in.Op {
	case OpI32Const, OpI64Const, OpF32Const, OpF64Const, OpGlobalGet:
	default:
		return Instr{}, fmt.Errorf("wasm: non-constant initializer %s", OpName(in.Op))
	}
	end, err := decodeInstr(d, &brTables)
	if err != nil {
		return Instr{}, err
	}
	if end.Op != OpEnd {
		return Instr{}, errors.New("wasm: initializer not terminated by end")
	}
	return in, nil
}

// decodeInstr reads one instruction, appending a br_table's target list to
// brTables.
func decodeInstr(d *decoder, brTables *[][]uint32) (Instr, error) {
	opb, err := d.byte()
	if err != nil {
		return Instr{}, err
	}
	in := Instr{Op: Opcode(opb)}
	if !KnownOpcode(in.Op) {
		return Instr{}, fmt.Errorf("unknown opcode 0x%02x", opb)
	}
	switch in.Op {
	case OpBlock, OpLoop, OpIf:
		bt, err := d.byte()
		if err != nil {
			return Instr{}, err
		}
		if bt != 0x40 {
			t := ValType(bt)
			if !t.Valid() {
				return Instr{}, fmt.Errorf("bad block type 0x%02x", bt)
			}
			in.Block = BlockOf(t)
		}
	case OpBr, OpBrIf, OpCall, OpLocalGet, OpLocalSet, OpLocalTee, OpGlobalGet, OpGlobalSet:
		v, err := d.u32()
		if err != nil {
			return Instr{}, err
		}
		in.I64 = int64(v)
	case OpCallIndirect:
		v, err := d.u32()
		if err != nil {
			return Instr{}, err
		}
		in.I64 = int64(v)
		tbl, err := d.byte()
		if err != nil {
			return Instr{}, err
		}
		if tbl != 0 {
			return Instr{}, errors.New("call_indirect: nonzero table index")
		}
	case OpBrTable:
		n, err := d.u32()
		if err != nil {
			return Instr{}, err
		}
		if n > 1<<20 {
			return Instr{}, errors.New("br_table too large")
		}
		tbl := make([]uint32, 0, n+1)
		for j := uint32(0); j <= n; j++ {
			t, err := d.u32()
			if err != nil {
				return Instr{}, err
			}
			tbl = append(tbl, t)
		}
		in.I64 = int64(len(*brTables))
		*brTables = append(*brTables, tbl)
	case OpI32Const:
		v, err := d.int(32)
		if err != nil {
			return Instr{}, err
		}
		in.I64 = v
	case OpI64Const:
		v, err := d.int(64)
		if err != nil {
			return Instr{}, err
		}
		in.I64 = v
	case OpF32Const:
		b, err := d.bytes(4)
		if err != nil {
			return Instr{}, err
		}
		in.F64 = float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))
	case OpF64Const:
		b, err := d.bytes(8)
		if err != nil {
			return Instr{}, err
		}
		in.F64 = math.Float64frombits(binary.LittleEndian.Uint64(b))
	case OpMemorySize, OpMemoryGrow:
		z, err := d.byte()
		if err != nil {
			return Instr{}, err
		}
		if z != 0 {
			return Instr{}, errors.New("memory instruction: nonzero memory index")
		}
	default:
		if in.Op.IsMemAccess() {
			if in.Align, err = d.u32(); err != nil {
				return Instr{}, err
			}
			if in.Offset, err = d.u32(); err != nil {
				return Instr{}, err
			}
		}
	}
	return in, nil
}
