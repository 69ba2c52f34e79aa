package codegen

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/wasm"
	"repro/internal/x86"
)

// Artifact format: a versioned header, a flat field-by-field payload, and a
// sha256 integrity trailer over everything before it. The encoding is fully
// deterministic (maps are emitted in sorted key order) so identical modules
// produce identical artifacts, and decoding never trusts a length field
// without checking it against the remaining input, so truncated or bit-flipped
// artifacts fail cleanly with an error instead of a panic or an over-sized
// allocation.
//
// Layout-derived fields (Inst.Addr/Size, Program.CodeBytes) and the label
// table are not stored: Layout() is deterministic over the instruction stream
// and function entry labels are recoverable from FuncInfo, so both are
// reconstructed on decode. The engine configuration is not stored either —
// the content address (pipeline.Key) already covers every EngineConfig field,
// so the decoder takes the caller's config and reattaches it. Nor is the
// source wasm module: a run reads only each function's signature and the
// data segments, which are stored as plain fields, so a disk hit never
// decodes a function body.

// artifactMagic and ArtifactVersion prefix every encoded module. Bump the
// version whenever the payload layout, the encoded instruction fields, or
// anything else that changes decode semantics moves; stale artifacts then
// read as a version mismatch and fall back to a recompile.
var artifactMagic = [4]byte{'R', 'P', 'A', 'M'}

// ArtifactVersion is the current artifact format version. Version 3 stores
// function signatures and resolved data segments in place of the embedded
// wasm module that versions 1 and 2 carried.
const ArtifactVersion = 3

// trailerSize is the sha256 integrity trailer length.
const trailerSize = sha256.Size

// headerSize is magic + u32 version.
const headerSize = 8

// EncodeModule serializes cm into the artifact format.
func EncodeModule(cm *CompiledModule) ([]byte, error) {
	if cm == nil || cm.Prog == nil {
		return nil, fmt.Errorf("codegen: cannot encode incomplete module")
	}
	e := &encBuf{}
	e.raw(artifactMagic[:])
	e.u32(ArtifactVersion)

	// Program.
	p := cm.Prog
	e.uvarint(uint64(len(p.Code)))
	notes := p.Notes
	for i := range p.Code {
		var note string
		if len(notes) > 0 && notes[0].Idx == i {
			note, notes = notes[0].Text, notes[1:]
		}
		encodeInst(e, p, &p.Code[i], note)
	}
	e.uvarint(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		e.str(f.Name)
		e.varint(int64(f.Label))
		e.uvarint(uint64(f.Start))
		e.uvarint(uint64(f.End))
		e.varint(int64(f.SigID))
	}
	e.strs(p.HostNames)

	// Module-level tables.
	e.uvarint(uint64(len(cm.Entries)))
	for _, v := range cm.Entries {
		e.uvarint(uint64(v))
	}
	e.uvarint(uint64(len(cm.Sigs)))
	for _, ft := range cm.Sigs {
		e.valTypes(ft.Params)
		e.valTypes(ft.Results)
	}
	e.uvarint(uint64(len(cm.Table)))
	for _, te := range cm.Table {
		e.varint(int64(te.SigID))
		e.varint(int64(te.FuncIdx))
	}
	e.uvarint(uint64(len(cm.GlobalInit)))
	for _, v := range cm.GlobalInit {
		e.u64(v)
	}
	e.u32(cm.MemPages)
	e.u32(cm.MemMax)
	e.uvarint(uint64(len(cm.Data)))
	for _, seg := range cm.Data {
		e.u32(seg.Offset)
		e.bytes(seg.Bytes)
	}
	e.bytes(cm.Rodata)
	e.strs(cm.HostImports)

	names := make([]string, 0, len(cm.Exports))
	for name := range cm.Exports {
		names = append(names, name)
	}
	sort.Strings(names)
	e.uvarint(uint64(len(names)))
	for _, name := range names {
		e.str(name)
		e.uvarint(uint64(cm.Exports[name]))
	}

	e.uvarint(uint64(len(cm.Stats)))
	for _, s := range cm.Stats {
		e.str(s.Name)
		e.varint(int64(s.Insts))
		e.uvarint(uint64(s.CodeBytes))
		e.varint(int64(s.Spills))
		e.varint(int64(s.UsedRegs))
		e.varint(int64(s.IRLen))
		e.varint(int64(s.NumBlocks))
	}
	e.varint(int64(cm.CompileTime))
	e.varint(int64(cm.TotalSpills))
	e.u8(uint8(cm.PtrSize))

	sum := sha256.Sum256(e.b)
	return append(e.b, sum[:]...), nil
}

// VerifyArtifact checks data is a structurally plausible artifact — magic,
// current format version, and the sha256 integrity trailer — without
// decoding it into a module. The remote cache tier calls it on every
// fetched payload (and the serving side on every published one) so corrupt
// bytes are rejected before any decoder state is built from them.
func VerifyArtifact(data []byte) error {
	if err := checkHeader(data); err != nil {
		return err
	}
	payload, trailer := data[:len(data)-trailerSize], data[len(data)-trailerSize:]
	sum := sha256.Sum256(payload)
	if subtle.ConstantTimeCompare(sum[:], trailer) != 1 {
		return fmt.Errorf("codegen: artifact integrity check failed")
	}
	return nil
}

// checkHeader checks the artifact's length, magic and format version.
func checkHeader(data []byte) error {
	if len(data) < headerSize+trailerSize {
		return fmt.Errorf("codegen: artifact truncated (%d bytes)", len(data))
	}
	for i := range artifactMagic {
		if data[i] != artifactMagic[i] {
			return fmt.Errorf("codegen: bad artifact magic")
		}
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != ArtifactVersion {
		return fmt.Errorf("codegen: artifact version %d, want %d", v, ArtifactVersion)
	}
	return nil
}

// DecodeModule deserializes an artifact produced by EncodeModule, verifying
// the version header and the integrity trailer, and reattaches cfg as the
// module's engine configuration. The caller is responsible for only handing
// in artifacts stored under cfg's content address.
func DecodeModule(data []byte, cfg *EngineConfig) (*CompiledModule, error) {
	if err := VerifyArtifact(data); err != nil {
		return nil, err
	}
	return decodePayload(data, cfg)
}

// DecodeVerifiedModule is DecodeModule for bytes that have already passed
// VerifyArtifact, such as a remote cache hit: it checks the header but does
// not hash the payload a second time. Every bounds and cross-reference check
// still runs, so damaged input fails with an error, never a panic.
func DecodeVerifiedModule(data []byte, cfg *EngineConfig) (*CompiledModule, error) {
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	return decodePayload(data, cfg)
}

// decodePayload decodes the payload between a checked header and the
// trailer.
func decodePayload(data []byte, cfg *EngineConfig) (*CompiledModule, error) {
	d := &decBuf{b: data[headerSize : len(data)-trailerSize]}
	cm := &CompiledModule{Engine: cfg, Exports: map[string]int{}}

	p := x86.NewProgram()
	n := d.count()
	p.Code = make([]x86.Inst, n)
	for i := 0; i < n && d.err == nil; i++ {
		decodeInstBin(d, p, i)
	}
	n = d.count()
	p.Funcs = make([]x86.FuncInfo, n)
	for i := 0; i < n && d.err == nil; i++ {
		f := &p.Funcs[i]
		f.Name = d.str()
		f.Label = int(d.varint())
		f.Start = int(d.uvarint())
		f.End = int(d.uvarint())
		f.SigID = int(d.varint())
		// Branch targets were resolved to instruction indices before
		// encoding; only function entry labels survive, via FuncInfo.
		p.BindAt(f.Label, f.Start)
		p.FuncByLabel[f.Label] = i
	}
	p.HostNames = d.strs()
	cm.Prog = p

	n = d.count()
	cm.Entries = make([]int, n)
	for i := 0; i < n && d.err == nil; i++ {
		cm.Entries[i] = int(d.uvarint())
	}
	cm.Sigs = decodeSigs(d)
	n = d.count()
	cm.Table = make([]TableEntry, n)
	for i := 0; i < n && d.err == nil; i++ {
		cm.Table[i] = TableEntry{SigID: int(d.varint()), FuncIdx: int(d.varint())}
	}
	n = d.count()
	cm.GlobalInit = make([]uint64, n)
	for i := 0; i < n && d.err == nil; i++ {
		cm.GlobalInit[i] = d.u64()
	}
	cm.MemPages = d.u32()
	cm.MemMax = d.u32()
	n = d.count()
	cm.Data = make([]DataSegment, n)
	for i := 0; i < n && d.err == nil; i++ {
		cm.Data[i].Offset = d.u32()
		cm.Data[i].Bytes = d.bytes()
	}
	cm.Rodata = d.bytes()
	cm.HostImports = d.strs()

	n = d.count()
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		cm.Exports[name] = int(d.uvarint())
	}

	n = d.count()
	cm.Stats = make([]FuncStats, n)
	for i := 0; i < n && d.err == nil; i++ {
		s := &cm.Stats[i]
		s.Name = d.str()
		s.Insts = int(d.varint())
		s.CodeBytes = uint32(d.uvarint())
		s.Spills = int(d.varint())
		s.UsedRegs = int(d.varint())
		s.IRLen = int(d.varint())
		s.NumBlocks = int(d.varint())
	}
	cm.CompileTime = time.Duration(d.varint())
	cm.TotalSpills = int(d.varint())
	cm.PtrSize = int(d.u8())

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("codegen: artifact has %d trailing bytes", len(d.b)-d.off)
	}
	if err := validateDecoded(cm); err != nil {
		return nil, err
	}
	// Addr, Size, and CodeBytes are deterministic over the instruction
	// stream, so re-deriving them is both smaller and self-consistent.
	p.Layout()
	return cm, nil
}

// validateDecoded checks the cross-references a hostile or damaged artifact
// could break even with an intact hash trailer format (index ranges between
// independently length-prefixed sections).
func validateDecoded(cm *CompiledModule) error {
	nc := len(cm.Prog.Code)
	for i, f := range cm.Prog.Funcs {
		if f.Start < 0 || f.End < f.Start || f.End > nc {
			return fmt.Errorf("codegen: artifact function %d range [%d,%d) outside code", i, f.Start, f.End)
		}
	}
	for i, ent := range cm.Entries {
		if ent < 0 || ent >= nc {
			return fmt.Errorf("codegen: artifact entry %d out of range", i)
		}
	}
	if len(cm.Sigs) != len(cm.Entries) {
		return fmt.Errorf("codegen: artifact has %d signatures for %d entries", len(cm.Sigs), len(cm.Entries))
	}
	for i, ft := range cm.Sigs {
		for _, ts := range [2][]wasm.ValType{ft.Params, ft.Results} {
			for _, t := range ts {
				if !t.Valid() {
					return fmt.Errorf("codegen: artifact function %d has unknown value type 0x%02x", i, byte(t))
				}
			}
		}
	}
	for name, fi := range cm.Exports {
		if fi < 0 || fi >= len(cm.Entries) {
			return fmt.Errorf("codegen: artifact export %q out of range", name)
		}
	}
	for i, te := range cm.Table {
		if te.FuncIdx >= len(cm.Entries) {
			return fmt.Errorf("codegen: artifact table slot %d out of range", i)
		}
	}
	return nil
}

// decodeSigs reads the per-function signature list. A module uses few
// distinct signatures, so functions whose encoded signatures are identical
// share one decoded FuncType instead of allocating a copy each.
func decodeSigs(d *decBuf) []wasm.FuncType {
	n := d.count()
	sigs := make([]wasm.FuncType, n)
	seen := map[string]wasm.FuncType{}
	for i := 0; i < n && d.err == nil; i++ {
		start := d.off
		params := d.take(d.count())
		results := d.take(d.count())
		raw := d.b[start:d.off]
		ft, ok := seen[string(raw)]
		if !ok {
			ft = wasm.FuncType{Params: valTypes(params), Results: valTypes(results)}
			seen[string(raw)] = ft
		}
		sigs[i] = ft
	}
	return sigs
}

// valTypes converts encoded value-type bytes; validateDecoded checks them.
func valTypes(p []byte) []wasm.ValType {
	if len(p) == 0 {
		return nil
	}
	ts := make([]wasm.ValType, len(p))
	for i, b := range p {
		ts[i] = wasm.ValType(b)
	}
	return ts
}

// Inst flag bits in the encoded stream. An instruction's listing note and
// jump table are stored inline after its fields, under these flags, though
// in memory both live in the Program's side tables.
const (
	instFlagUns = 1 << iota
	instFlagNote
	instFlagTable
)

// encodeInst writes p.Code entry in, with note as its listing note. An
// OJmpTable is written with Target 0, followed by its table's entries.
func encodeInst(e *encBuf, p *x86.Program, in *x86.Inst, note string) {
	e.u8(uint8(in.Op))
	e.u8(in.W)
	e.u8(uint8(in.CC))
	var flags uint8
	if in.Uns {
		flags |= instFlagUns
	}
	if note != "" {
		flags |= instFlagNote
	}
	target, table := in.Target, []int(nil)
	if in.Op == x86.OJmpTable {
		target, table = 0, p.Tables[in.Target]
	}
	if len(table) > 0 {
		flags |= instFlagTable
	}
	e.u8(flags)
	encodeOperand(e, &in.Dst)
	encodeOperand(e, &in.Src)
	e.varint(int64(target))
	e.varint(int64(in.Host))
	if flags&instFlagTable != 0 {
		e.uvarint(uint64(len(table)))
		for _, t := range table {
			e.varint(int64(t))
		}
	}
	if flags&instFlagNote != 0 {
		e.str(note)
	}
}

// decodeInstBin reads p.Code[i], appending its note and, for an
// OJmpTable, its jump table to p's side tables.
func decodeInstBin(d *decBuf, p *x86.Program, i int) {
	in := &p.Code[i]
	in.Op = x86.Op(d.u8())
	in.W = d.u8()
	in.CC = x86.CC(d.u8())
	flags := d.u8()
	in.Uns = flags&instFlagUns != 0
	decodeOperand(d, &in.Dst)
	decodeOperand(d, &in.Src)
	in.Target = int(d.varint())
	host := d.varint()
	if host < math.MinInt32 || host > math.MaxInt32 {
		d.fail("host index out of range")
	}
	in.Host = int32(host)
	var table []int
	if flags&instFlagTable != 0 {
		if in.Op != x86.OJmpTable {
			d.fail("jump table on a non-table instruction")
		}
		table = make([]int, d.count())
		for k := 0; k < len(table) && d.err == nil; k++ {
			table[k] = int(d.varint())
		}
	}
	if in.Op == x86.OJmpTable {
		in.Target = len(p.Tables)
		p.Tables = append(p.Tables, table)
	}
	if flags&instFlagNote != 0 {
		p.Notes = append(p.Notes, x86.Note{Idx: i, Text: d.str()})
	}
}

func encodeOperand(e *encBuf, o *x86.Operand) {
	e.u8(uint8(o.Kind))
	switch o.Kind {
	case x86.KReg:
		e.u8(uint8(o.Reg))
	case x86.KImm:
		e.varint(o.Imm)
	case x86.KMem:
		e.u8(uint8(o.Mem.Base))
		e.u8(uint8(o.Mem.Index))
		e.u8(o.Mem.Scale)
		e.varint(int64(o.Mem.Disp))
	}
}

func decodeOperand(d *decBuf, o *x86.Operand) {
	o.Kind = x86.OperandKind(d.u8())
	switch o.Kind {
	case x86.KNone:
	case x86.KReg:
		o.Reg = x86.Reg(d.u8())
	case x86.KImm:
		o.Imm = d.varint()
	case x86.KMem:
		o.Mem.Base = x86.Reg(d.u8())
		o.Mem.Index = x86.Reg(d.u8())
		o.Mem.Scale = d.u8()
		o.Mem.Disp = int32(d.varint())
	default:
		d.fail("bad operand kind")
	}
}

// encBuf is a little-endian append-only encoder.
type encBuf struct{ b []byte }

func (e *encBuf) raw(p []byte) { e.b = append(e.b, p...) }
func (e *encBuf) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encBuf) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encBuf) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

func (e *encBuf) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encBuf) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }

func (e *encBuf) bytes(p []byte) {
	e.uvarint(uint64(len(p)))
	e.raw(p)
}

func (e *encBuf) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encBuf) valTypes(ts []wasm.ValType) {
	e.uvarint(uint64(len(ts)))
	for _, t := range ts {
		e.u8(byte(t))
	}
}

func (e *encBuf) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// decBuf is the matching bounds-checked decoder. The first failure latches
// into err; every subsequent read returns zero values, so decode loops can
// run to completion and check err once.
type decBuf struct {
	b   []byte
	off int
	err error
}

func (d *decBuf) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("codegen: artifact corrupt at byte %d: %s", d.off, msg)
	}
}

func (d *decBuf) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated")
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *decBuf) u8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *decBuf) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *decBuf) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (d *decBuf) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decBuf) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// count reads an element count and sanity-checks it against the remaining
// input (every element takes at least one byte), so a corrupt length prefix
// cannot drive a huge allocation.
func (d *decBuf) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off) {
		d.fail("length prefix exceeds input")
		return 0
	}
	if v > math.MaxInt32 {
		d.fail("length prefix out of range")
		return 0
	}
	return int(v)
}

func (d *decBuf) bytes() []byte {
	n := d.count()
	p := d.take(n)
	if p == nil {
		return nil
	}
	// Copy out: the artifact buffer may be pooled or mmap'd by callers.
	return append([]byte(nil), p...)
}

func (d *decBuf) str() string { return string(d.take(d.count())) }

func (d *decBuf) strs() []string {
	n := d.count()
	ss := make([]string, n)
	for i := 0; i < n && d.err == nil; i++ {
		ss[i] = d.str()
	}
	return ss
}
