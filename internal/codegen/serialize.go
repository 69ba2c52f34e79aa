package codegen

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
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
// Layout-derived fields (Inst.Addr/Size, Program.CodeBytes) are not stored:
// Layout() is deterministic over the instruction stream, so decode
// re-derives them. Nor are labels: every branch target is already an
// instruction index and FuncInfo keeps each entry label, so a decoded
// program, like a merged one, binds none. The engine configuration is not
// stored either — the content address (pipeline.Key) already covers every
// EngineConfig field, so the decoder takes the caller's config and
// reattaches it. Nor is the
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
// trailer. Besides bounds, it rejects every field the encoder cannot write
// (unknown flag bits, an empty note or jump table, a non-minimal varint,
// exports out of order), so a decoded module re-encodes to exactly the
// bytes it came from.
func decodePayload(data []byte, cfg *EngineConfig) (*CompiledModule, error) {
	d := &decBuf{b: data[headerSize : len(data)-trailerSize]}
	cm := &CompiledModule{Engine: cfg, Exports: map[string]int{}}

	p := &x86.Program{}
	decodeCode(d, p)
	n := d.count()
	p.Funcs = make([]x86.FuncInfo, n)
	for i := 0; i < n && d.err == nil; i++ {
		f := &p.Funcs[i]
		f.Name = d.str()
		f.Label = int(d.varint())
		f.Start = int(d.uvarint())
		f.End = int(d.uvarint())
		f.SigID = int(d.varint())
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
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		if i > 0 && name <= prev {
			d.fail("exports out of order")
		}
		prev = name
		cm.Exports[name] = int(d.uvarint())
	}

	n = d.count()
	cm.Stats = make([]FuncStats, n)
	for i := 0; i < n && d.err == nil; i++ {
		s := &cm.Stats[i]
		// Function i's stats carry its name: share the program's string.
		name := d.take(d.count())
		if i < len(p.Funcs) && string(name) == p.Funcs[i].Name {
			s.Name = p.Funcs[i].Name
		} else {
			s.Name = string(name)
		}
		s.Insts = int(d.varint())
		codeBytes := d.uvarint()
		if codeBytes > math.MaxUint32 {
			d.fail("function code size out of range")
		}
		s.CodeBytes = uint32(codeBytes)
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

// maxInstBytes bounds the encoding of an instruction's fixed fields, all
// but its jump table and note: 4 header bytes, two operands of at most
// 4+10 bytes (a memory operand's kind, base, index and scale, and its
// displacement, read as a full varint before its int32 range check), and
// the target and host varints.
const maxInstBytes = 4 + 2*(4+binary.MaxVarintLen64) + 2*binary.MaxVarintLen64

// decodeCode reads the instruction stream into p.Code, and the listing
// notes and jump tables stored inline in it into p's side tables.
//
// Each instruction's fixed fields are read by decodeInst with a local
// cursor from a window of maxInstBytes, so an instruction costs one bounds
// check, not one per byte: the window is the input itself while that many
// bytes remain, and near its end a zero-padded copy of the tail, where an
// instruction that used more bytes than were left is truncated. Notes are
// gathered as spans of the input and copied into one string at the end,
// which every Note.Text slices: one allocation for all of them.
func decodeCode(d *decBuf, p *x86.Program) {
	n := d.count()
	if d.err != nil {
		return
	}
	p.Code = make([]x86.Inst, n)
	var pad [maxInstBytes]byte
	type span struct{ idx, start, end int }
	var notes []span
	noteBytes := 0
	for i := range p.Code {
		in := &p.Code[i]
		flags, k, msg := decodeInst(d.window(pad[:]), in)
		if k > len(d.b)-d.off {
			msg = "truncated"
		}
		if msg != "" {
			d.fail(msg)
			return
		}
		d.off += k
		var table []int
		if flags&instFlagTable != 0 {
			if in.Op != x86.OJmpTable {
				d.fail("jump table on a non-table instruction")
				return
			}
			if table = make([]int, d.count()); len(table) == 0 {
				d.fail("empty jump table")
			}
			for k := 0; k < len(table) && d.err == nil; k++ {
				table[k] = int(d.varint())
			}
		}
		if in.Op == x86.OJmpTable {
			if in.Target != 0 {
				d.fail("jump table instruction with a target")
			}
			in.Target = len(p.Tables)
			p.Tables = append(p.Tables, table)
		}
		if flags&instFlagNote != 0 {
			text := d.take(d.count())
			if len(text) == 0 {
				d.fail("empty note")
			}
			notes = append(notes, span{i, d.off - len(text), d.off})
			noteBytes += len(text)
		}
		if d.err != nil {
			return
		}
	}
	if len(notes) == 0 {
		return
	}
	var sb strings.Builder
	sb.Grow(noteBytes)
	for _, s := range notes {
		sb.Write(d.b[s.start:s.end])
	}
	all := sb.String()
	p.Notes = make([]x86.Note, len(notes))
	for j, s := range notes {
		p.Notes[j] = x86.Note{Idx: s.idx, Text: all[:s.end-s.start]}
		all = all[s.end-s.start:]
	}
}

// decodeInst reads the fixed fields of one instruction into in from w,
// which holds at least maxInstBytes, and returns its flags and the bytes it
// used, or why the fields are not ones the encoder writes.
func decodeInst(w []byte, in *x86.Inst) (flags uint8, k int, msg string) {
	w = w[:maxInstBytes]
	in.Op, in.W, in.CC, flags = x86.Op(w[0]), w[1], x86.CC(w[2]), w[3]
	if flags&^(instFlagUns|instFlagNote|instFlagTable) != 0 {
		return 0, 4, "unknown instruction flags"
	}
	in.Uns = flags&instFlagUns != 0
	if k, msg = decodeOperand(w, 4, &in.Dst); msg != "" {
		return 0, k, msg
	}
	if k, msg = decodeOperand(w, k, &in.Src); msg != "" {
		return 0, k, msg
	}
	target, k, ok := uvarintAt(w, k)
	if !ok {
		return 0, k, "bad varint"
	}
	host, k, ok := uvarintAt(w, k)
	if !ok {
		return 0, k, "bad varint"
	}
	if h := unzigzag(host); h < math.MinInt32 || h > math.MaxInt32 {
		return 0, k, "host index out of range"
	}
	in.Target, in.Host = int(unzigzag(target)), int32(unzigzag(host))
	return flags, k, ""
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

// decodeOperand reads the operand at w[k:] into o and returns the index
// after it; w must hold 4+binary.MaxVarintLen64 bytes from k.
func decodeOperand(w []byte, k int, o *x86.Operand) (int, string) {
	o.Kind = x86.OperandKind(w[k])
	k++
	switch o.Kind {
	case x86.KNone:
	case x86.KReg:
		o.Reg = x86.Reg(w[k])
		k++
	case x86.KImm:
		v, next, ok := uvarintAt(w, k)
		if !ok {
			return next, "bad varint"
		}
		o.Imm, k = unzigzag(v), next
	case x86.KMem:
		o.Mem.Base, o.Mem.Index, o.Mem.Scale = x86.Reg(w[k]), x86.Reg(w[k+1]), w[k+2]
		v, next, ok := uvarintAt(w, k+3)
		if !ok {
			return next, "bad varint"
		}
		disp := unzigzag(v)
		if disp < math.MinInt32 || disp > math.MaxInt32 {
			return next, "displacement out of range"
		}
		o.Mem.Disp, k = int32(disp), next
	default:
		return k, "bad operand kind"
	}
	return k, ""
}

// uvarintAt decodes the uvarint at w[k:], which must hold
// binary.MaxVarintLen64 bytes, and returns it with the index after it. ok
// is false for an encoding binary.AppendUvarint never writes: one that
// overflows 64 bits or is not minimal (ends in a zero continuation byte).
func uvarintAt(w []byte, k int) (v uint64, next int, ok bool) {
	for s := uint(0); s < 64; s += 7 {
		b := w[k]
		k++
		v |= uint64(b&0x7f) << s
		if b < 0x80 {
			return v, k, (b != 0 || s == 0) && (s < 63 || b < 2)
		}
	}
	return 0, k, false
}

// unzigzag maps binary.AppendVarint's zigzag encoding back to int64.
func unzigzag(ux uint64) int64 { return int64(ux>>1) ^ -int64(ux&1) }

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

// window returns the input from the cursor on if at least len(pad) bytes
// remain, else the remaining bytes copied into pad and zero-padded. A
// reader of the window that ends past the real input read padding: it is
// truncated.
func (d *decBuf) window(pad []byte) []byte {
	rest := d.b[d.off:]
	if len(rest) >= len(pad) {
		return rest
	}
	clear(pad[copy(pad, rest):])
	return pad
}

func (d *decBuf) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var pad [binary.MaxVarintLen64]byte
	v, k, ok := uvarintAt(d.window(pad[:]), 0)
	if k > len(d.b)-d.off {
		d.fail("truncated")
		return 0
	}
	if !ok {
		d.fail("bad varint")
		return 0
	}
	d.off += k
	return v
}

func (d *decBuf) varint() int64 { return unzigzag(d.uvarint()) }

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
