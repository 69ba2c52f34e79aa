package x86

import (
	"fmt"
	"sort"
	"strings"
)

// FuncInfo describes one compiled function inside a Program.
type FuncInfo struct {
	Name  string
	Label int // entry label id
	// Start/End delimit the function's instructions (indices into Code).
	Start, End int
	SigID      int // signature id for indirect-call checks
}

// Note annotates the instruction at Code[Idx] in listings (Fig 7 style).
type Note struct {
	Idx  int
	Text string
}

// Program is a laid-out machine program: a flat instruction stream, its
// side tables, and per-function metadata.
type Program struct {
	Code  []Inst
	Funcs []FuncInfo
	// labels maps label ids to instruction indices while a program is
	// being built (Bind, LabelTarget). A merged or decoded program has
	// resolved every target and carries none.
	labels map[int]int

	// Notes annotate listings: sorted by Idx, at most one per instruction
	// (AppendNote).
	Notes []Note
	// Tables holds one target list per OJmpTable, indexed by its Target
	// (AppendTable): label ids until targets are resolved, instruction
	// indices after.
	Tables [][]int

	// CodeBytes is the total encoded size after layout.
	CodeBytes uint32

	// HostSigs records, for each host-function index, the number of i64
	// argument slots it takes (used by the simulator's calling convention).
	HostNames []string

	// Predecoded caches a consumer-specific predecoded view of Code: the
	// cpu package stores its micro-op translation here so that every
	// Machine instantiated from one laid-out Program (the spec harness
	// memoizes builds) shares a single decode. The field is owned and
	// synchronized entirely by the consumer; Program itself never reads it.
	Predecoded any
}

// NewProgram returns an empty program ready to bind labels.
func NewProgram() *Program {
	return &Program{labels: map[int]int{}}
}

// Reset clears the program for reuse, keeping the instruction slice and
// label-table capacity. Used by the compiler's pooled per-function fragment
// programs.
func (p *Program) Reset() {
	p.Code = p.Code[:0]
	p.Funcs = p.Funcs[:0]
	p.Notes = p.Notes[:0]
	p.Tables = p.Tables[:0]
	clear(p.labels)
	p.CodeBytes = 0
	p.HostNames = nil
	p.Predecoded = nil
}

// Append adds an instruction and returns its index.
func (p *Program) Append(in Inst) int {
	p.Code = append(p.Code, in)
	return len(p.Code) - 1
}

// AppendNote adds an instruction annotated with text and returns its index.
// An empty text adds no note.
func (p *Program) AppendNote(in Inst, text string) int {
	i := p.Append(in)
	if text != "" {
		p.Notes = append(p.Notes, Note{Idx: i, Text: text})
	}
	return i
}

// AppendTable adds an OJmpTable that jumps through targets, setting its
// Target to the new table's index, and returns the instruction's index.
func (p *Program) AppendTable(in Inst, targets []int) int {
	in.Target = len(p.Tables)
	p.Tables = append(p.Tables, targets)
	return p.Append(in)
}

// Bind associates label id with the next instruction index.
func (p *Program) Bind(label int) {
	p.labels[label] = len(p.Code)
}

// LabelTarget resolves a label to an instruction index.
func (p *Program) LabelTarget(label int) (int, bool) {
	idx, ok := p.labels[label]
	return idx, ok
}

// Layout assigns code addresses and sizes. Call after all code is appended.
func (p *Program) Layout() {
	addr := uint32(0x1000) // text base
	for i := range p.Code {
		in := &p.Code[i]
		in.Size = in.EncodedSize()
		in.Addr = addr
		addr += uint32(in.Size)
	}
	p.CodeBytes = addr - 0x1000
}

// Disasm renders the instructions of function fn as an assembly listing with
// local labels, in the style of the paper's Figure 7.
func (p *Program) Disasm(fn int) string {
	f := p.Funcs[fn]
	// Collect branch targets inside the function for label printing.
	targets := map[int]int{}
	next := 1
	for i := f.Start; i < f.End; i++ {
		in := &p.Code[i]
		if in.Op == OJmp || in.Op == OJcc {
			if in.Target >= f.Start && in.Target <= f.End {
				if _, ok := targets[in.Target]; !ok {
					targets[in.Target] = next
					next++
				}
			}
		}
	}
	notes := p.Notes[sort.Search(len(p.Notes), func(k int) bool { return p.Notes[k].Idx >= f.Start }):]
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:  # %d instructions, %d bytes\n", f.Name, f.End-f.Start, p.funcBytes(fn))
	for i := f.Start; i < f.End; i++ {
		in := p.Code[i]
		if l, ok := targets[i]; ok {
			fmt.Fprintf(&sb, "L%d:\n", l)
		}
		s := in.String()
		if in.Op == OJmp || in.Op == OJcc {
			if l, ok := targets[in.Target]; ok {
				s = strings.Replace(s, fmt.Sprintf("L%d", in.Target), fmt.Sprintf("L%d", l), 1)
			}
		}
		if len(notes) > 0 && notes[0].Idx == i {
			s += " # " + notes[0].Text
			notes = notes[1:]
		}
		fmt.Fprintf(&sb, "    %s\n", s)
	}
	return sb.String()
}

func (p *Program) funcBytes(fn int) uint32 {
	f := p.Funcs[fn]
	var n uint32
	for i := f.Start; i < f.End; i++ {
		n += uint32(p.Code[i].Size)
	}
	return n
}
