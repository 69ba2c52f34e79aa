package x86

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestCCNegate(t *testing.T) {
	pairs := map[CC]CC{
		CCE: CCNE, CCL: CCGE, CCLE: CCG, CCB: CCAE, CCBE: CCA, CCS: CCNS, CCP: CCNP,
	}
	for a, b := range pairs {
		if a.Negate() != b || b.Negate() != a {
			t.Errorf("negate %v <-> %v broken", a, b)
		}
	}
}

func TestEncodedSizesReasonable(t *testing.T) {
	cases := []struct {
		in       Inst
		min, max uint8
	}{
		{Inst{Op: ONop}, 1, 1},
		{Inst{Op: ORet}, 1, 1},
		{Inst{Op: OMov, W: 8, Dst: R(RAX), Src: R(RCX)}, 3, 3},
		{Inst{Op: OMov, W: 4, Dst: R(RAX), Src: R(RCX)}, 2, 2},
		{Inst{Op: OJcc, CC: CCE}, 6, 6},
		{Inst{Op: OAdd, W: 4, Dst: R(RAX), Src: Imm(1)}, 3, 3},
		{Inst{Op: OAdd, W: 4, Dst: R(RAX), Src: Imm(100000)}, 6, 6},
		{Inst{Op: OMov, W: 8, Dst: R(RAX), Src: MB(RBP, -8)}, 4, 4},
	}
	for _, c := range cases {
		got := c.in.EncodedSize()
		if got < c.min || got > c.max {
			t.Errorf("%s: size %d, want [%d,%d]", c.in.String(), got, c.min, c.max)
		}
	}
}

func TestMemString(t *testing.T) {
	in := Inst{Op: OAdd, W: 4, Dst: M(Mem{Base: RDI, Index: RCX, Scale: 4, Disp: 0x1130}), Src: R(RBX)}
	if s := in.Dst.String(); s == "" {
		t.Error("empty operand string")
	}
}

func TestProgramLabels(t *testing.T) {
	p := NewProgram()
	p.Append(Inst{Op: OJmp, Target: 7})
	p.AppendTable(Inst{Op: OJmpTable, Dst: R(RAX)}, []int{8, 7})
	p.Bind(7)
	p.AppendNote(Inst{Op: ONop}, "")
	p.Bind(8)
	p.AppendNote(Inst{Op: ORet}, "done")
	if err := resolveLabels(p); err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Target != 2 {
		t.Errorf("jmp resolved to %d, want 2", p.Code[0].Target)
	}
	if p.Code[1].Target != 0 || len(p.Tables) != 1 || p.Tables[0][0] != 3 || p.Tables[0][1] != 2 {
		t.Errorf("jump table %d resolved to %v, want 0 and [3 2]", p.Code[1].Target, p.Tables)
	}
	if len(p.Notes) != 1 || p.Notes[0] != (Note{Idx: 3, Text: "done"}) {
		t.Errorf("notes %v, want one on instruction 3", p.Notes)
	}
	p.Layout()
	if p.Code[1].Addr <= p.Code[0].Addr {
		t.Error("layout addresses must increase")
	}
	p.Funcs = []FuncInfo{{Name: "f", Start: 0, End: 4}}
	if d := p.Disasm(0); !strings.Contains(d, "    ret # done\n") || strings.Count(d, " # ") != 2 {
		t.Errorf("listing must print the one note after its instruction:\n%s", d)
	}
}

// TestInstLayout pins Inst at 72 bytes or less with no pointer anywhere in
// it. A module's []Inst is most of its resident heap: a pointer-free
// element type lets the GC allocate every such slice noscan and never walk
// it, and each byte per instruction is paid by every compiled module the
// build cache and a disk hit keep resident. Listing notes and jump tables
// belong in Program.Notes and Program.Tables, not in Inst.
func TestInstLayout(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n > 72 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d, want <= 72", n)
	}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: Inst must hold no pointers", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(Inst{}), "Inst")
}

// resolveLabels rewrites the label-id branch, call and jump-table targets of
// a hand-built program to instruction indices through LabelTarget, the
// lookup codegen's fragment merge resolves with.
func resolveLabels(p *Program) error {
	resolve := func(t *int) error {
		idx, ok := p.LabelTarget(*t)
		if !ok {
			return fmt.Errorf("undefined label L%d", *t)
		}
		*t = idx
		return nil
	}
	for i := range p.Code {
		switch p.Code[i].Op {
		case OJmp, OJcc, OCall:
			if err := resolve(&p.Code[i].Target); err != nil {
				return err
			}
		}
	}
	for _, table := range p.Tables {
		for k := range table {
			if err := resolve(&table[k]); err != nil {
				return err
			}
		}
	}
	return nil
}
