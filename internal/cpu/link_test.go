package cpu

import (
	"encoding/binary"
	"testing"

	"repro/internal/codegen"
	"repro/internal/wasm"
	"repro/internal/x86"
)

// TestLoadPoisonsEveryTableSlot pins the indirect-call table Load builds:
// the module's element in its slot, and every other slot of the whole table
// poisoned with signature -1 and an entry one past the code, so a call
// through it traps.
func TestLoadPoisonsEveryTableSlot(t *testing.T) {
	b := wasm.NewModuleBuilder()
	b.Memory(1, 1)
	leaf := b.Func("leaf", wasm.FuncType{Results: []wasm.ValType{wasm.I32}})
	leaf.I32Const(5)
	b.Table(4)
	b.Elem(2, []uint32{leaf.Index()})
	b.Export("leaf", wasm.ExternFunc, leaf.Index())
	cm, err := codegen.Compile(b.Module(), codegen.Chrome())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Load(cm)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.ReleaseMemory()
	te := cm.Table[2]
	for slot := 0; slot < len(inst.tableMem)/x86.TableEntrySize; slot++ {
		wantSig, wantEntry := int64(-1), int64(len(cm.Prog.Code))
		if slot == 2 {
			wantSig, wantEntry = int64(te.SigID), int64(cm.Entries[te.FuncIdx])
		}
		row := inst.tableMem[slot*x86.TableEntrySize:]
		sig, entry := int64(binary.LittleEndian.Uint64(row)), int64(binary.LittleEndian.Uint64(row[8:]))
		if sig != wantSig || entry != wantEntry {
			t.Fatalf("slot %d holds (sig %d, entry %d), want (%d, %d)", slot, sig, entry, wantSig, wantEntry)
		}
	}
}
