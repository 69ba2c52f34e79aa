package cpu

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/codegen"
	"repro/internal/perf"
	"repro/internal/wasm"
	"repro/internal/x86"
)

// TestLoadPoisonsEveryTableSlot pins the indirect-call table Load builds:
// the module's element in its slot, and every other slot of the whole table
// poisoned with signature -1 and an entry one past the code, so a call
// through it traps. Load materializes only the declared rows; every row is
// read through the load path, which poisons the rest on touch.
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
	if rows := len(inst.tableMem) / x86.TableEntrySize; rows != len(cm.Table) {
		t.Fatalf("Load materialized %d table rows, want the %d declared", rows, len(cm.Table))
	}
	te := cm.Table[2]
	for slot := 0; slot < cap(inst.tableMem)/x86.TableEntrySize; slot++ {
		wantSig, wantEntry := int64(-1), int64(len(cm.Prog.Code))
		if slot == 2 {
			wantSig, wantEntry = int64(te.SigID), int64(cm.Entries[te.FuncIdx])
		}
		row := uint32(x86.TableBase) + uint32(slot*x86.TableEntrySize)
		sig, err := inst.load(row, 8)
		if err != nil {
			t.Fatal(err)
		}
		entry, err := inst.load(row+8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if int64(sig) != wantSig || int64(entry) != wantEntry {
			t.Fatalf("slot %d holds (sig %d, entry %d), want (%d, %d)", slot, int64(sig), int64(entry), wantSig, wantEntry)
		}
	}
	if _, err := inst.load(uint32(x86.TableBase)+uint32(cap(inst.tableMem)), 8); err == nil {
		t.Fatal("a load past the table did not trap")
	}
}

// TestFarTableRowTraps calls through undeclared table rows on the native
// configuration, which has no bounds or signature check: a row inside the
// table reads the poison entry (poisoned on touch) and traps as an invalid
// target, a row past it faults on the load. Trap, PC and counters are the
// ones the eagerly poisoned table gave, on both dispatchers; afterwards the
// pooled table buffer is zero over its whole capacity.
func TestFarTableRowTraps(t *testing.T) {
	for _, tc := range []struct {
		row   int32
		msg   string
		pc    int
		count perf.Counters
	}{
		{9000, "indirect call to invalid target", 16, perf.Counters{Loads: 1, Stores: 1, Instructions: 8,
			Cycles: 231, L1IMisses: 1, L1DMisses: 2, L2Misses: 2}},
		{20000, "out-of-bounds load at 0xe014e208", 15, perf.Counters{Stores: 1, Instructions: 7,
			Cycles: 131, L1IMisses: 1, L1DMisses: 1, L2Misses: 1}},
	} {
		b := wasm.NewModuleBuilder()
		b.Memory(1, 1)
		sig := wasm.FuncType{Results: []wasm.ValType{wasm.I32}}
		leaf := b.Func("leaf", sig)
		leaf.I32Const(5)
		far := b.Func("far", sig)
		far.I32Const(tc.row).CallIndirect(sig)
		b.Table(4)
		b.Elem(0, []uint32{leaf.Index()})
		b.Export("far", wasm.ExternFunc, far.Index())
		cm, err := codegen.Compile(b.Module(), codegen.Native())
		if err != nil {
			t.Fatal(err)
		}
		for _, legacy := range []bool{false, true} {
			drainPool()
			mm := releaseAndDrain(t, func() *Machine {
				inst, err := Load(cm)
				if err != nil {
					t.Fatal(err)
				}
				inst.NoPredecode = legacy
				_, err = inst.Invoke("far")
				var te *TrapError
				if !errors.As(err, &te) || te.Msg != tc.msg || te.PC != tc.pc {
					t.Fatalf("row %d legacy=%v: got %v, want cpu trap at %d: %s", tc.row, legacy, err, tc.pc, tc.msg)
				}
				if inst.Counters != tc.count {
					t.Fatalf("row %d legacy=%v: counters\n got:  %v\n want: %v", tc.row, legacy, inst.Counters.String(), tc.count.String())
				}
				return inst.Machine
			})
			if i := slices.IndexFunc(mm.tableMem[:cap(mm.tableMem)], func(c byte) bool { return c != 0 }); i >= 0 {
				t.Fatalf("row %d legacy=%v: pooled table dirty at %d of capacity %d", tc.row, legacy, i, cap(mm.tableMem))
			}
		}
	}
}
