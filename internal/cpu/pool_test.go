package cpu

// Tests for the machine-memory recycle pool: a machine built from a pooled
// image must be bit-identical to one built from fresh allocations — same
// results, same counters, memory that reads zero up to its logical size —
// and growth paths must never expose stale bytes from a previous process.
// Release clears only what the process touched, so the tests also pin the
// invariant that makes that sufficient: a pooled linear buffer is zero over
// its whole capacity, not just its materialized prefix.

import (
	"slices"
	"testing"

	"repro/internal/x86"
)

// TestMachineMemoryRecycling runs the golden program repeatedly, releasing
// each machine's memory back to the pool, and demands the exact same return
// value and counter snapshot every time.
func TestMachineMemoryRecycling(t *testing.T) {
	prog := buildGoldenProgram()
	var first *Machine
	for i := 0; i < 5; i++ {
		m := NewMachine(prog, 1, 1)
		ret, err := m.Call(0)
		if err != nil {
			t.Fatalf("iteration %d trapped: %v", i, err)
		}
		if want := uint64(7109254968427); ret != want {
			t.Fatalf("iteration %d returned %d, want %d", i, ret, want)
		}
		if m.Counters != goldenCounters {
			t.Fatalf("iteration %d counters diverged:\n got:  %v\n want: %v",
				i, m.Counters.String(), goldenCounters.String())
		}
		if first == nil {
			first = m
		}
		m.ReleaseMemory()
		if m.Linear != nil || m.L1D != nil || m.BP != nil {
			t.Fatal("release must detach the memory image")
		}
		m.ReleaseMemory() // double release is a no-op
	}
	// Counters survive release: results outlive processes.
	if first.Counters != goldenCounters {
		t.Error("released machine lost its counters")
	}
}

// TestRecycledMemoryIsZero dirties every pooled region — the whole logical
// linear memory through the store path and, after growth, through
// LinearRange (the accessor behind the kernel's syscall copies) — releases,
// and checks the pooled image is zero over every buffer's full capacity and
// its caches equal fresh ones. A machine built from it must read zero
// through load at every byte up to its logical size, before and after
// growing into the recycled spare capacity.
func TestRecycledMemoryIsZero(t *testing.T) {
	prog := buildGoldenProgram()
	drainPool()
	mm := releaseAndDrain(t, func() *Machine {
		m := NewMachine(prog, 2, 8)
		for a := 0; a < m.LinearSize(); a += 8 {
			if err := m.store(uint32(a), 8, 0xABABABABABABABAB); err != nil {
				t.Fatal(err)
			}
		}
		if old := m.GrowLinear(2); old != 2 {
			t.Fatalf("grow returned %d", old)
		}
		dst, ok := m.LinearRange(2*65536, 2*65536)
		if !ok {
			t.Fatal("grown pages out of range")
		}
		for i := range dst {
			dst[i] = 0xCD
		}
		if len(m.Linear) != m.LinearSize() {
			t.Fatalf("dirtied prefix is %d bytes, logical size %d", len(m.Linear), m.LinearSize())
		}
		m.SetGlobal(7, ^uint64(0))
		m.SetTableEntry(3, 123, 456)
		// Dirty the stack through the store path, forcing window growth.
		if err := m.store(uint32(x86.StackTop)-200*1024, 8, 0xDEADBEEF); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Call(0); err != nil { // fills the caches and predictor
			t.Fatal(err)
		}
		return m
	})
	for name, b := range map[string][]byte{
		"linear": mm.linear, "stack": mm.stack, "globals": mm.globals, "table": mm.tableMem,
	} {
		if i := slices.IndexFunc(b[:cap(b)], func(c byte) bool { return c != 0 }); i >= 0 {
			t.Fatalf("pooled %s buffer dirty at %d of capacity %d", name, i, cap(b))
		}
	}
	for name, c := range map[string][2]*Cache{
		"L1I": {mm.l1i, NewCache(32*1024, 64, 8)},
		"L1D": {mm.l1d, NewCache(32*1024, 64, 8)},
		"L2":  {mm.l2, NewCache(256*1024, 64, 8)},
	} {
		got, want := c[0], c[1]
		if !slices.Equal(got.lines, want.lines) || !slices.Equal(got.mru, want.mru) ||
			got.ndirty != 0 || got.tick != 0 || got.Misses != 0 || got.Accesses != 0 {
			t.Fatalf("pooled %s cache was not reset to its fresh state", name)
		}
	}

	memPool.Put(mm)
	r := NewMachine(prog, 1, 8)
	checkZero := func(when string) {
		t.Helper()
		if i := slices.IndexFunc(r.Linear[len(r.Linear):cap(r.Linear)], func(c byte) bool { return c != 0 }); i >= 0 {
			t.Fatalf("%s: spare capacity dirty at %d", when, len(r.Linear)+i)
		}
		for a := 0; a < r.LinearSize(); a += 8 {
			if v, err := r.load(uint32(a), 8); err != nil || v != 0 {
				t.Fatalf("%s: linear memory reads %#x at %#x (err %v)", when, v, a, err)
			}
		}
	}
	checkZero("recycled")
	if g := r.Global(7); g != 0 {
		t.Fatalf("recycled globals dirty: %#x", g)
	}
	if old := r.GrowLinear(3); old != 1 {
		t.Fatalf("grow returned %d", old)
	}
	checkZero("grown")
	if v, err := r.load(uint32(x86.StackTop)-200*1024, 8); err != nil || v != 0 {
		t.Fatalf("recycled stack dirty: %#x (err %v)", v, err)
	}
	r.ReleaseMemory()
}

// TestPooledSpawnAllocations proves machine construction from the pool does
// not re-allocate the memory image.
func TestPooledSpawnAllocations(t *testing.T) {
	if raceEnabled {
		// Under the race detector sync.Pool intentionally drops a random
		// fraction of puts, so the allocation count is nondeterministic.
		t.Skip("sync.Pool is randomized under the race detector")
	}
	prog := buildGoldenProgram()
	// Discard images left behind by other tests (their shapes may not fit
	// this program), then warm the pool and the predecode cache.
	drainPool()
	NewMachine(prog, 1, 1).ReleaseMemory()
	avg := testing.AllocsPerRun(20, func() {
		m := NewMachine(prog, 1, 1)
		if _, err := m.Call(0); err != nil {
			t.Fatal(err)
		}
		m.ReleaseMemory()
	})
	// A fresh image is hundreds of allocations' worth of cache lines plus
	// multi-MB buffers; a pooled run is the Machine struct and little else.
	if avg > 8 {
		t.Errorf("pooled machine run allocates %.0f objects per spawn", avg)
	}
}

// drainPool empties the recycle pool, returning the last image seen (nil if
// the pool was empty).
func drainPool() *machineMem {
	var last *machineMem
	for {
		v := memPool.Get()
		if v == nil {
			return last
		}
		last = v.(*machineMem)
	}
}

// releaseAndDrain releases machines built by mk until the pool yields an
// image. Under the race detector sync.Pool deliberately drops a fraction of
// Puts, so a single release is not guaranteed to be observable; repeated
// attempts make the drop probability vanish. Skips if the pool never
// retains (pathological scheduling).
func releaseAndDrain(t *testing.T, mk func() *Machine) *machineMem {
	t.Helper()
	for i := 0; i < 32; i++ {
		mk().ReleaseMemory()
		if mm := drainPool(); mm != nil {
			return mm
		}
	}
	t.Skip("sync.Pool retained nothing after 32 releases (race-mode drops)")
	return nil
}

// TestOversizedImagesAreNotPooled releases a machine whose linear memory and
// stack window grew past the retention caps and checks the pool drops those
// buffers (while keeping the rest of the image), so one large workload
// cannot pin its high-water footprint for the process lifetime.
func TestOversizedImagesAreNotPooled(t *testing.T) {
	prog := buildGoldenProgram()
	drainPool()

	// Within the caps: both buffers are retained, at their full capacity.
	mm := releaseAndDrain(t, func() *Machine { return NewMachine(prog, 2, 4) })
	if mm.linear == nil || mm.stack == nil {
		t.Fatal("in-cap buffers must be pooled")
	}
	if cap(mm.linear) < 2*65536 {
		t.Fatalf("pooled linear buffer lost capacity: %d", cap(mm.linear))
	}

	// Past the caps: linear and stack are dropped, the rest survives.
	pages := uint32(maxPooledLinear/65536 + 1)
	mm = releaseAndDrain(t, func() *Machine {
		m := NewMachine(prog, pages, pages)
		if err := m.store(uint32(x86.StackTop)-2*maxPooledStack, 8, 1); err != nil {
			t.Fatal(err)
		}
		if cap(m.stack) <= maxPooledStack {
			t.Fatalf("stack window did not grow past the cap (cap=%d)", cap(m.stack))
		}
		return m
	})
	if mm.linear != nil {
		t.Errorf("oversized linear buffer (cap %d) was pooled", cap(mm.linear))
	}
	if mm.stack != nil {
		t.Errorf("oversized stack buffer (cap %d) was pooled", cap(mm.stack))
	}
	if mm.globals == nil || mm.tableMem == nil || mm.l1d == nil || mm.bp == nil {
		t.Error("fixed-size image parts must still be pooled")
	}

	// A machine built from the capped image allocates fresh in-cap buffers:
	// an unmaterialized linear prefix with zero capacity for its logical
	// size, and the initial stack window.
	memPool.Put(mm)
	r := NewMachine(prog, 1, 1)
	if r.LinearSize() != 65536 || len(r.Linear) != 0 || cap(r.Linear) != 65536 || len(r.stack) != 64*1024 {
		t.Fatalf("rebuilt machine has linear size=%d prefix=%d cap=%d stack=%d",
			r.LinearSize(), len(r.Linear), cap(r.Linear), len(r.stack))
	}
	if slices.ContainsFunc(r.Linear[:cap(r.Linear)], func(c byte) bool { return c != 0 }) {
		t.Fatal("rebuilt machine's linear buffer is dirty")
	}
	if ret, err := r.Call(0); err != nil || ret != 7109254968427 {
		t.Fatalf("rebuilt machine misbehaved: ret=%d err=%v", ret, err)
	}
	r.ReleaseMemory()
}

// TestLinearBoundsFollowLogicalSize pins that a pooled buffer's spare
// capacity never widens linear memory: with capacity past the logical size,
// touching the last page still leaves the next byte out of bounds for the
// program and the kernel alike, until GrowLinear raises the size.
func TestLinearBoundsFollowLogicalSize(t *testing.T) {
	prog := buildGoldenProgram()
	drainPool()
	memPool.Put(releaseAndDrain(t, func() *Machine { return NewMachine(prog, 4, 4) }))
	m := NewMachine(prog, 1, 4)
	defer m.ReleaseMemory()
	if cap(m.Linear) <= 65536 {
		t.Skip("the pool did not hand back the larger image (race-mode drops)")
	}
	if err := m.store(65536-8, 8, 1); err != nil {
		t.Fatal(err)
	}
	if len(m.Linear) != m.LinearSize() {
		t.Fatalf("prefix is %d bytes, logical size %d", len(m.Linear), m.LinearSize())
	}
	if _, err := m.load(65536, 1); err == nil {
		t.Fatal("load past the logical size did not trap")
	}
	if _, ok := m.LinearRange(65536-1, 2); ok {
		t.Fatal("LinearRange accepted a range past the logical size")
	}
	if old := m.GrowLinear(1); old != 1 {
		t.Fatalf("grow returned %d", old)
	}
	if v, err := m.load(65536, 8); err != nil || v != 0 {
		t.Fatalf("grown page reads %#x (err %v)", v, err)
	}
}
