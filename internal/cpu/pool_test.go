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
// LinearRange (the accessor behind the kernel's syscall copies), then a
// window far above the prefix through both — releases,
// and checks the pooled image is zero over every buffer's full capacity and
// its caches equal fresh ones. A machine built from it must read zero
// through load at every byte up to its logical size, before and after
// growing into the recycled spare capacity.
func TestRecycledMemoryIsZero(t *testing.T) {
	prog := buildGoldenProgram()
	drainPool()
	mm := releaseAndDrain(t, func() *Machine {
		m := NewMachine(prog, 2, 32)
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
		// Dirty a window far above the prefix: once through the store path,
		// once through LinearRange growing it downward.
		if old := m.GrowLinear(28); old != 4 {
			t.Fatalf("grow returned %d", old)
		}
		if err := m.store(30*65536+8, 8, 0xEFEFEFEFEFEFEFEF); err != nil {
			t.Fatal(err)
		}
		dst, ok = m.LinearRange(30*65536-100, 200)
		if !ok {
			t.Fatal("window range out of bounds")
		}
		for i := range dst {
			dst[i] = 0xCD
		}
		if m.hiLo != 29*65536 || len(m.hi) != 2*65536 || len(m.Linear) != 4*65536 {
			t.Fatalf("runs are [0, %d) and [%d, +%d), want a 4-page prefix and a 2-page window at page 29",
				len(m.Linear), m.hiLo, len(m.hi))
		}
		m.SetGlobal(7, ^uint64(0))
		m.SetTableEntry(3, 123, 456)
		// A far table row, touched through the load path.
		if _, err := m.load(uint32(x86.TableBase)+9000*x86.TableEntrySize, 8); err != nil {
			t.Fatal(err)
		}
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
	r := NewMachine(prog, 1, 32)
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

// releaseAndDrain releases machines built by mk until the pool yields the
// image just released, recognized by its globals buffer (always pooled).
// An image an earlier test released can sit in another P's private slot,
// which Get cannot see, and resurface once the goroutine runs on that P
// again, so the last image drained is not necessarily this one. Under the
// race detector sync.Pool deliberately drops a fraction of Puts, so a
// single release is not guaranteed to be observable; repeated attempts make
// the drop probability vanish. Skips if the pool never retains
// (pathological scheduling).
func releaseAndDrain(t *testing.T, mk func() *Machine) *machineMem {
	t.Helper()
	for i := 0; i < 32; i++ {
		m := mk()
		globals := &m.globals[0]
		m.ReleaseMemory()
		for v := memPool.Get(); v != nil; v = memPool.Get() {
			if mm := v.(*machineMem); &mm.globals[0] == globals {
				return mm
			}
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

	// A window opened at the top of the logical size stops there too.
	drainPool()
	memPool.Put(releaseAndDrain(t, func() *Machine { return NewMachine(prog, 32, 32) }))
	w := NewMachine(prog, 20, 32)
	defer w.ReleaseMemory()
	if cap(w.Linear) <= w.LinearSize() {
		t.Skip("the pool did not hand back the larger image (race-mode drops)")
	}
	if err := w.store(0, 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.store(20*65536-8, 8, 1); err != nil {
		t.Fatal(err)
	}
	if w.hiLo != 19*65536 || len(w.hi) != 65536 {
		t.Fatalf("window is [%d, +%d), want the last logical page", w.hiLo, len(w.hi))
	}
	if _, err := w.load(20*65536, 1); err == nil {
		t.Fatal("load past the logical size did not trap")
	}
	if _, err := w.load(20*65536-4, 8); err == nil {
		t.Fatal("load straddling the logical size did not trap")
	}
	if _, ok := w.LinearRange(20*65536-1, 2); ok {
		t.Fatal("LinearRange accepted a range past the logical size")
	}
	if w.hiLo != 19*65536 || len(w.hi) != 65536 {
		t.Fatalf("a refused access moved the window to [%d, +%d)", w.hiLo, len(w.hi))
	}
}

// TestLinearWindow walks the two-run materializer through the shadow-stack
// and heap pattern it exists for: a prefix over the data, a window opened
// far above it, growing down (stack) and up (heap), a LinearRange across
// the gap, then the window merging into the prefix once the gap holds no
// more than the runs. After every touch the runs hold no more than twice
// the pages touched plus one, and every byte written reads back.
func TestLinearWindow(t *testing.T) {
	const page = 65536
	m := NewMachine(buildGoldenProgram(), 32, 32)
	defer m.ReleaseMemory()
	touched := map[int]bool{}
	want := map[uint32]uint64{}
	check := func(step string) {
		t.Helper()
		if held := len(m.Linear) + len(m.hi); held > (2*len(touched)+1)*page {
			t.Fatalf("%s: runs hold %d pages for %d touched", step, held/page, len(touched))
		}
		for a, v := range want {
			if got, err := m.load(a, 8); err != nil || got != v {
				t.Fatalf("%s: %#x reads %#x (err %v), want %#x", step, a, got, err, v)
			}
		}
		linearImage(t, m)
	}
	store := func(a uint32) {
		t.Helper()
		want[a] = uint64(a)*0x9E3779B97F4A7C15 | 1
		touched[int(a)/page] = true
		if err := m.store(a, 8, want[a]); err != nil {
			t.Fatal(err)
		}
	}
	runs := func(step string, prefix, lo, n int) {
		t.Helper()
		if len(m.Linear) != prefix*page || int(m.hiLo) != lo*page || len(m.hi) != n*page {
			t.Fatalf("%s: runs are [0, %d) and [%d, +%d), want [0, %d) and [%d, +%d)",
				step, len(m.Linear), m.hiLo, len(m.hi), prefix*page, lo*page, n*page)
		}
		check(step)
	}

	store(100)
	runs("data", 1, 0, 0)
	store(18*page - 8) // the top of a shadow stack 1 MiB above the data
	runs("open", 1, 17, 1)
	store(16*page + 4096) // the stack grows down...
	runs("down", 1, 16, 2)
	store(18*page + 16) // ...and the heap up
	runs("up", 1, 16, 3)

	// Ranges across the gap: from the prefix into it, and from it into
	// the window. Each lands in one run.
	for _, r := range []struct{ addr, n uint32 }{{page - 4, 16}, {16*page - 100, 200}} {
		b, ok := m.LinearRange(r.addr, r.n)
		if !ok {
			t.Fatalf("LinearRange(%#x, %d) refused", r.addr, r.n)
		}
		for i := range b {
			b[i] = byte(i + 1)
		}
		touched[int(r.addr)/page], touched[int(r.addr+r.n-1)/page] = true, true
	}
	runs("ranges", 2, 15, 4)
	for _, r := range []struct{ addr, n uint32 }{{page - 4, 16}, {16*page - 100, 200}} {
		b, _ := m.LinearRange(r.addr, r.n)
		for i := range b {
			if b[i] != byte(i+1) {
				t.Fatalf("LinearRange(%#x, %d) byte %d reads %d", r.addr, r.n, i, b[i])
			}
		}
	}

	// Deepen the stack a page at a time until the gap is no larger than
	// what the runs hold: the window then merges into the prefix.
	for p := 14; len(m.hi) > 0; p-- {
		store(uint32(p*page + 8))
		check("deepen")
	}
	runs("merged", 19, 0, 0)
	for p := 19; p < 26; p++ { // the heap keeps growing, on the prefix alone
		store(uint32(p*page + 8))
		check("heap")
	}
	runs("heap", 26, 0, 0)
}

// TestGrowLinearKeepsWindow grows a machine past its buffer's capacity
// while a window is open: both runs move to the new buffer with their
// bytes, the window stays a view of it, and the fresh pages read zero.
func TestGrowLinearKeepsWindow(t *testing.T) {
	m := NewMachine(buildGoldenProgram(), 20, 1<<14)
	defer m.ReleaseMemory()
	if err := m.store(8, 8, 11); err != nil {
		t.Fatal(err)
	}
	if err := m.store(19*65536+8, 8, 22); err != nil {
		t.Fatal(err)
	}
	if len(m.hi) != 65536 {
		t.Fatalf("no window opened: runs [0, %d) and [%d, +%d)", len(m.Linear), m.hiLo, len(m.hi))
	}
	old := &m.hi[0]
	grow := uint32((cap(m.Linear)-m.LinearSize())/65536 + 4)
	if got := m.GrowLinear(grow); got != 20 {
		t.Fatalf("grow returned %d", got)
	}
	if &m.hi[0] == old {
		t.Fatal("growth past the capacity kept the old buffer")
	}
	if &m.hi[0] != &m.Linear[:m.LinearSize()][m.hiLo] {
		t.Fatal("the window is not a view of the new buffer")
	}
	for a, want := range map[uint32]uint64{8: 11, 19*65536 + 8: 22, 20*65536 + 8: 0} {
		if v, err := m.load(a, 8); err != nil || v != want {
			t.Fatalf("%#x reads %#x (err %v), want %#x", a, v, err, want)
		}
	}
	linearImage(t, m)
}
