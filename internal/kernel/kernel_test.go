package kernel

import (
	"bytes"
	"testing"

	"repro/internal/browserfs"
	"repro/internal/cpu"
	"repro/internal/x86"
)

// TestChargeCopyChunks pins the §2 chunking accounting: a transfer that
// exactly fills k aux buffers is k chunks and k-1 extra message round-trips
// (the historical off-by-one charged k+1 chunks at exact multiples).
func TestChargeCopyChunks(t *testing.T) {
	cost := func(n int) uint64 {
		p := &Process{Inst: &cpu.Instance{Machine: cpu.NewMachine(x86.NewProgram(), 1, 1)}}
		p.chargeCopy(n)
		return p.BrowsixCycles
	}
	bytesCost := func(n int) uint64 { return uint64(float64(n) * CopyCyclesPerByte) }
	cases := []struct {
		n    int
		want uint64
	}{
		{0, 0},
		{1, bytesCost(1)},
		{AuxBufferSize - 1, bytesCost(AuxBufferSize - 1)},
		// Exactly one full buffer: one chunk, zero extra round-trips.
		{AuxBufferSize, bytesCost(AuxBufferSize)},
		{AuxBufferSize + 1, bytesCost(AuxBufferSize+1) + MsgRoundTripCycles},
		// Exactly two full buffers: two chunks, one extra round-trip.
		{2 * AuxBufferSize, bytesCost(2*AuxBufferSize) + MsgRoundTripCycles},
	}
	for _, c := range cases {
		if got := cost(c.n); got != c.want {
			t.Errorf("chargeCopy(%d): %d browsix cycles, want %d", c.n, got, c.want)
		}
	}
}

// TestCopyOutMemoryRecyclesZero dirties a process's whole logical linear
// memory through copyOut, releases it, and checks that machines built
// afterwards (from the recycled image when the pool returns it) are zero
// over their buffer's whole capacity and read back as zeros through copyIn.
func TestCopyOutMemoryRecyclesZero(t *testing.T) {
	prog := x86.NewProgram()
	m := cpu.NewMachine(prog, 4, 4)
	size := m.LinearSize()
	p := &Process{Inst: &cpu.Instance{Machine: m}}
	if err := p.copyOut(0, bytes.Repeat([]byte{0xAB}, size)); err != nil {
		t.Fatal(err)
	}
	if err := p.copyOut(uint32(size)-1, []byte{1, 2}); err == nil {
		t.Fatal("copyOut past the logical size must fault")
	}
	m.ReleaseMemory()
	for i := 0; i < 4; i++ {
		r := cpu.NewMachine(prog, 4, 4)
		if full := r.Linear[:cap(r.Linear)]; bytes.Count(full, []byte{0}) != len(full) {
			t.Fatal("recycled linear buffer is dirty")
		}
		q := &Process{Inst: &cpu.Instance{Machine: r}}
		view, err := q.copyIn(0, uint32(size))
		if err != nil || len(view) != size || bytes.Count(view, []byte{0}) != size {
			t.Fatalf("copyIn of recycled memory: %d bytes, err %v", len(view), err)
		}
		r.ReleaseMemory()
	}
}

// TestAuxGrowsOnDemand checks the host aux buffer grows with the transfers
// a process makes rather than starting at 64 MB, and that the copy charges
// stay those of the simulated 64 MB buffer whatever its host size.
func TestAuxGrowsOnDemand(t *testing.T) {
	m := cpu.NewMachine(x86.NewProgram(), 4, 4)
	defer m.ReleaseMemory()
	p := &Process{Inst: &cpu.Instance{Machine: m}}
	for _, n := range []uint32{100, 3000, 200000, 100} {
		before := p.BrowsixCycles
		view, err := p.copyIn(0, n)
		if err != nil || len(view) != int(n) {
			t.Fatalf("copyIn(%d): %d bytes, err %v", n, len(view), err)
		}
		if got, want := p.BrowsixCycles-before, uint64(float64(n)*CopyCyclesPerByte); got != want {
			t.Errorf("copyIn(%d) charged %d cycles, want %d", n, got, want)
		}
		if len(p.aux) > 2*200000 {
			t.Errorf("after copyIn(%d) the host aux buffer is %d bytes", n, len(p.aux))
		}
	}
}

func TestPipeRoundTrip(t *testing.T) {
	p := NewPipe()
	go func() {
		p.Write([]byte("hello "))
		p.Write([]byte("world"))
		p.CloseWrite()
	}()
	var got []byte
	buf := make([]byte, 4)
	for {
		n, err := p.Read(buf)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "hello world" {
		t.Errorf("got %q", got)
	}
}

func TestPipeBackpressure(t *testing.T) {
	p := NewPipe()
	p.Cap = 8
	done := make(chan struct{})
	go func() {
		p.Write(make([]byte, 64)) // must block until reader drains
		close(done)
	}()
	total := 0
	buf := make([]byte, 16)
	for total < 64 {
		n, _ := p.Read(buf)
		total += n
	}
	<-done
}

func TestBrokenPipe(t *testing.T) {
	p := NewPipe()
	p.CloseRead()
	if _, err := p.Write([]byte("x")); err == nil {
		t.Error("write to closed-read pipe should fail")
	}
}

func TestFDTable(t *testing.T) {
	k := New(browserfs.New())
	p := &Process{Kernel: k}
	f := NewConsoleFD(k)
	fd := p.installFD(f)
	if fd != 0 {
		t.Errorf("first fd = %d", fd)
	}
	if err := p.dup2(0, 5); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.getFD(5); !ok {
		t.Error("dup2 target missing")
	}
	if err := p.closeFD(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.getFD(0); ok {
		t.Error("fd 0 should be closed")
	}
	if _, ok := p.getFD(5); !ok {
		t.Error("dup'ed fd must survive closing the original")
	}
}

func TestFileFDSeek(t *testing.T) {
	fs := browserfs.New()
	ino, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	fd := NewFileFD(fs, ino, false)
	fd.ref()
	fd.Write([]byte("abcdef"))
	if pos, _ := fd.Seek(2, 0); pos != 2 {
		t.Errorf("seek set: %d", pos)
	}
	b := make([]byte, 2)
	fd.Read(b)
	if string(b) != "cd" {
		t.Errorf("read after seek: %q", b)
	}
	if pos, _ := fd.Seek(-1, 2); pos != 5 {
		t.Errorf("seek end: %d", pos)
	}
}
