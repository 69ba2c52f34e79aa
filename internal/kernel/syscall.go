package kernel

import (
	"errors"
	"fmt"

	"repro/internal/browserfs"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/x86"
)

// Open flags understood by sys_open (a simplified O_* set).
const (
	ORdonly = 0
	OWronly = 1
	ORdwr   = 2
	OCreat  = 64
	OTrunc  = 512
	OAppend = 1024
)

// sysHandler services one syscall for process p; args are the raw i32
// arguments, and the return value lands in RAX (as a sign-extended i32).
type sysHandler func(p *Process, args [4]uint32) (int32, error)

var sysTable map[string]sysHandler

func init() {
	sysTable = map[string]sysHandler{
		"env.sys_open":      sysOpen,
		"env.sys_close":     sysClose,
		"env.sys_read":      sysRead,
		"env.sys_write":     sysWrite,
		"env.sys_lseek":     sysLseek,
		"env.sys_stat_size": sysStatSize,
		"env.sys_unlink":    sysUnlink,
		"env.sys_mkdir":     sysMkdir,
		"env.sys_pipe":      sysPipe,
		"env.sys_dup2":      sysDup2,
		"env.sys_spawn":     sysSpawn,
		"env.sys_wait":      sysWait,
		"env.sys_exit":      sysExit,
		"env.sys_getpid":    sysGetpid,
		"env.sys_now":       sysNow,
		"env.perf_begin":    sysPerfBegin,
		"env.perf_end":      sysPerfEnd,
	}
}

// PerfHooks are installed by Browsix-SPEC: the process's userspace runtime
// issues perf_begin/perf_end XHRs around main (Figure 2 steps 4 and 6).
type PerfHooks struct {
	Begin func(p *Process)
	End   func(p *Process)
}

// bindSyscalls wires the process's host imports to the kernel.
func bindSyscalls(p *Process) {
	cm := p.Inst.CM
	argRegs := cm.Engine.ArgGP
	handlers := make([]sysHandler, len(cm.HostImports))
	names := cm.HostImports
	for i, name := range names {
		handlers[i] = sysTable[name]
	}
	p.Inst.BindHost(func(m *cpu.Machine, imp int) error {
		if imp < 0 || imp >= len(handlers) || handlers[imp] == nil {
			return fmt.Errorf("kernel: unknown import %d", imp)
		}
		// Message round-trip + kernel service cost (§2 transport).
		p.Syscalls++
		p.chargeBrowsix(MsgRoundTripCycles + ServiceCycles)
		// Fault site on the transport, keyed by import name: an injected
		// error models a kernel-side message failure and kills the process
		// accountably (the error unwinds through Invoke into ExitErr).
		if err := fault.Check(fault.SiteSyscall, names[imp]); err != nil {
			return err
		}
		var args [4]uint32
		for i := 0; i < 4 && i < len(argRegs); i++ {
			args[i] = uint32(m.Regs[argRegs[i]])
		}
		ret, err := handlers[imp](p, args)
		if err != nil {
			return err
		}
		m.Regs[x86.RAX] = uint64(uint32(ret))
		return nil
	})
}

// errno maps filesystem errors onto negative return values.
func errno(err error) int32 {
	switch err {
	case nil:
		return 0
	case browserfs.ErrNotExist:
		return -2 // ENOENT
	case browserfs.ErrExist:
		return -17 // EEXIST
	case browserfs.ErrIsDir:
		return -21 // EISDIR
	case browserfs.ErrNotDir:
		return -20 // ENOTDIR
	case browserfs.ErrNotEmpty:
		return -39 // ENOTEMPTY
	}
	return -1 // EPERM catch-all
}

func sysOpen(p *Process, a [4]uint32) (int32, error) {
	path, err := p.cstring(a[0])
	if err != nil {
		return -14, nil // EFAULT
	}
	flags := int(a[1])
	fs := p.Kernel.FS
	var ino *browserfs.Inode
	var ferr error
	switch {
	case flags&OCreat != 0 && flags&OTrunc != 0:
		ino, ferr = fs.Create(path)
	case flags&OCreat != 0:
		ino, ferr = fs.OpenOrCreate(path)
	default:
		ino, ferr = fs.Open(path)
	}
	if ferr != nil {
		return errno(ferr), nil
	}
	if ino.Mode.IsDir() {
		return errno(browserfs.ErrIsDir), nil
	}
	fd := p.installFD(NewFileFD(fs, ino, flags&OAppend != 0))
	return int32(fd), nil
}

func sysClose(p *Process, a [4]uint32) (int32, error) {
	if err := p.closeFD(int(a[0])); err != nil {
		return -9, nil // EBADF
	}
	return 0, nil
}

func sysRead(p *Process, a [4]uint32) (int32, error) {
	f, ok := p.getFD(int(a[0]))
	if !ok {
		return -9, nil
	}
	n := int(a[2])
	total := 0
	buf := a[1]
	// Chunk reads at the aux-buffer size (§2).
	for total < n {
		chunk := n - total
		if chunk > len(p.aux) {
			chunk = len(p.aux)
		}
		got, err := f.Read(p.aux[:chunk])
		if err != nil {
			return -5, nil // EIO
		}
		if got == 0 {
			break
		}
		if err := p.copyOut(buf+uint32(total), p.aux[:got]); err != nil {
			return -14, nil
		}
		total += got
		if got < chunk {
			break
		}
	}
	return int32(total), nil
}

func sysWrite(p *Process, a [4]uint32) (int32, error) {
	f, ok := p.getFD(int(a[0]))
	if !ok {
		return -9, nil
	}
	n := int(a[2])
	total := 0
	buf := a[1]
	for total < n {
		chunk := n - total
		if chunk > len(p.aux) {
			chunk = len(p.aux)
		}
		view, err := p.copyIn(buf+uint32(total), uint32(chunk))
		if err != nil {
			return -14, nil
		}
		wrote, werr := f.Write(view)
		if werr != nil {
			return -32, nil // EPIPE
		}
		total += wrote
		if wrote < chunk {
			break
		}
	}
	return int32(total), nil
}

func sysLseek(p *Process, a [4]uint32) (int32, error) {
	f, ok := p.getFD(int(a[0]))
	if !ok {
		return -9, nil
	}
	pos, err := f.Seek(int64(int32(a[1])), int(a[2]))
	if err != nil {
		return -29, nil // ESPIPE
	}
	return int32(pos), nil
}

func sysStatSize(p *Process, a [4]uint32) (int32, error) {
	path, err := p.cstring(a[0])
	if err != nil {
		return -14, nil
	}
	ino, ferr := p.Kernel.FS.Open(path)
	if ferr != nil {
		return errno(ferr), nil
	}
	return int32(ino.Size()), nil
}

func sysUnlink(p *Process, a [4]uint32) (int32, error) {
	path, err := p.cstring(a[0])
	if err != nil {
		return -14, nil
	}
	return errno(p.Kernel.FS.Unlink(path)), nil
}

func sysMkdir(p *Process, a [4]uint32) (int32, error) {
	path, err := p.cstring(a[0])
	if err != nil {
		return -14, nil
	}
	return errno(p.Kernel.FS.Mkdir(path)), nil
}

func sysPipe(p *Process, a [4]uint32) (int32, error) {
	pipe := NewPipe()
	r := &FD{kind: fdPipeR, pipe: pipe}
	w := &FD{kind: fdPipeW, pipe: pipe}
	rfd := p.installFD(r)
	wfd := p.installFD(w)
	var out [8]byte
	putU32(out[:], 0, uint32(rfd))
	putU32(out[:], 4, uint32(wfd))
	if err := p.copyOut(a[0], out[:]); err != nil {
		return -14, nil
	}
	return 0, nil
}

func sysDup2(p *Process, a [4]uint32) (int32, error) {
	if err := p.dup2(int(a[0]), int(a[1])); err != nil {
		return -9, nil
	}
	return int32(a[1]), nil
}

func sysSpawn(p *Process, a [4]uint32) (int32, error) {
	path, err := p.cstring(a[0])
	if err != nil {
		return -14, nil
	}
	// argv: array of char* terminated by NULL. Pointer slots follow the
	// binary's data model (4 bytes for wasm32, 8 for the native build).
	var argv []string
	ps := uint32(p.Inst.CM.PtrSize)
	if ps == 0 {
		ps = 4
	}
	for off := a[1]; ; off += ps {
		slot, ok := p.Inst.LinearRange(off, ps)
		if !ok {
			return -14, nil
		}
		ptr := uint32(slot[0]) | uint32(slot[1])<<8 | uint32(slot[2])<<16 | uint32(slot[3])<<24
		if ptr == 0 {
			break
		}
		s, err := p.cstring(ptr)
		if err != nil {
			return -14, nil
		}
		argv = append(argv, s)
		if len(argv) > 256 {
			return -7, nil // E2BIG
		}
	}
	child, err := p.Kernel.Spawn(p, path, argv, p.StdioFDs())
	if err != nil {
		return -2, nil
	}
	return int32(child.PID), nil
}

func sysWait(p *Process, a [4]uint32) (int32, error) {
	code, err := p.Kernel.WaitPID(int(a[0]))
	if err != nil {
		var we *WatchdogError
		if errors.As(err, &we) {
			// The watchdog killed the waited child. The deadline governs the
			// whole process chain (one job = one kernel = one deadline), so
			// the kill unwinds the waiting parent too instead of degrading
			// into an opaque ECHILD — the root WaitPID then reports the
			// timeout no matter how deep in the chain the hang was.
			return -10, err
		}
		return -10, nil // ECHILD
	}
	return int32(code), nil
}

func sysExit(p *Process, a [4]uint32) (int32, error) {
	return 0, &ExitError{Code: int(int32(a[0]))}
}

func sysGetpid(p *Process, a [4]uint32) (int32, error) {
	return int32(p.PID), nil
}

// sysNow returns simulated milliseconds (derived from the cycle counter so
// runs are deterministic).
func sysNow(p *Process, a [4]uint32) (int32, error) {
	return int32(p.Inst.Counters.Cycles / 3_500_000), nil
}

func sysPerfBegin(p *Process, a [4]uint32) (int32, error) {
	if p.Kernel.Hooks.Begin != nil {
		p.Kernel.Hooks.Begin(p)
	}
	return 0, nil
}

func sysPerfEnd(p *Process, a [4]uint32) (int32, error) {
	if p.Kernel.Hooks.End != nil {
		p.Kernel.Hooks.End(p)
	}
	return 0, nil
}
