package kernel_test

// Syscalls against linear memory the process never touched. Linear memory
// materializes on first touch, so the kernel's copies, path strings and
// argv reads are often the first to reach a page. Each must behave exactly
// as it would against memory that was fully materialized from the start:
// same results, same output, same counters.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/browserfs"
	"repro/internal/codegen"
	"repro/internal/kernel"
	"repro/internal/perf"
	"repro/internal/pipeline"
)

// untouchedSrc aims every syscall at pages past everything the program has
// touched so far (each step uses a higher address than the steps before
// it): first a path string and a read buffer on the shadow stack, which
// sits in the second materialized run 1 MiB above the data; then a path
// string, a write source, a read destination, an argv array and an argv
// string in a fresh 2 MiB heap block, then a read into pages added by
// memory.grow.
const untouchedSrc = `
int sum(char *p, int n) {
  int i; int s;
  s = 0;
  for (i = 0; i < n; i++) { s = s * 31 + p[i]; }
  return s;
}

int onstack() {
  char path[8]; char rbuf[3000]; int fd; int n;
  path[0] = 47; path[1] = 100; path[2] = 97; path[3] = 116; path[4] = 97; path[5] = 0;
  fd = sys_open(path, 0, 0);
  n = sys_read(fd, rbuf, 3000);
  sys_close(fd);
  return sum(rbuf, n);
}

int main() {
  char *big; char **args; char *grown; int fd; int n; int pid; int old;
  print_int(onstack()); print_nl();
  big = malloc(2097152);
  print_int(sys_open(big + 65536, 0, 0)); print_nl();
  fd = sys_open("/zeros", 64 | 512, 0);
  print_int(sys_write(fd, big + 3 * 65536, 5000)); print_nl();
  sys_close(fd);
  fd = sys_open("/data", 0, 0);
  n = sys_read(fd, big + 6 * 65536, 3000);
  print_int(n); print_nl();
  print_int(sum(big + 6 * 65536, n)); print_nl();
  sys_close(fd);
  pid = sys_spawn("/bin/leaf", (char**)(big + 9 * 65536));
  print_int(sys_wait(pid)); print_nl();
  args = (char**)(big + 10 * 65536);
  args[0] = big + 12 * 65536;
  args[1] = "xy";
  args[2] = (char*)0;
  pid = sys_spawn("/bin/leaf", args);
  print_int(sys_wait(pid)); print_nl();
  old = grow_memory(4);
  print_int(old); print_nl();
  grown = (char*)(old * 65536);
  fd = sys_open("/data", 0, 0);
  n = sys_read(fd, grown + 2 * 65536, 3000);
  print_int(sum(grown + 2 * 65536, n)); print_nl();
  print_int(sum(big + 3 * 65536, 5000)); print_nl();
  return 0;
}`

// argvLeafSrc exits with 100*argc plus the total length of its arguments.
const argvLeafSrc = `
int main(int argc, char **argv) {
  int i; int t;
  t = argc * 100;
  for (i = 0; i < argc; i++) { t = t + strlen(argv[i]); }
  return t;
}`

// dataByte is byte i of /data; it stays below 128 so the program's char
// sign does not matter.
func dataByte(i int) byte { return byte((i*7 + 3) % 128) }

// dataSum mirrors the program's sum over the first n bytes of /data.
func dataSum(n int) int32 {
	var s int32
	for i := 0; i < n; i++ {
		s = s*31 + int32(dataByte(i))
	}
	return s
}

// procResult is what one process leaves behind, as seen at its perf_end.
type procResult struct {
	Path     string
	Counters perf.Counters
	Browsix  uint64
	Syscalls uint64
}

// runUntouched runs untouchedSrc on a fresh kernel. With materialize set,
// each process materializes its whole linear memory at perf_begin, before
// main runs.
func runUntouched(t *testing.T, root, leaf *codegen.CompiledModule, materialize bool) (string, int, []procResult) {
	t.Helper()
	fs := browserfs.New()
	data := make([]byte, 4000)
	for i := range data {
		data[i] = dataByte(i)
	}
	if err := fs.WriteFile("/data", data); err != nil {
		t.Fatal(err)
	}
	k := kernel.New(fs)
	k.RegisterBinary("/bin/root", root)
	k.RegisterBinary("/bin/leaf", leaf)
	var mu sync.Mutex
	var procs []procResult
	k.Hooks.Begin = func(p *kernel.Process) {
		if materialize {
			if _, ok := p.Inst.LinearRange(0, uint32(p.Inst.LinearSize())); !ok {
				t.Error("cannot materialize the logical size")
			}
		}
	}
	k.Hooks.End = func(p *kernel.Process) {
		mu.Lock()
		defer mu.Unlock()
		procs = append(procs, procResult{p.Path, p.Inst.Counters, p.BrowsixCycles, p.Syscalls})
	}
	p, err := k.Spawn(nil, "/bin/root", []string{"root"}, [3]*kernel.FD{})
	if err != nil {
		t.Fatal(err)
	}
	code, err := k.WaitPID(p.PID)
	if err != nil {
		t.Fatal(err)
	}
	procs = append(procs, procResult{"exit " + p.Path, p.Inst.Counters, p.BrowsixCycles, p.Syscalls})
	return string(k.Console), code, procs
}

// TestSyscallsOnUntouchedMemory runs untouchedSrc on both data models and
// demands the same output, exit code and per-process counters whether
// linear memory materializes lazily or was materialized up front.
func TestSyscallsOnUntouchedMemory(t *testing.T) {
	for _, cfg := range []*codegen.EngineConfig{codegen.Chrome(), codegen.Native()} {
		t.Run(cfg.Name, func(t *testing.T) {
			var bins [2]*codegen.CompiledModule
			for i, src := range []string{untouchedSrc, argvLeafSrc} {
				cm, err := pipeline.Compile(context.Background(), &pipeline.Request{Module: src, Config: cfg})
				if err != nil {
					t.Fatal(err)
				}
				bins[i] = cm
			}
			lazyOut, lazyCode, lazyProcs := runUntouched(t, bins[0], bins[1], false)
			fullOut, fullCode, fullProcs := runUntouched(t, bins[0], bins[1], true)
			pages := bins[0].MemPages
			// The stack read sees the file, open("") names the root
			// directory (EISDIR), the write sends 5000 zeros, both heap
			// reads see the file, the leaves see no arguments and
			// {"", "xy"}, and the zeros read back as zero.
			sum := dataSum(3000)
			want := fmt.Sprintf("%d\n-21\n5000\n3000\n%d\n0\n202\n%d\n%d\n0\n", sum, sum, pages, sum)
			if lazyOut != want {
				t.Errorf("lazy output:\n%s\nwant:\n%s", lazyOut, want)
			}
			if lazyOut != fullOut || lazyCode != fullCode {
				t.Errorf("lazy run printed %q (exit %d), materialized run %q (exit %d)",
					lazyOut, lazyCode, fullOut, fullCode)
			}
			if fmt.Sprint(lazyProcs) != fmt.Sprint(fullProcs) {
				t.Errorf("per-process results differ:\n lazy:         %+v\n materialized: %+v", lazyProcs, fullProcs)
			}
		})
	}
}
