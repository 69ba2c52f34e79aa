package codegen_test

// Pins the core contract of the parallel compile pipeline: serial and
// function-parallel compilation produce byte-identical serialized artifacts
// (so pipeline content addresses stay valid at any worker count), and the
// pooled compile scratch is safe under concurrent module compiles (run these
// with -race).

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/minic"
	"repro/internal/sched"
	"repro/internal/wasm"
	"repro/internal/workloads"
)

// multiFuncSource is a mini-C program with enough functions — including
// float constants, masks, loops, and indirect control flow — to exercise
// every cross-function coupling of the compiler: entry labels, and the
// fragment merge that resolves them and places rodata constants shared
// across functions.
const multiFuncSource = `
double scale(double x) { return x * 2.5 + 0.125; }
double flip(double x) { return -x; }
int addmul(int a, int b) { return a * b + a; }
int looped(int n) {
  int i; int acc;
  acc = 0;
  for (i = 0; i < n; i++) { acc += addmul(i, 3); }
  return acc;
}
int main() {
  double d;
  d = scale(4.0) + flip(2.0);
  print_int(looped(10) + (int)d);
  print_nl();
  return 0;
}`

// buildModule compiles mini-C to a wasm module for the engine's ABI.
func buildModule(t testing.TB, src string, cfg *codegen.EngineConfig) *wasm.Module {
	t.Helper()
	abi := minic.ABI32
	if cfg.Name == "native" {
		abi = minic.ABI64
	}
	m, err := minic.Compile(src, abi)
	if err != nil {
		t.Fatalf("minic: %v", err)
	}
	return m
}

// encodeNormalized serializes cm with the wall-clock CompileTime zeroed —
// the single nondeterministic field of the artifact format.
func encodeNormalized(t testing.TB, cm *codegen.CompiledModule) []byte {
	t.Helper()
	saved := cm.CompileTime
	cm.CompileTime = 0
	data, err := codegen.EncodeModule(cm)
	cm.CompileTime = saved
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// compileAt compiles m with the given worker count and returns the
// normalized artifact bytes.
func compileAt(t testing.TB, m *wasm.Module, cfg *codegen.EngineConfig, workers int) []byte {
	t.Helper()
	prev := codegen.Workers
	codegen.Workers = workers
	defer func() { codegen.Workers = prev }()
	cm, err := codegen.Compile(m, cfg)
	if err != nil {
		t.Fatalf("%s: compile (workers=%d): %v", cfg.Name, workers, err)
	}
	return encodeNormalized(t, cm)
}

// compileAtBudget compiles m with the given worker cap while the shared
// scheduler budget is pinned to tokens, returning the normalized artifact
// bytes.
func compileAtBudget(t testing.TB, m *wasm.Module, cfg *codegen.EngineConfig, workers, tokens int) []byte {
	t.Helper()
	prev := sched.SetSharedCapacity(tokens)
	defer sched.SetSharedCapacity(prev)
	return compileAt(t, m, cfg, workers)
}

// TestCompileDeterminism pins serial == parallel, byte for byte, for every
// engine configuration, on both a hand-written multi-function module and a
// real workload — and at every scheduler budget size: a compile that can
// borrow no helpers, a few, or plenty must produce the same artifact.
func TestCompileDeterminism(t *testing.T) {
	sources := map[string]string{
		"multifunc": multiFuncSource,
		"workload":  workloads.SPECCPU()[0].Source,
	}
	for name, src := range sources {
		for _, cfg := range engines() {
			t.Run(name+"/"+cfg.Name, func(t *testing.T) {
				m := buildModule(t, src, cfg)
				serial := compileAt(t, m, cfg, 1)
				parallel := compileAt(t, m, cfg, 8)
				if !bytes.Equal(serial, parallel) {
					t.Fatalf("serial and parallel artifacts differ (%d vs %d bytes)",
						len(serial), len(parallel))
				}
				// Repeat with a warm scratch pool: recycled arenas must not
				// leak state between compiles.
				again := compileAt(t, m, cfg, 8)
				if !bytes.Equal(serial, again) {
					t.Fatal("warm-pool recompile produced a different artifact")
				}
				// And across budget sizes, including a budget of one token
				// (no helpers at all — pure inline compilation).
				for _, tokens := range []int{1, 2, 16} {
					got := compileAtBudget(t, m, cfg, 8, tokens)
					if !bytes.Equal(serial, got) {
						t.Fatalf("artifact differs at budget %d (%d vs %d bytes)",
							tokens, len(serial), len(got))
					}
				}
			})
		}
	}
}

// TestCompileScratchStress hammers the pooled compile scratch from many
// goroutines compiling different modules under different configs at once;
// run with -race to check the pool, whose fragments carry their rodata
// uses to the merge. Each result is compared against a reference compile.
func TestCompileScratchStress(t *testing.T) {
	type job struct {
		name string
		m    *wasm.Module
		cfg  *codegen.EngineConfig
		want []byte
	}
	srcs := []string{multiFuncSource, workloads.Polybench()[0].Source}
	var jobs []job
	for si, src := range srcs {
		for _, cfg := range engines() {
			m := buildModule(t, src, cfg)
			jobs = append(jobs, job{
				name: fmt.Sprintf("src%d/%s", si, cfg.Name),
				m:    m,
				cfg:  cfg,
				want: compileAt(t, m, cfg, 1),
			})
		}
	}
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)*rounds)
	for r := 0; r < rounds; r++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				cm, err := codegen.Compile(j.m, j.cfg)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", j.name, err)
					return
				}
				cm.CompileTime = 0
				got, err := codegen.EncodeModule(cm)
				if err != nil {
					errs <- fmt.Errorf("%s: encode: %v", j.name, err)
					return
				}
				if !bytes.Equal(got, j.want) {
					errs <- fmt.Errorf("%s: concurrent compile diverged", j.name)
				}
			}(j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
