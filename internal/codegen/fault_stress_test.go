package codegen_test

// Panic-containment stress for the compile fan-out (run with -race): a
// panic injected into one module's per-function codegen must surface as
// that module's typed compile failure while every concurrently compiling
// sibling finishes with a byte-identical artifact — at a starved budget
// (no helper tokens), a tight one, and a roomy one.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/wasm"
)

// stressModuleSrc builds a module whose function names carry the module
// index, so a codegen.func fault rule can target exactly one module of the
// fleet.
func stressModuleSrc(i int) string {
	return fmt.Sprintf(`
int helper_m%d(int a, int b) { return a * b + %d; }
int spin_m%d(int n) {
  int i; int acc;
  acc = 0;
  for (i = 0; i < n; i++) { acc += helper_m%d(i, 3); }
  return acc;
}
int main() {
  print_int(spin_m%d(12));
  print_nl();
  return 0;
}`, i, i, i, i, i)
}

// TestCompileFaultContainmentStress arms an unlimited panic fault on one
// module's functions, then compiles the whole fleet concurrently through
// nested RunJobs (module fan-out outside, per-function fan-out inside) at
// shared budgets 1, 2, and 16. The faulted module must fail with a
// JobPanicError carrying a stack; every other module's artifact must be
// byte-identical to its fault-free reference.
func TestCompileFaultContainmentStress(t *testing.T) {
	const nMods = 6
	const faulted = 2
	cfg := codegen.Firefox()

	mods := make([]*wasm.Module, nMods)
	refs := make([][]byte, nMods)
	for i := range mods {
		mods[i] = buildModule(t, stressModuleSrc(i), cfg)
		refs[i] = compileAt(t, mods[i], cfg, 4, 4)
	}

	disarm, err := fault.ArmSpec(fmt.Sprintf("codegen.func@helper_m%d=panic:*", faulted))
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	for _, tokens := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("budget-%d", tokens), func(t *testing.T) {
			defer pinWidth(4, tokens)()

			arts := make([][]byte, nMods)
			errs := make([]error, nMods)
			var wg sync.WaitGroup
			for i := range mods {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					cm, err := codegen.CompileContext(context.Background(), mods[i], cfg)
					if err != nil {
						errs[i] = err
						return
					}
					arts[i] = encodeNormalized(t, cm)
				}()
			}
			wg.Wait()

			for i := range mods {
				if i == faulted {
					if errs[i] == nil {
						t.Fatalf("module %d: fault armed but compile succeeded", i)
					}
					var pe *sched.JobPanicError
					if !errors.As(errs[i], &pe) {
						t.Fatalf("module %d: error is not a JobPanicError: %v", i, errs[i])
					}
					if len(pe.Stack) == 0 {
						t.Errorf("module %d: contained panic lost its stack", i)
					}
					continue
				}
				if errs[i] != nil {
					t.Errorf("module %d: sibling of the faulted compile failed: %v", i, errs[i])
					continue
				}
				if !bytes.Equal(arts[i], refs[i]) {
					t.Errorf("module %d: artifact differs from fault-free reference under injected sibling panic (budget %d)", i, tokens)
				}
			}
		})
	}
}
