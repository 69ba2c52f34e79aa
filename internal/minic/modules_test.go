package minic_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/minic"
	"repro/internal/wasm"
	"repro/internal/workloads"
)

// modulesGolden records, per catalogue workload and ABI, the length and
// sha256 of the encoded module the front end emits. Lexer, parser and
// generator changes that claim to keep behaviour must leave it untouched.
const modulesGolden = "testdata/modules.golden"

// switchProbeSrc has a dense switch, which the generator lowers to a
// br_table: no catalogue workload has one.
const switchProbeSrc = `
int classify(int c) {
  switch (c) {
  case 2: return 20;
  case 3:
  case 4: return 40;
  case 6: break;
  default: return 99;
  }
  return 60;
}
int main() {
  int i; int s = 0;
  for (i = 0; i < 9; i++) { s = s + classify(i); }
  print_int(s); print_nl();
  return 0;
}`

// TestModulesGolden compiles every catalogue workload and the switch probe
// under both ABIs and compares the encoded module's length and sha256 with
// the golden file. Run with -update to rewrite it.
func TestModulesGolden(t *testing.T) {
	type source struct{ name, src string }
	var srcs []source
	for _, w := range append(workloads.SPECCPU(), workloads.Polybench()...) {
		srcs = append(srcs, source{w.Name, w.Source})
	}
	srcs = append(srcs, source{"switch-probe", switchProbeSrc})
	var sb strings.Builder
	for _, s := range srcs {
		for _, abi := range []struct {
			name string
			abi  minic.ABI
		}{{"abi32", minic.ABI32}, {"abi64", minic.ABI64}} {
			m, err := minic.Compile(s.src, abi.abi)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, abi.name, err)
			}
			b := wasm.Encode(m)
			fmt.Fprintf(&sb, "%s %s len=%d sha256=%x\n", s.name, abi.name, len(b), sha256.Sum256(b))
		}
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(modulesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(modulesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("encoded modules differ from %s:\n--- got\n%s--- want\n%s", modulesGolden, got, want)
	}
}
