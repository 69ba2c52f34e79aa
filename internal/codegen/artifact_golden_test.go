package codegen_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/minic"
	"repro/internal/pipeline"
	"repro/internal/workloads"
	"repro/internal/x86"
)

const artifactGolden = "testdata/artifacts.golden"

var updateArtifacts = flag.Bool("update", false, "rewrite "+artifactGolden)

// switchProbeSrc has a dense switch, which mini-C lowers to br_table and
// codegen to an OJmpTable: no catalogue workload has one.
const switchProbeSrc = `
int classify(int c) {
  switch (c) {
  case 0: return 100;
  case 1:
  case 2: return 200;
  case 3: return c * 7;
  case 5: break;
  default: return 400;
  }
  return 500;
}
int main() {
  int i; int acc;
  acc = 0;
  for (i = 0; i < 8; i++) { acc += classify(i); }
  print_int(acc); print_nl();
  return 0;
}`

// floatProbeSrc shares f32 and f64 constants across functions and takes
// fabs/fabsf and negations at both widths, so rodata holds f32 constants,
// f64 constants and all four sign masks. A float ++/-- is mini-C's only
// source of f32.const; no catalogue workload has one.
const floatProbeSrc = `
float stepf(float x) {
  float y;
  y = x * 1.25f + 0.75f;
  y++;
  return -fabsf(y);
}
double stepd(double x) {
  double y;
  y = x * 1.25 + 0.75;
  y--;
  return -fabs(y);
}
double mix(double a, float b) {
  double r;
  b--;
  r = fabs(a - 2.5) * 1.25 + fabsf(b * 0.75f);
  return -r - (double)(-b);
}
int main() {
  int i; double acc; float accf;
  acc = 0.0; accf = 0.0f;
  for (i = 0; i < 6; i++) {
    acc = acc + stepd((double)i - 2.5) + mix(acc * 0.5, accf);
    accf = accf + stepf((float)i - 2.5f);
    accf++;
  }
  print_fixed((int)(acc * 1000.0)); print_nl();
  print_fixed((int)(accf * 1000.0f)); print_nl();
  return 0;
}`

// TestArtifactGolden pins the encoded artifact of every catalogue workload,
// of a jump-table probe and of a float-constant probe, per engine (the
// asm.js engines included), by length and sha256 (CompileTime cleared). A change to the in-memory instruction representation must
// leave every artifact byte-identical. It compiles directly, bypassing the
// build cache and the artifact store, so a warm store cannot answer.
// Regenerate with `go test ./internal/codegen -run TestArtifactGolden -update`.
func TestArtifactGolden(t *testing.T) {
	type source struct{ name, src string }
	var sources []source
	for _, w := range append(workloads.SPECCPU(), workloads.Polybench()...) {
		sources = append(sources, source{w.Name, w.Source})
	}
	sources = append(sources, source{"switch-probe", switchProbeSrc}, source{"float-probe", floatProbeSrc})

	var sb strings.Builder
	for _, s := range sources {
		for _, cfg := range []*codegen.EngineConfig{codegen.Native(), codegen.Chrome(), codegen.Firefox(), codegen.AsmJSChrome(), codegen.AsmJSFirefox()} {
			m, err := minic.Compile(s.src, pipeline.ABIFor(cfg))
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, cfg.Name, err)
			}
			cm, err := codegen.Compile(m, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, cfg.Name, err)
			}
			if s.src == switchProbeSrc && !hasJumpTable(cm.Prog) {
				t.Errorf("%s/%s: no OJmpTable in the compiled module", s.name, cfg.Name)
			}
			data := encodeNormalized(t, cm)
			fmt.Fprintf(&sb, "%s %s len=%d sha256=%x\n", s.name, cfg.Name, len(data), sha256.Sum256(data))
		}
	}
	got := sb.String()
	if *updateArtifacts {
		if err := os.WriteFile(artifactGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(artifactGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("artifacts differ from %s:\n--- got\n%s--- want\n%s", artifactGolden, got, want)
	}
}

func hasJumpTable(p *x86.Program) bool {
	for i := range p.Code {
		if p.Code[i].Op == x86.OJmpTable {
			return true
		}
	}
	return false
}
