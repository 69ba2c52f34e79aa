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

// TestArtifactGolden pins the encoded artifact of every catalogue workload
// and of a jump-table probe, per engine, by length and sha256 (CompileTime
// cleared). A change to the in-memory instruction representation must
// leave every artifact byte-identical. It compiles directly, bypassing the
// build cache and the artifact store, so a warm store cannot answer.
// Regenerate with `go test ./internal/codegen -run TestArtifactGolden -update`.
func TestArtifactGolden(t *testing.T) {
	type source struct{ name, src string }
	var sources []source
	for _, w := range append(workloads.SPECCPU(), workloads.Polybench()...) {
		sources = append(sources, source{w.Name, w.Source})
	}
	sources = append(sources, source{"switch-probe", switchProbeSrc})

	var sb strings.Builder
	for _, s := range sources {
		for _, cfg := range []*codegen.EngineConfig{codegen.Native(), codegen.Chrome(), codegen.Firefox()} {
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
