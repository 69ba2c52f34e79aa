package cpu_test

import (
	"context"
	"testing"

	"repro/internal/browserfs"
	"repro/internal/codegen"
	"repro/internal/kernel"
	"repro/internal/pipeline"
)

// warmSrc is a warm serving request's program: a small array in the data
// page, a few smoothing passes, one printed checksum.
const warmSrc = `
int v[96];
int main() {
  int i; int k; int s;
  s = 417;
  for (i = 0; i < 96; i++) { v[i] = (i * 17 + s) % 1009; }
  for (k = 0; k < 4; k++) {
    for (i = 1; i < 96; i++) { v[i] = (v[i] + v[i - 1] * 17) % 65521; }
  }
  for (i = 0; i < 96; i++) { s = (s * 31 + v[i]) % 1000003; }
  print_int(s); print_nl();
  return 0;
}`

// TestWarmSpawnMaterializesLittle pins what recycling a warm process costs:
// spawned through the kernel, the program materializes at most two pages of
// linear memory (the data page and the top of its shadow stack, 1 MiB
// above) and no table rows beyond the ones its module declares, so release
// clears that much and no more.
func TestWarmSpawnMaterializesLittle(t *testing.T) {
	for _, cfg := range []*codegen.EngineConfig{codegen.Native(), codegen.Chrome(), codegen.Firefox()} {
		t.Run(cfg.Name, func(t *testing.T) {
			cm, err := pipeline.Compile(context.Background(), &pipeline.Request{Module: warmSrc, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			k := kernel.New(browserfs.New())
			k.RegisterBinary("/bin/warm", cm)
			linear, rows := -1, -1
			k.Hooks.End = func(p *kernel.Process) { linear, rows = p.Inst.Materialized() }
			p, err := k.Spawn(nil, "/bin/warm", []string{"warm"}, [3]*kernel.FD{})
			if err != nil {
				t.Fatal(err)
			}
			if code, err := k.WaitPID(p.PID); err != nil || code != 0 || len(k.Console) == 0 {
				t.Fatalf("warm program exited %d (err %v), printed %q", code, err, k.Console)
			}
			if linear < 0 || linear > 2*65536 {
				t.Errorf("materialized %d bytes of linear memory, want at most two pages", linear)
			}
			if rows != len(cm.Table) {
				t.Errorf("materialized %d table rows, want the %d declared", rows, len(cm.Table))
			}
		})
	}
}
