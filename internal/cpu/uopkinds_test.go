package cpu_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"repro/internal/codegen"
	"repro/internal/cpu"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// uopKindNames reads the uopKind constants from decode.go, in iota order,
// so failures name kinds instead of numbering them.
func uopKindNames(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "decode.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		if typ, ok := g.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || typ.Name != "uopKind" {
			continue
		}
		for _, s := range g.Specs {
			for _, n := range s.(*ast.ValueSpec).Names {
				names = append(names, n.Name)
			}
		}
	}
	if len(names) == 0 || names[0] != "uSlow" {
		t.Fatalf("decode.go: uopKind constants %v, want uSlow first", names)
	}
	return names
}

// TestUopKindsMatchWorkloads pins the decoder's rule: a micro-op kind
// exists only for a shape the compiler emits for the benchmark programs,
// and every other shape runs through uSlow (the legacy interpreter). It
// compiles every SPEC CPU and Polybench workload for every stock engine and
// checks that each kind but uSlow is emitted somewhere, and that no
// workload instruction decodes to uSlow.
func TestUopKindsMatchWorkloads(t *testing.T) {
	names := uopKindNames(t)
	emitted := make([]int, len(names))
	ctx := context.Background()
	for _, w := range append(workloads.SPECCPU(), workloads.Polybench()...) {
		for _, engine := range codegen.EngineNames() {
			cm, err := pipeline.Compile(ctx, &pipeline.Request{Module: w.Source, Engine: engine})
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Name, engine, err)
			}
			for i, k := range cpu.PredecodedKinds(cm.Prog) {
				if int(k) >= len(names) {
					t.Fatalf("%s on %s: kind %d out of range of decode.go's %d kinds", w.Name, engine, k, len(names))
				}
				if k == 0 {
					t.Errorf("%s on %s: instruction %d (%s) decodes to uSlow", w.Name, engine, i, &cm.Prog.Code[i])
				}
				emitted[k]++
			}
		}
	}
	for k, n := range emitted[1:] {
		if n == 0 {
			t.Errorf("%s is never emitted for the workloads: delete it and let the shape fall to uSlow", names[k+1])
		}
	}
}
