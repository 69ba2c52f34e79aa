package fuzzgen

import (
	"bytes"
	"testing"

	"repro/internal/wasm"
)

// Every generated module must validate and survive a byte-identical
// encode/decode round trip: the corpus, the shrinker's cloneModule, and the
// cross-engine oracle all assume both.
func TestGenerateValidatesAndRoundTrips(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		for _, traps := range []bool{false, true} {
			m := Generate(seed, Options{Traps: traps})
			if err := wasm.Validate(m); err != nil {
				t.Fatalf("seed %d traps=%v: generated module invalid: %v", seed, traps, err)
			}
			enc := wasm.Encode(m)
			m2, err := wasm.Decode(enc)
			if err != nil {
				t.Fatalf("seed %d traps=%v: decode of own encoding failed: %v", seed, traps, err)
			}
			if !bytes.Equal(enc, wasm.Encode(m2)) {
				t.Fatalf("seed %d traps=%v: encode/decode round trip not byte-identical", seed, traps)
			}
		}
	}
}

// Same seed ⇒ byte-identical module. Run under -race -count=2 in CI, this
// also pins that Generate shares no mutable state between calls.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		opt := Options{Traps: seed%2 == 0}
		a := wasm.Encode(Generate(seed, opt))
		b := wasm.Encode(Generate(seed, opt))
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two Generate calls produced different bytes", seed)
		}
	}
}

// The generator must exercise its whole grammar: across a modest seed range
// we expect every structural feature to appear at least once. Guards against
// a refactor silently dropping a production (e.g. loops never emitted).
func TestGenerateCoverage(t *testing.T) {
	sawOp := map[wasm.Opcode]bool{}
	sawTrapSite := false
	for seed := uint64(1); seed <= 100; seed++ {
		m := Generate(seed, Options{Traps: true})
		for fi := range m.Funcs {
			for _, in := range m.Funcs[fi].Body {
				sawOp[in.Op] = true
				if in.Op == wasm.OpUnreachable {
					sawTrapSite = true
				}
			}
		}
	}
	for _, op := range []wasm.Opcode{
		wasm.OpBlock, wasm.OpLoop, wasm.OpBrIf, wasm.OpBrTable, wasm.OpIf, wasm.OpSelect,
		wasm.OpCall, wasm.OpCallIndirect, wasm.OpGlobalGet, wasm.OpGlobalSet,
		wasm.OpI32Load, wasm.OpI32Store, wasm.OpI64Load, wasm.OpI64Store,
		wasm.OpI32DivS, wasm.OpI64DivS, wasm.OpF64Add, wasm.OpMemorySize,
	} {
		if !sawOp[op] {
			t.Errorf("opcode %v never generated across 100 seeds", op)
		}
	}
	if !sawTrapSite {
		t.Error("no unreachable trap site generated across 100 trap-enabled seeds")
	}
}
