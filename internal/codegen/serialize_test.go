package codegen_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/cpu"
	"repro/internal/minic"
	"repro/internal/wasm"
	"repro/internal/x86"
)

// buildArtifactModule compiles the shared matmul module (loops, floats,
// indirect-call table machinery absent but calls present) for cfg.
func buildArtifactModule(t *testing.T, cfg *codegen.EngineConfig) *codegen.CompiledModule {
	t.Helper()
	cm, err := codegen.Compile(buildMatmulModule(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// dataProbeSrc has initialized scalars, a string literal and a 400 KB
// zero-initialized array: bss the artifact must not carry.
const dataProbeSrc = `
int small = 7;
double scale = 2.5;
int big[100000];
char *greet = "hello";
int main() { big[5] = small; print_int(big[5]); return 0; }`

// buildFloatArgModule exports mix(a f64, n i32, b f32) f64 = a*n + b, whose
// float and integer arguments land in different register files: Invoke
// places them by the function's signature.
func buildFloatArgModule() *wasm.Module {
	b := wasm.NewModuleBuilder()
	ft := wasm.FuncType{Params: []wasm.ValType{wasm.F64, wasm.I32, wasm.F32}, Results: []wasm.ValType{wasm.F64}}
	fb := b.Func("mix", ft)
	fb.LocalGet(0).LocalGet(1).Op(wasm.OpF64ConvertI32S).Op(wasm.OpF64Mul)
	fb.LocalGet(2).Op(wasm.OpF64PromoteF32).Op(wasm.OpF64Add)
	b.Export("mix", wasm.ExternFunc, fb.Index())
	return b.Module()
}

// sigsEqual compares signature lists, treating nil and empty value-type
// lists alike.
func sigsEqual(a, b []wasm.FuncType) bool {
	return slices.EqualFunc(a, b, func(x, y wasm.FuncType) bool {
		return slices.Equal(x.Params, y.Params) && slices.Equal(x.Results, y.Results)
	})
}

// TestArtifactRoundTrip checks that an encoded module decodes to something
// that executes bit-identically to the original: same result, same retired
// instruction and cycle counters, same signatures, same disassembly, and a
// byte-identical re-encoding. A module with data segments carries them as
// resolved segments and loads the same initial linear memory after the
// round trip, and a decoded module places float arguments by its stored
// signatures.
func TestArtifactRoundTrip(t *testing.T) {
	for _, cfg := range engines() {
		t.Run(cfg.Name, func(t *testing.T) {
			cm := buildArtifactModule(t, cfg)
			data, err := codegen.EncodeModule(cm)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := codegen.DecodeModule(data, cfg)
			if err != nil {
				t.Fatal(err)
			}

			run := func(m *codegen.CompiledModule) (uint64, uint64, uint64) {
				const cAddr, aAddr, bAddr = 0, 4096, 8192
				inst, err := cpu.Load(m)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := inst.Invoke("init", aAddr, bAddr); err != nil {
					t.Fatal(err)
				}
				if _, err := inst.Invoke("matmul", cAddr, aAddr, bAddr); err != nil {
					t.Fatal(err)
				}
				got, err := inst.Invoke("checksum", cAddr)
				if err != nil {
					t.Fatal(err)
				}
				inst.FlushCycles()
				return got, inst.Counters.Instructions, inst.Counters.Cycles
			}
			v1, i1, c1 := run(cm)
			v2, i2, c2 := run(dec)
			if v1 != v2 {
				t.Errorf("decoded module computed %d, original %d", v2, v1)
			}
			if i1 != i2 || c1 != c2 {
				t.Errorf("counters diverged: insts %d/%d cycles %d/%d", i1, i2, c1, c2)
			}

			if cm.Prog.CodeBytes != dec.Prog.CodeBytes {
				t.Errorf("CodeBytes %d != %d after relayout", dec.Prog.CodeBytes, cm.Prog.CodeBytes)
			}
			d1, ok1 := cm.DisasmFunc("matmul")
			d2, ok2 := dec.DisasmFunc("matmul")
			if !ok1 || !ok2 || d1 != d2 {
				t.Errorf("disassembly diverged after round trip")
			}
			if cm.CompileTime != dec.CompileTime {
				t.Errorf("CompileTime %v != %v", dec.CompileTime, cm.CompileTime)
			}
			if cm.PtrSize != dec.PtrSize || cm.TotalSpills != dec.TotalSpills {
				t.Errorf("scalar fields diverged")
			}
			if len(cm.Sigs) == 0 || !sigsEqual(dec.Sigs, cm.Sigs) {
				t.Errorf("signatures %v after round trip, want %v", dec.Sigs, cm.Sigs)
			}

			re, err := codegen.EncodeModule(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, re) {
				t.Errorf("re-encoding is not byte-identical (%d vs %d bytes)", len(data), len(re))
			}

			m, err := minic.Compile(dataProbeSrc, minic.ABI32)
			if err != nil {
				t.Fatal(err)
			}
			cm, err = codegen.Compile(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if data, err = codegen.EncodeModule(cm); err != nil {
				t.Fatal(err)
			}
			if len(data) > 64<<10 {
				t.Errorf("artifact is %d bytes: the 400 KB bss array is stored", len(data))
			}
			if dec, err = codegen.DecodeModule(data, cfg); err != nil {
				t.Fatal(err)
			}
			if len(cm.Data) == 0 || !reflect.DeepEqual(dec.Data, cm.Data) {
				t.Errorf("data segments %v after round trip, want %v", dec.Data, cm.Data)
			}
			if !sigsEqual(dec.Sigs, cm.Sigs) {
				t.Errorf("signatures %v after round trip, want %v", dec.Sigs, cm.Sigs)
			}
			orig, err := cpu.Load(cm)
			if err != nil {
				t.Fatal(err)
			}
			round, err := cpu.Load(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(orig.Linear, round.Linear) {
				t.Error("decoded module loads a different initial linear memory")
			}
			orig.ReleaseMemory()
			round.ReleaseMemory()

			// A br_table module: its jump table must survive the round
			// trip with the same results, counters and listing.
			if cm, err = codegen.Compile(buildBrTableModule(), cfg); err != nil {
				t.Fatal(err)
			}
			if !hasJumpTable(cm.Prog) {
				t.Fatal("br_table module compiled without an OJmpTable")
			}
			if data, err = codegen.EncodeModule(cm); err != nil {
				t.Fatal(err)
			}
			if dec, err = codegen.DecodeModule(data, cfg); err != nil {
				t.Fatal(err)
			}
			sel := func(m *codegen.CompiledModule) (res []uint64, insts, cycles uint64) {
				inst, err := cpu.Load(m)
				if err != nil {
					t.Fatal(err)
				}
				defer inst.ReleaseMemory()
				for _, v := range []uint64{0, 1, 2, 3, 99} {
					got, err := inst.Invoke("sel", v)
					if err != nil {
						t.Fatal(err)
					}
					res = append(res, got)
				}
				inst.FlushCycles()
				return res, inst.Counters.Instructions, inst.Counters.Cycles
			}
			r1, i1, c1 := sel(cm)
			r2, i2, c2 := sel(dec)
			if !slices.Equal(r1, r2) || !slices.Equal(r1, []uint64{10, 20, 30, 30, 30}) {
				t.Errorf("sel results %v after round trip, original %v", r2, r1)
			}
			if i1 != i2 || c1 != c2 {
				t.Errorf("br_table counters diverged: insts %d/%d cycles %d/%d", i1, i2, c1, c2)
			}
			d1, ok1 = cm.DisasmFunc("sel")
			d2, ok2 = dec.DisasmFunc("sel")
			if !ok1 || !ok2 || d1 != d2 {
				t.Errorf("br_table listing diverged after round trip:\n%s\n---\n%s", d1, d2)
			}
			if re, err = codegen.EncodeModule(dec); err != nil || !bytes.Equal(data, re) {
				t.Errorf("br_table re-encoding is not byte-identical (%v)", err)
			}

			if cm, err = codegen.Compile(buildFloatArgModule(), cfg); err != nil {
				t.Fatal(err)
			}
			if data, err = codegen.EncodeModule(cm); err != nil {
				t.Fatal(err)
			}
			if dec, err = codegen.DecodeModule(data, cfg); err != nil {
				t.Fatal(err)
			}
			inst, err := cpu.Load(dec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := inst.Invoke("mix", math.Float64bits(1.5), 6, uint64(math.Float32bits(0.25)))
			if err != nil {
				t.Fatal(err)
			}
			if v := math.Float64frombits(got); v != 9.25 {
				t.Errorf("decoded mix(1.5, 6, 0.25) = %v, want 9.25", v)
			}
			inst.ReleaseMemory()
		})
	}
}

// TestCompiledModuleHoldsNoWasmModule pins that a compiled module keeps only
// what a run reads: no field, however nested, can reach a wasm.Module, so
// neither the build cache nor an artifact carries function bodies.
func TestCompiledModuleHoldsNoWasmModule(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		if ty == reflect.TypeOf(wasm.Module{}) || ty == reflect.TypeOf(wasm.Func{}) {
			t.Errorf("%s reaches %v", path, ty)
			return
		}
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path)
		case reflect.Map:
			walk(ty.Key(), path)
			walk(ty.Elem(), path)
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeOf(codegen.CompiledModule{}), "CompiledModule")
}

// TestArtifactRejectsDamage checks the decoder fails cleanly — an error, not
// a panic or a silently wrong module — for every damage shape the disk store
// must survive.
func TestArtifactRejectsDamage(t *testing.T) {
	cfg := codegen.Chrome()
	cm := buildArtifactModule(t, cfg)
	data, err := codegen.EncodeModule(cm)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, 8, len(data) / 2, len(data) - 1} {
			if _, err := codegen.DecodeModule(data[:n], cfg); err == nil {
				t.Errorf("truncation to %d bytes not detected", n)
			}
		}
	})
	t.Run("bit-flip", func(t *testing.T) {
		// Flip a bit in every region: header, early payload, late payload,
		// trailer.
		for _, off := range []int{5, 40, len(data) / 2, len(data) - 10} {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x10
			if _, err := codegen.DecodeModule(mut, cfg); err == nil {
				t.Errorf("bit flip at %d not detected", off)
			}
		}
	})
	t.Run("stale-version", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[4] = byte(codegen.ArtifactVersion + 1)
		if _, err := codegen.DecodeModule(mut, cfg); err == nil {
			t.Error("future version not rejected")
		}
		mut[4] = 0
		if _, err := codegen.DecodeModule(mut, cfg); err == nil {
			t.Error("version 0 not rejected")
		}
		// Version 1 stored the data segments a second time, after the
		// module-level tables.
		mut[4] = 1
		if _, err := codegen.DecodeModule(mut, cfg); err == nil {
			t.Error("version 1 not rejected")
		}
		// Version 2 embedded the source wasm module.
		mut[4] = 2
		if _, err := codegen.DecodeModule(mut, cfg); err == nil {
			t.Error("version 2 not rejected")
		}
	})
	// A hash-valid artifact can still disagree with itself: the encoder
	// does not validate, so it seals these damaged modules faithfully.
	sealed := func(mutate func(cm *codegen.CompiledModule)) []byte {
		bad := *cm
		bad.Sigs = slices.Clone(cm.Sigs)
		mutate(&bad)
		art, err := codegen.EncodeModule(&bad)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	t.Run("signature-count", func(t *testing.T) {
		for _, n := range []int{len(cm.Sigs) - 1, len(cm.Sigs) + 1} {
			art := sealed(func(bad *codegen.CompiledModule) {
				bad.Sigs = slices.Grow(bad.Sigs, 1)[:n]
			})
			if _, err := codegen.DecodeModule(art, cfg); err == nil {
				t.Errorf("%d signatures for %d entries not rejected", n, len(cm.Entries))
			}
		}
	})
	t.Run("unknown-valtype", func(t *testing.T) {
		for _, ft := range []wasm.FuncType{
			{Params: []wasm.ValType{wasm.I32, 0x40}},
			{Results: []wasm.ValType{0x7b}},
		} {
			art := sealed(func(bad *codegen.CompiledModule) { bad.Sigs[len(bad.Sigs)-1] = ft })
			if _, err := codegen.DecodeModule(art, cfg); err == nil {
				t.Errorf("signature %v not rejected", ft)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[0] = 'X'
		if _, err := codegen.DecodeModule(mut, cfg); err == nil {
			t.Error("bad magic not rejected")
		}
	})
	// Fields the encoder cannot produce: the first instruction is rewritten
	// in the encoded stream (op, w, cc, flags, two empty operands, target,
	// host, then its table) and the trailer resealed.
	t.Run("instruction-fields", func(t *testing.T) {
		first := func(in x86.Inst, tables [][]int) []byte {
			p := *cm.Prog
			p.Code = slices.Clone(p.Code)
			p.Code[0] = in
			p.Tables, p.Notes = tables, nil
			return sealed(func(bad *codegen.CompiledModule) { bad.Prog = &p })
		}
		off := 8 + len(binary.AppendUvarint(nil, uint64(len(cm.Prog.Code))))
		reseal := func(art []byte) []byte {
			sum := sha256.Sum256(art[:len(art)-sha256.Size])
			return append(art[:len(art)-sha256.Size], sum[:]...)
		}

		art := first(x86.Inst{Op: x86.OCallHost, Host: 5}, nil)
		hostAt := off + 7
		mut := append(slices.Clone(art[:hostAt]), binary.AppendVarint(nil, 1<<40)...)
		mut = reseal(append(mut, art[hostAt+1:]...))
		if _, err := codegen.DecodeModule(mut, cfg); err == nil || !strings.Contains(err.Error(), "host index") {
			t.Errorf("host index outside int32 not rejected: %v", err)
		}

		art = first(x86.Inst{Op: x86.OJmpTable}, [][]int{{0}})
		if _, err := codegen.DecodeModule(art, cfg); err != nil {
			t.Fatalf("jump table not decoded: %v", err)
		}
		mut = slices.Clone(art)
		mut[off] = byte(x86.ONop)
		if _, err := codegen.DecodeModule(reseal(mut), cfg); err == nil || !strings.Contains(err.Error(), "non-table") {
			t.Errorf("jump table on a non-table instruction not rejected: %v", err)
		}
	})
}

// TestVerifyArtifact pins the decode-free integrity check the remote cache
// tier gates payloads with: a clean artifact verifies, and every damage
// shape the decoder rejects is caught before any decoding happens.
func TestVerifyArtifact(t *testing.T) {
	cfg := codegen.Firefox()
	cm := buildArtifactModule(t, cfg)
	data, err := codegen.EncodeModule(cm)
	if err != nil {
		t.Fatal(err)
	}
	if err := codegen.VerifyArtifact(data); err != nil {
		t.Fatalf("clean artifact failed verification: %v", err)
	}
	mutations := map[string][]byte{
		"empty":       {},
		"short":       data[:8],
		"truncated":   data[:len(data)/2],
		"bad-magic":   append([]byte{'X'}, data[1:]...),
		"missing-end": data[:len(data)-1],
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x20
	mutations["bit-flip"] = flip
	stale := append([]byte(nil), data...)
	stale[4] = byte(codegen.ArtifactVersion + 1)
	mutations["stale-version"] = stale
	for name, mut := range mutations {
		if err := codegen.VerifyArtifact(mut); err == nil {
			t.Errorf("%s artifact passed verification", name)
		}
	}
	// Verification is the decoder's outer gate: anything VerifyArtifact
	// rejects, DecodeModule must reject too.
	for name, mut := range mutations {
		if _, err := codegen.DecodeModule(mut, cfg); err == nil {
			t.Errorf("%s artifact passed DecodeModule despite failing verification", name)
		}
	}

	// DecodeVerifiedModule skips only the hash: on verified bytes it
	// decodes what DecodeModule decodes, and it still rejects a bad header
	// or a payload cut short.
	dec, err := codegen.DecodeVerifiedModule(data, cfg)
	if err != nil {
		t.Fatalf("verified decode of a clean artifact: %v", err)
	}
	if re, err := codegen.EncodeModule(dec); err != nil || !bytes.Equal(re, data) {
		t.Errorf("verified decode does not re-encode byte-identically (err %v)", err)
	}
	for _, name := range []string{"empty", "short", "truncated", "bad-magic", "stale-version"} {
		if _, err := codegen.DecodeVerifiedModule(mutations[name], cfg); err == nil {
			t.Errorf("%s artifact passed DecodeVerifiedModule", name)
		}
	}
}
