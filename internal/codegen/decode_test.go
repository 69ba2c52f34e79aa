package codegen_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"repro/internal/codegen"
	"repro/internal/workloads"
)

// encodeSource compiles mini-C src for cfg and returns its artifact.
func encodeSource(t testing.TB, src string, cfg *codegen.EngineConfig) []byte {
	t.Helper()
	cm, err := codegen.Compile(buildModule(t, src, cfg), cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	data, err := codegen.EncodeModule(cm)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return data
}

// FuzzDecodeModule feeds arbitrary bytes to the payload decoder through
// DecodeVerifiedModule, which skips the sha256 check, so a mutation reaches
// every field. The decoder must never panic, and it must accept only the
// encoder's own output: a module it decodes re-encodes to the input's
// bytes, all but the trailer, which the input need not have sealed.
//
// The seeds are one small workload's artifact per engine and the switch
// probe's (the only artifact with a jump table), each also cut inside an
// instruction a few bytes before the end of the input, where the decoder
// reads from its zero-padded copy of the tail.
func FuzzDecodeModule(f *testing.F) {
	w := workloads.ByName(workloads.SPECCPU(), "462.libquantum")[0]
	for _, cfg := range []*codegen.EngineConfig{codegen.Native(), codegen.Chrome(), codegen.Firefox()} {
		for _, src := range []string{w.Source, switchProbeSrc} {
			data := encodeSource(f, src, cfg)
			f.Add(data)
			// The payload opens with the instruction count n, which
			// must not exceed the bytes left, so cut the stream a little
			// past n bytes: in the middle of an instruction that begins
			// fewer than maxInstBytes before the end.
			n, k := binary.Uvarint(data[8:])
			for _, cut := range []int{1, 4, 9, 23, 40} {
				end := 8 + k + int(n) + cut
				f.Add(append(data[:end:end], make([]byte, sha256.Size)...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cm, err := codegen.DecodeVerifiedModule(data, codegen.Chrome())
		if err != nil {
			return
		}
		re, err := codegen.EncodeModule(cm)
		if err != nil {
			t.Fatalf("decoded module does not re-encode: %v", err)
		}
		if len(re) != len(data) || !bytes.Equal(re[:len(re)-sha256.Size], data[:len(data)-sha256.Size]) {
			t.Fatalf("decoded module re-encodes to %d bytes that differ from its %d input bytes", len(re), len(data))
		}
	})
}

// TestDecodeAllocs pins what a disk hit allocates. Decode allocates the
// instruction slice once, gathers every listing note into one string, and
// builds the remaining tables once each, so what grows with a module is
// its strings: a name per function, a host name and host import per host
// function, and a copy per data segment. The bound therefore has a term
// for functions, data segments and host names but none for instructions
// or notes, whose counts run to thousands per module. The constant covers
// the fixed tables and the logarithmic growth of the note list; jump
// tables, one allocation each, are absent from these workloads.
func TestDecodeAllocs(t *testing.T) {
	for _, w := range workloads.ByName(workloads.SPECCPU(), "401.bzip2", "458.sjeng") {
		for _, cfg := range []*codegen.EngineConfig{codegen.Native(), codegen.Chrome()} {
			data := encodeSource(t, w.Source, cfg)
			cm, err := codegen.DecodeModule(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(10, func() {
				if _, err := codegen.DecodeModule(data, cfg); err != nil {
					t.Fatal(err)
				}
			})
			per := len(cm.Prog.Funcs) + len(cm.Data) + len(cm.Prog.HostNames)
			if limit := 48 + 2*per; got > float64(limit) {
				t.Errorf("%s/%s: decode makes %.0f allocations, want <= %d (%d functions, %d data segments, %d host names; %d instructions, %d notes)",
					w.Name, cfg.Name, got, limit, len(cm.Prog.Funcs), len(cm.Data), len(cm.Prog.HostNames), len(cm.Prog.Code), len(cm.Prog.Notes))
			}
		}
	}
}
