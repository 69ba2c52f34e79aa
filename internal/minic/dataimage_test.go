package minic_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/minic"
	"repro/internal/wasm"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite "+dataImageGolden+" and "+modulesGolden)

// dataImageGolden records, per catalogue workload and ABI, the initial
// memory image the compiler emits and the layout words derived from it.
// Every simulated address depends on these, so a change to any line moves
// the paper's counters and must be deliberate.
const dataImageGolden = "testdata/dataimage.golden"

// flatImage flattens m's data segments into memory order starting at
// minic.DataBase and trims the trailing zeros: zero bytes past the last
// initialized one are bss, which reads as zero whether or not a segment
// carries it.
func flatImage(t *testing.T, m *wasm.Module) []byte {
	t.Helper()
	var img []byte
	for _, d := range m.Data {
		if d.Offset.Op != wasm.OpI32Const || d.Offset.I64 < minic.DataBase {
			t.Fatalf("data segment at %v below the data base", d.Offset)
		}
		off := int(d.Offset.I64) - minic.DataBase
		if end := off + len(d.Bytes); end > len(img) {
			img = append(img, make([]byte, end-len(img))...)
		}
		copy(img[off:], d.Bytes)
	}
	return bytes.TrimRight(img, "\x00")
}

// TestDataImageGolden compiles every catalogue workload under both ABIs and
// compares the data image (sha256 and end of its initialized bytes), the
// initial values of wasm globals 0-2 (shadow stack top, heap base, heap end)
// and the initial memory size with the golden file. Run with -update to
// rewrite it.
func TestDataImageGolden(t *testing.T) {
	var sb strings.Builder
	suite := append(workloads.SPECCPU(), workloads.Polybench()...)
	for _, w := range suite {
		for _, abi := range []struct {
			name string
			abi  minic.ABI
		}{{"abi32", minic.ABI32}, {"abi64", minic.ABI64}} {
			m, err := minic.Compile(w.Source, abi.abi)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, abi.name, err)
			}
			img := flatImage(t, m)
			if len(m.Globals) < 3 || len(m.Mems) != 1 {
				t.Fatalf("%s/%s: %d globals, %d memories", w.Name, abi.name, len(m.Globals), len(m.Mems))
			}
			fmt.Fprintf(&sb, "%s %s end=%d sha256=%x globals=%d,%d,%d pages=%d\n",
				w.Name, abi.name, minic.DataBase+len(img), sha256.Sum256(img),
				m.Globals[0].Init.I64, m.Globals[1].Init.I64, m.Globals[2].Init.I64,
				m.Mems[0].Min)
		}
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(dataImageGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(dataImageGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("data images differ from %s:\n--- got\n%s--- want\n%s", dataImageGolden, got, want)
	}
}

// segmentProbeSrc has the initializer shapes the segment builder must get
// right: zero initializers, doubles with zero low bytes, adjacent and empty
// string literals, and bss between initialized globals.
const segmentProbeSrc = `
int zero = 0;
int gap[64];
int one = 1;
double d = 2.0;
int gap2[16];
double nz = 0.0;
int gap3[16];
long l = 4294967296;
char c = 'x';
int table[6] = {0, 5, 0, 0, 0, 9};
char *s1 = "ab";
char *s2 = "";
char *s3 = "cd";
int main() {
  print_int(zero + one + table[0] + table[1] + table[5] + c + (int)(l >> 32) + gap[63]); print_nl();
  print_fixed(d + nz); print_nl();
  puts(s1); puts(s2); puts(s3);
  return one;
}`

// TestDataSegmentInvariants checks the emitted data segments are sorted,
// non-overlapping and above the data base, and that none is all zero, for
// every catalogue workload and the probe above under both ABIs; the probe
// must also read back its initial values on every engine.
func TestDataSegmentInvariants(t *testing.T) {
	runAll(t, segmentProbeSrc, "136\n2.000000\nab\n\ncd\n", 1)
	srcs := map[string]string{"probe": segmentProbeSrc}
	for _, w := range append(workloads.SPECCPU(), workloads.Polybench()...) {
		srcs[w.Name] = w.Source
	}
	for name, src := range srcs {
		for _, abi := range []minic.ABI{minic.ABI32, minic.ABI64} {
			m, err := minic.Compile(src, abi)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			prevEnd := int64(minic.DataBase)
			for i, d := range m.Data {
				off := d.Offset.I64
				if off < prevEnd {
					t.Errorf("%s ptr%d: segment %d at %d overlaps or precedes the one ending at %d", name, abi.PtrSize, i, off, prevEnd)
				}
				if len(bytes.Trim(d.Bytes, "\x00")) == 0 {
					t.Errorf("%s ptr%d: segment %d (%d bytes at %d) is all zero", name, abi.PtrSize, i, len(d.Bytes), off)
				}
				prevEnd = off + int64(len(d.Bytes))
			}
		}
	}
}
