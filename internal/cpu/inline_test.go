package cpu

import (
	"os/exec"
	"regexp"
	"testing"
)

// TestHotPathsInline pins that the per-access helpers of the dispatch loop
// still inline: fastSlab resolves every memory uop's address and dtouch
// charges its data-cache access, so a call in their place costs the exact
// tier a measurable share of its simulated MIPS. Both sit close to the
// compiler's inlining budget; this asks the compiler itself.
func TestHotPathsInline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler")
	}
	// go test puts its own toolchain first on the PATH.
	out, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{"fastSlab", "dtouch"} {
		if !regexp.MustCompile(`(?m)can inline \(\*Machine\)\.` + fn + `( |$)`).Match(out) {
			t.Errorf("(*Machine).%s is no longer inlinable", fn)
		}
	}
}
