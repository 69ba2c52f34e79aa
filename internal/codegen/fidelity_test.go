package codegen_test

import (
	"strings"
	"testing"

	"repro/internal/codegen"
)

// TestParseFidelity pins the knob's spelling: the empty string and the two
// tier names are accepted, and anything else (a removed tier, a wrong
// case, junk) is rejected with an error naming both valid tiers.
func TestParseFidelity(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want codegen.Fidelity
		ok   bool
	}{
		{"", codegen.FidelityExact, true},
		{"exact", codegen.FidelityExact, true},
		{"functional", codegen.FidelityFunctional, true},
		{"sampled", 0, false},
		{"Exact", 0, false},
		{"fast!", 0, false},
	} {
		got, err := codegen.ParseFidelity(tc.in)
		if !tc.ok {
			if err == nil {
				t.Errorf("ParseFidelity(%q) = %v, want an error", tc.in, got)
			} else if msg := err.Error(); !strings.Contains(msg, "exact") || !strings.Contains(msg, "functional") {
				t.Errorf("ParseFidelity(%q) error %q does not name both tiers", tc.in, msg)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseFidelity(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
}
