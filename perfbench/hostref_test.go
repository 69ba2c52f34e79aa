package main

import (
	"testing"
	"time"
)

// TestHostRefSampling checks that scaleNow reuses a sample until it is
// maxAge old, and that scaleAll takes one fresh sample per allowed CPU.
func TestHostRefSampling(t *testing.T) {
	var h hostRef
	s := h.scaleNow(time.Hour)
	if s <= 0 || h.scaleNow(time.Hour) != s || len(h.scales) != 1 {
		t.Fatalf("scaleNow(1h) twice: scale %v, %d samples; want one positive sample reused", s, len(h.scales))
	}
	if h.scaleNow(0); len(h.scales) != 2 {
		t.Fatalf("scaleNow(0) took no new sample")
	}
	before := len(h.scales)
	if all := h.scaleAll(); all <= 0 {
		t.Fatalf("scaleAll = %v, want > 0", all)
	}
	if n := len(h.scales) - before; n < 1 {
		t.Fatalf("scaleAll took %d samples, want one per CPU", n)
	}
}
