package spec_test

import (
	"context"
	"testing"

	"repro/internal/codegen"
	"repro/internal/workloads"
)

func TestSjengICache(t *testing.T) {
	if testing.Short() {
		t.Skip("sjeng triple-engine run is slow")
	}
	var w *workloads.Workload
	for _, x := range workloads.SPECCPU() {
		if x.Name == "458.sjeng" {
			w = x
		}
	}
	var miss [3]uint64
	var secs [3]float64
	for i, cfg := range []*codegen.EngineConfig{codegen.Native(), codegen.Chrome(), codegen.Firefox()} {
		r, err := shared.Run(context.Background(), w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		miss[i] = r.Counters.L1IMisses
		secs[i] = r.Seconds
	}
	t.Logf("L1I misses: native=%d chrome=%d (%.1fx) firefox=%d (%.1fx)",
		miss[0], miss[1], float64(miss[1])/float64(miss[0]), miss[2], float64(miss[2])/float64(miss[0]))
	t.Logf("time: chrome %.2fx firefox %.2fx", secs[1]/secs[0], secs[2]/secs[0])
	// The paper's §6.3 call-out: sjeng's wasm builds overflow the 32 KB L1
	// i-cache that the native build fits in (26.5x/18.6x more misses).
	if miss[1] < 10*miss[0] {
		t.Errorf("chrome L1I misses only %dx native; expected a blow-up", miss[1]/(miss[0]+1))
	}
	if miss[1] < miss[2] {
		t.Errorf("chrome should miss more than firefox (larger code)")
	}
}
