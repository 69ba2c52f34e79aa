package spec_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/pipeline"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// TestMain prints the build-cache summary after the suite; a warm artifact
// store reports zero misses here.
func TestMain(m *testing.M) {
	code := m.Run()
	pipeline.ReportTotals("spec")
	os.Exit(code)
}

// TestRunSuiteAggregatesFailures is the regression test for the old
// first-error-only channel select: when several workloads fail, every
// failure must appear in the returned error.
func TestRunSuiteAggregatesFailures(t *testing.T) {
	h := spec.NewHarness()
	bad := func(name string, code int) *workloads.Workload {
		return &workloads.Workload{
			Name:   name,
			Source: fmt.Sprintf("int main() { return %d; }", code),
		}
	}
	// A workload that exits 0 but prints nothing fails the cmp check.
	silent := &workloads.Workload{Name: "silent", Source: "int main() { return 0; }"}
	ws := []*workloads.Workload{bad("bad-exit-a", 3), bad("bad-exit-b", 4), silent}
	_, err := h.RunSuite(context.Background(), ws, []*codegen.EngineConfig{codegen.Native()})
	if err == nil {
		t.Fatal("failing workloads must error")
	}
	for _, want := range []string{"bad-exit-a", "bad-exit-b", "silent on native: no output"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregate error missing %s: %v", want, err)
		}
	}
}

// TestDegradedSuiteMarksSilentRow checks the empty-output check in degraded
// mode: a workload that prints nothing on every engine agrees with itself
// across engines, yet its row must come back failed while the others
// survive.
func TestDegradedSuiteMarksSilentRow(t *testing.T) {
	h := spec.NewHarness()
	h.Degraded = true
	ws := []*workloads.Workload{
		{Name: "silent-row", Source: "int main() { return 0; }"},
		{Name: "loud-row", Source: "int main() { print_int(7); print_nl(); return 0; }"},
	}
	cfgs := []*codegen.EngineConfig{codegen.Native(), codegen.Chrome()}
	rs, err := h.RunSuite(context.Background(), ws, cfgs)
	var sf *spec.SuiteFailure
	if !errors.As(err, &sf) {
		t.Fatalf("want a *SuiteFailure, got %v", err)
	}
	if len(sf.Failures) != 1 || sf.Failures[0].Bench != "silent-row" ||
		!strings.Contains(sf.Failures[0].Err.Error(), "no output") {
		t.Fatalf("failures = %v, want one no-output failure for silent-row", sf.Failures)
	}
	for ci, r := range rs.R[0] {
		if r.Err == nil {
			t.Errorf("silent-row on %s: row not marked failed", cfgs[ci].Name)
		}
	}
	for ci, r := range rs.R[1] {
		if r.Err != nil || r.Output != "7\n" {
			t.Errorf("loud-row on %s = (%q, %v), want a clean measurement", cfgs[ci].Name, r.Output, r.Err)
		}
	}
}

// TestHarnessResultsKeyedByConfigContent checks the result memo is
// content-addressed like the build cache: an ablated config under the stock
// engine name must get its own measurement, not the cached stock one.
func TestHarnessResultsKeyedByConfigContent(t *testing.T) {
	h := spec.NewHarness()
	w := &workloads.Workload{Name: "memo-probe", Source: spec.MatmulSource(10, 11, 12)}
	stock, err := h.Run(context.Background(), w, codegen.Chrome())
	if err != nil {
		t.Fatal(err)
	}
	ablated := codegen.Chrome() // same Name, different codegen
	ablated.StackCheck = false
	abl, err := h.Run(context.Background(), w, ablated)
	if err != nil {
		t.Fatal(err)
	}
	if stock.Counters.Instructions == abl.Counters.Instructions {
		t.Error("ablated config returned the stock engine's memoized result")
	}
}

// TestHarnessSingleBenchmark runs one benchmark through the full Figure 2
// chain (runspec -> specinvoke -> benchmark) and checks the recording.
func TestHarnessSingleBenchmark(t *testing.T) {
	// 445.gobmk is in the -short subset too, so the SPEC matrix of either
	// tier has already measured it on the shared harness.
	w := workloads.ByName(workloads.SPECCPU(), "445.gobmk")[0]
	for _, cfg := range spec.EngineSet() {
		r, err := shared.Run(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if r.Seconds <= 0 {
			t.Errorf("%s: no time recorded", cfg.Name)
		}
		if r.Counters.Instructions == 0 {
			t.Errorf("%s: no instructions recorded", cfg.Name)
		}
		if r.Output == "" {
			t.Errorf("%s: no output", cfg.Name)
		}
	}
}

// TestWasmSlowerThanNativeOnSPEC checks the paper's headline direction:
// geomean slowdown > 1 for both browsers on a compute-bound subset.
func TestWasmSlowerThanNativeOnSPEC(t *testing.T) {
	names := map[string]bool{"444.namd": true, "453.povray": true, "473.astar": true}
	if testing.Short() {
		names = map[string]bool{"470.lbm": true} // a row of the -short matrix
	}
	subset := []*workloads.Workload{}
	for _, w := range workloads.SPECCPU() {
		if names[w.Name] {
			subset = append(subset, w)
		}
	}
	rs, err := shared.RunSuite(context.Background(), subset, spec.EngineSet())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range subset {
		n := rs.R[i][0].Seconds
		c := rs.R[i][1].Seconds
		f := rs.R[i][2].Seconds
		t.Logf("%s: native=%.2fms chrome=%.2fx firefox=%.2fx", w.Name, n*1000, c/n, f/n)
		if c <= n {
			t.Errorf("%s: chrome (%.3fms) not slower than native (%.3fms)", w.Name, c*1000, n*1000)
		}
		if f <= n {
			t.Errorf("%s: firefox (%.3fms) not slower than native (%.3fms)", w.Name, f*1000, n*1000)
		}
	}
}

// TestBrowsixOverheadSmall checks the Figure 4 claim: kernel time is a tiny
// share of a compute benchmark.
func TestBrowsixOverheadSmall(t *testing.T) {
	w := workloads.ByName(workloads.SPECCPU(), "445.gobmk")[0] // few syscalls; a -short row too
	r, err := shared.Run(context.Background(), w, codegen.Firefox())
	if err != nil {
		t.Fatal(err)
	}
	if r.BrowsixShare > 0.05 {
		t.Errorf("browsix share %.2f%% exceeds 5%%", r.BrowsixShare*100)
	}
}

func TestFig7Listings(t *testing.T) {
	s, err := spec.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "native") || !strings.Contains(s, "chrome") {
		t.Errorf("missing engines in fig7 output")
	}
	if !strings.Contains(s, "matmul") {
		t.Errorf("missing matmul listing")
	}
}

func TestTable3(t *testing.T) {
	s := spec.Table3()
	for _, want := range []string{"r81d0", "r82d0", "r00c4", "r01c4", "r1c0", "L1-icache-load-misses"} {
		if !strings.Contains(s, want) {
			t.Errorf("table 3 missing %q", want)
		}
	}
}

// TestMcfAnomaly checks the paper's §6.3 anomaly: mcf runs at or below
// native speed in wasm because wasm32 pointers halve its working set.
func TestMcfAnomaly(t *testing.T) {
	if testing.Short() {
		t.Skip("mcf is the largest workload")
	}
	var mcf *workloads.Workload
	for _, w := range workloads.SPECCPU() {
		if w.Name == "429.mcf" {
			mcf = w
		}
	}
	rs, err := shared.RunSuite(context.Background(), []*workloads.Workload{mcf}, spec.EngineSet())
	if err != nil {
		t.Fatal(err)
	}
	n := rs.R[0][0].Seconds
	c := rs.R[0][1].Seconds
	t.Logf("mcf: chrome/native = %.2f", c/n)
	if c/n > 1.15 {
		t.Errorf("mcf chrome slowdown %.2f; expected near or below 1.0 (pointer density)", c/n)
	}
}

// TestRunSuiteFillsMatrix checks RunSuite returns every row of the matrix,
// in workload order and with the engines in the order given.
func TestRunSuiteFillsMatrix(t *testing.T) {
	ws := spec.SuiteNamed("polybench").Workloads(testing.Short())[:3]
	cfgs := spec.EngineSet()
	rs, err := shared.RunSuite(context.Background(), ws, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.R) != len(ws) {
		t.Fatalf("got %d rows, want %d", len(rs.R), len(ws))
	}
	for wi, row := range rs.R {
		if len(row) != len(cfgs) {
			t.Fatalf("row %d has %d entries, want %d", wi, len(row), len(cfgs))
		}
		for ci, r := range row {
			if r == nil || r.Bench != ws[wi].Name || r.Engine != cfgs[ci].Name {
				t.Errorf("rs[%d][%d] = %+v, want %s on %s", wi, ci, r, ws[wi].Name, cfgs[ci].Name)
			}
		}
	}
}
