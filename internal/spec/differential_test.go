package spec_test

// The suite-reading tests. Every one of them goes through the shared
// harness, so each workload × engine row is simulated once per test
// process and its memo serves every later test that needs the row. This
// file sorts before the single-row tests, so in a full run the matrices
// fill the memo in parallel before those tests read it.

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/pipeline"
	"repro/internal/spec"
)

// shared is the harness of every test in this package that measures a
// suite row.
var shared = spec.NewHarness()

// matrix runs the named suite of spec.Suites, its -short subset under
// -short, at the exact tier on the shared harness. The run is strict: every
// failing row fails the test, and the cmp validation compares each row's
// outputs across engines.
func matrix(t *testing.T, name string) *spec.SuiteResults {
	t.Helper()
	s := spec.SuiteNamed(name)
	before := pipeline.Stats()
	r, err := shared.RunSuite(context.Background(), s.Workloads(testing.Short()), s.Configs(codegen.FidelityExact))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s suite cache: %v", name, pipeline.Stats().Sub(before))
	return r
}

// TestPolybenchDifferential runs every Polybench kernel on native, Chrome
// and Firefox through the Figure 2 harness and requires identical output
// (the cmp validation). Short mode runs the scaled-down subset.
func TestPolybenchDifferential(t *testing.T) { matrix(t, "polybench") }

// TestSPECDifferential runs every SPEC-shaped workload on native, Chrome
// and Firefox through the Figure 2 harness and requires identical output.
// Short mode runs the scaled-down subset.
func TestSPECDifferential(t *testing.T) { matrix(t, "spec") }

// countersGolden pins the simulated counters of every suite row: the
// paper's output, as opposed to the figures golden's synthetic matrix.
const countersGolden = "testdata/suite_counters.golden"

var updateCounters = flag.Bool("update", false, "rewrite "+countersGolden)

// counterRow renders one measured row of the counters golden. The first
// three fields (suite, workload, engine) are the row's key. Counters print
// with %+v on the value, so every field appears, L2Misses included.
func counterRow(suite string, r *spec.Result) string {
	return fmt.Sprintf("%s %s %s %+v syscalls=%d browsix_share=%v output_sha256=%x",
		suite, r.Bench, r.Engine, r.Counters, r.Syscalls, r.BrowsixShare, sha256.Sum256([]byte(r.Output)))
}

// rowKey returns the suite/workload/engine prefix of a golden line.
func rowKey(line string) string {
	f := strings.SplitN(line, " ", 4)
	return strings.Join(f[:min(3, len(f))], " ")
}

// TestSuiteCounters pins every Polybench and SPEC row on native, Chrome
// and Firefox: the perf-recorded counters, syscall count, Browsix share
// and a hash of the validated output. A full run must reproduce the golden
// file exactly; -short checks the rows its subsets run (the same workloads
// at the same sizes), and a row missing from the golden fails either way.
// Regenerate with `go test ./internal/spec -run TestSuiteCounters -update`.
func TestSuiteCounters(t *testing.T) {
	if *updateCounters && testing.Short() {
		t.Fatal("-update needs the full suites; drop -short")
	}
	var got []string
	for _, name := range []string{"polybench", "spec"} {
		for _, row := range matrix(t, name).R {
			for _, r := range row {
				got = append(got, counterRow(name, r))
			}
		}
	}
	if *updateCounters {
		if err := os.WriteFile(countersGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		want[rowKey(line)] = line
	}
	for _, line := range got {
		switch w, ok := want[rowKey(line)]; {
		case !ok:
			t.Errorf("row missing from %s:\n  got  %s", countersGolden, line)
		case w != line:
			t.Errorf("row differs from %s:\n  got  %s\n  want %s", countersGolden, line, w)
		}
	}
	if !testing.Short() && len(got) != len(want) {
		t.Errorf("%s has %d rows, the suites ran %d", countersGolden, len(want), len(got))
	}
}

// TestTable2AndFig8 renders the compile-time table and the matmul sweep
// from the shared harness: every SPEC workload gets a Table 2 line with
// positive compile times, and every Fig8Sizes size a Figure 8 line with
// positive Chrome and Firefox ratios.
func TestTable2AndFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("the matmul sweep simulates ten sizes on three engines")
	}
	table2, err := shared.Table2()
	if err != nil {
		t.Fatal(err)
	}
	var specNames []string
	for _, w := range spec.SuiteNamed("spec").Workloads(false) {
		specNames = append(specNames, w.Name)
	}
	checkPositiveRows(t, "Table 2", table2, specNames)

	fig8, err := shared.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	var sizes []string
	for _, sz := range spec.Fig8Sizes {
		sizes = append(sizes, fmt.Sprintf("%dx%dx%d", sz[0], sz[1], sz[2]))
	}
	checkPositiveRows(t, "Figure 8", fig8, sizes)
}

// checkPositiveRows requires one line of out per label, each the label
// followed by two positive numbers.
func checkPositiveRows(t *testing.T, title, out string, labels []string) {
	t.Helper()
	lines := map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			lines[f[0]] = f[1:]
		}
	}
	for _, label := range labels {
		vals, ok := lines[label]
		if !ok || len(vals) != 2 {
			t.Errorf("%s: no two-column row for %s in\n%s", title, label, out)
			continue
		}
		for _, v := range vals {
			if x, err := strconv.ParseFloat(v, 64); err != nil || !(x > 0) {
				t.Errorf("%s: %s = %v, want positive numbers", title, label, vals)
			}
		}
	}
}
