// Command runsuite runs the differential workload suites from the command
// line through the Browsix-SPEC harness (spec.Harness.RunSuite: the Figure 2
// runspec → specinvoke → benchmark chain, cmp-validated across engines) —
// the CI fault-smoke entry point. With -degraded, individual workload
// failures (injected via $REPRO_FAULTS, watchdog kills via
// $REPRO_JOB_TIMEOUT / $REPRO_JOB_MAX_INSTS, or real bugs) become FAIL rows
// and a failure summary; the process still exits nonzero so CI sees the
// failure, but every surviving row is validated. Every exit after the
// suites start flushes pending remote publishes and prints the cache
// totals.
//
// Usage:
//
//	runsuite [-suite polybench|spec|asmjs|all] [-short] [-degraded] [-fidelity exact|functional]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/spec"
)

func main() {
	var names []string
	for _, s := range spec.Suites {
		names = append(names, s.Name)
	}
	suite := flag.String("suite", "polybench", "suite to run: "+strings.Join(names, ", ")+", or all")
	short := flag.Bool("short", false, "run the scaled-down short subsets")
	degraded := flag.Bool("degraded", false, "survive individual workload failures: report FAIL rows, exit nonzero")
	fidelity := flag.String("fidelity", "", "simulation tier: exact or functional (default $REPRO_FIDELITY, else exact)")
	flag.Parse()

	fid, err := codegen.ParseFidelity(config.String(*fidelity, config.EnvFidelity, ""))
	if err != nil {
		fmt.Fprintln(os.Stderr, "runsuite:", err)
		os.Exit(2)
	}

	var suites []*spec.Suite
	for i := range spec.Suites {
		if s := &spec.Suites[i]; *suite == s.Name || *suite == "all" {
			suites = append(suites, s)
		}
	}
	if len(suites) == 0 {
		fmt.Fprintf(os.Stderr, "runsuite: unknown suite %q\n", *suite)
		os.Exit(2)
	}

	h := spec.NewHarness()
	h.Degraded = *degraded
	exit := 0
	for _, s := range suites {
		ws, cfgs := s.Workloads(*short), s.Configs(fid)
		before := pipeline.Stats()
		out, err := h.RunSuite(context.Background(), ws, cfgs)
		var sf *spec.SuiteFailure
		if err != nil && !errors.As(err, &sf) {
			// A strict failure (or a degraded suite the scheduler aborted)
			// has no matrix to report; stop, but still flush and report.
			fmt.Fprintf(os.Stderr, "runsuite: %s: %v\n", s.Name, err)
			exit = 1
			break
		}
		ok, rows := 0, len(ws)*len(cfgs)
		for _, row := range out.R {
			for _, r := range row {
				if r != nil && r.Err == nil {
					ok++
				}
			}
		}
		fmt.Printf("suite %s: %d/%d runs ok (%d workloads × %d engines) cache: %v\n",
			s.Name, ok, rows, len(ws), len(cfgs), pipeline.Stats().Sub(before))
		if sf != nil {
			for _, f := range sf.Failures {
				fmt.Printf("FAIL %s on %s\n", f.Bench, f.Engine)
			}
			fmt.Fprintf(os.Stderr, "runsuite: %v\n", err)
			exit = 1
		}
	}
	// Let trailing async artifact publishes reach the shared remote cache
	// (when one is armed) before the process exits; a non-drain only costs
	// fleet warmth, never the suite verdict.
	pipeline.RemoteFlush(5 * time.Second)
	pipeline.ReportTotals("runsuite")
	os.Exit(exit)
}
