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
//	runsuite [-suite polybench|spec|all] [-short] [-degraded]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/codegen"
	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/spec"
	"repro/internal/workloads"
)

func main() {
	suite := flag.String("suite", "polybench", "suite to run: polybench, spec, all")
	short := flag.Bool("short", false, "run the scaled-down short subsets")
	degraded := flag.Bool("degraded", false, "survive individual workload failures: report FAIL rows, exit nonzero")
	fidelity := flag.String("fidelity", "", "simulation tier: exact or functional (default $REPRO_FIDELITY, else exact)")
	flag.Parse()

	fid, err := codegen.ParseFidelity(config.String(*fidelity, config.EnvFidelity, ""))
	if err != nil {
		fmt.Fprintln(os.Stderr, "runsuite:", err)
		os.Exit(2)
	}

	type job struct {
		name string
		ws   []*workloads.Workload
		cfgs []*codegen.EngineConfig
	}
	var jobs []job
	if *suite == "polybench" || *suite == "all" {
		ws := workloads.Polybench()
		if *short {
			ws = workloads.ShortPolybench()
		}
		jobs = append(jobs, job{"polybench", ws, []*codegen.EngineConfig{codegen.Native(), codegen.Chrome()}})
	}
	if *suite == "spec" || *suite == "all" {
		ws := workloads.SPECCPU()
		if *short {
			ws = workloads.ShortSPEC()
		}
		jobs = append(jobs, job{"spec", ws, spec.EngineSet()})
	}
	if len(jobs) == 0 {
		fmt.Fprintf(os.Stderr, "runsuite: unknown suite %q\n", *suite)
		os.Exit(2)
	}

	h := spec.NewHarness()
	h.Degraded = *degraded
	exit := 0
	for _, j := range jobs {
		for _, cfg := range j.cfgs {
			cfg.Fidelity = fid
		}
		before := pipeline.Stats()
		out, err := h.RunSuite(context.Background(), j.ws, j.cfgs)
		var sf *spec.SuiteFailure
		if err != nil && !errors.As(err, &sf) {
			// A strict failure (or a degraded suite the scheduler aborted)
			// has no matrix to report; stop, but still flush and report.
			fmt.Fprintf(os.Stderr, "runsuite: %s: %v\n", j.name, err)
			exit = 1
			break
		}
		ok, rows := 0, len(j.ws)*len(j.cfgs)
		for _, row := range out {
			for _, r := range row {
				if r != nil && r.Err == nil {
					ok++
				}
			}
		}
		fmt.Printf("suite %s: %d/%d runs ok (%d workloads × %d engines) cache: %v\n",
			j.name, ok, rows, len(j.ws), len(j.cfgs), pipeline.Stats().Sub(before))
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
