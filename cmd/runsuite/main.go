// Command runsuite runs the differential workload suites through the run
// pipeline from the command line — the CI fault-smoke entry point. With
// -degraded, individual workload failures (injected via $REPRO_FAULTS,
// watchdog kills via $REPRO_JOB_TIMEOUT / $REPRO_JOB_MAX_INSTS, or real
// bugs) become FAIL rows and a failure summary; the process still exits
// nonzero so CI sees the failure, but every surviving row is validated.
//
// Usage:
//
//	runsuite [-suite polybench|spec|all] [-short] [-degraded]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/codegen"
	"repro/internal/config"
	"repro/internal/pipeline"
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
	addPoly := func() {
		ws := workloads.Polybench()
		if *short {
			ws = workloads.ShortPolybench()
		}
		jobs = append(jobs, job{"polybench", ws, []*codegen.EngineConfig{codegen.Native(), codegen.Chrome()}})
	}
	addSpec := func() {
		ws := workloads.SPECCPU()
		if *short {
			ws = workloads.ShortSPEC()
		}
		jobs = append(jobs, job{"spec", ws, []*codegen.EngineConfig{codegen.Native(), codegen.Chrome(), codegen.Firefox()}})
	}
	switch *suite {
	case "polybench":
		addPoly()
	case "spec":
		addSpec()
	case "all":
		addPoly()
		addSpec()
	default:
		fmt.Fprintf(os.Stderr, "runsuite: unknown suite %q\n", *suite)
		os.Exit(2)
	}

	exit := 0
	for _, j := range jobs {
		for _, cfg := range j.cfgs {
			cfg.Fidelity = fid
		}
		rep, err := workloads.RunDifferential(context.Background(), j.ws, j.cfgs, *degraded)
		if err != nil {
			fmt.Fprintf(os.Stderr, "runsuite: %s: %v\n", j.name, err)
			os.Exit(1)
		}
		ok := rep.Rows - len(rep.Failed)
		fmt.Printf("suite %s: %d/%d runs ok (%d workloads × %d engines) cache: %v\n",
			j.name, ok, rep.Rows, len(j.ws), len(j.cfgs), rep.Cache)
		for _, f := range rep.Failed {
			fmt.Printf("FAIL %s on %s\n", f.Workload, f.Engine)
		}
		if serr := rep.Err(); serr != nil {
			fmt.Fprintf(os.Stderr, "runsuite: %v\n", serr)
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
