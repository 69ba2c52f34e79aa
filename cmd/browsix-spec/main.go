// Command browsix-spec regenerates the paper's tables and figures.
//
// Usage:
//
//	browsix-spec -table 1|2|3|4
//	browsix-spec -fig 1|3a|3b|4|5|6|7|8|9|10
//	browsix-spec -all
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/codegen"
	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/spec"
)

func main() {
	table := flag.String("table", "", "regenerate a table (1-4)")
	fig := flag.String("fig", "", "regenerate a figure (1, 3a, 3b, 4-10)")
	all := flag.Bool("all", false, "regenerate everything")
	cachestats := flag.Bool("cachestats", false, "report per-suite build-cache traffic (memory/disk/miss) on stderr")
	degraded := flag.Bool("degraded", false, "survive individual workload failures: render FAILED rows, report a failure summary, exit nonzero")
	fidelity := flag.String("fidelity", "", "simulation tier: exact or functional (default $REPRO_FIDELITY, else exact)")
	flag.Parse()

	fid, err := codegen.ParseFidelity(config.String(*fidelity, config.EnvFidelity, ""))
	if err != nil {
		fmt.Fprintln(os.Stderr, "browsix-spec:", err)
		os.Exit(2)
	}

	h := spec.NewHarness()
	h.Degraded = *degraded
	exitCode := 0
	reportTotals := func() {}
	if *cachestats {
		reportTotals = func() { fmt.Fprintf(os.Stderr, "browsix-spec: totals %v\n", pipeline.Stats()) }
		defer reportTotals()
	}
	emit := func(s string, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "browsix-spec:", err)
			// os.Exit skips deferred calls; a failing run is exactly when
			// the cache picture matters, so report before exiting.
			reportTotals()
			os.Exit(1)
		}
		fmt.Println(s)
	}

	ctx := context.Background()
	// results runs the named suite of spec.Suites at most once per process.
	results := map[string]*spec.SuiteResults{}
	suite := func(name string) *spec.SuiteResults {
		if res, ok := results[name]; ok {
			return res
		}
		s := spec.SuiteNamed(name)
		before := pipeline.Stats()
		r, err := h.RunSuite(ctx, s.Workloads(false), s.Configs(fid))
		if *cachestats && r != nil {
			fmt.Fprintf(os.Stderr, "browsix-spec: %s suite (%d workloads × %d engines) cache: %v\n",
				name, len(r.Workloads), len(r.Engines), pipeline.Stats().Sub(before))
		}
		if err != nil && r == nil {
			emit("", err)
		}
		if err != nil {
			// Degraded run: results usable, failure summary to stderr,
			// nonzero exit at the end.
			fmt.Fprintln(os.Stderr, "browsix-spec:", err)
			exitCode = 1
		}
		results[name] = r
		return r
	}

	run := func(which string) {
		switch which {
		case "table1", "1":
			emit(spec.Table1(suite("spec")), nil)
		case "table2", "2":
			s, err := h.Table2()
			emit(s, err)
		case "table3", "3":
			emit(spec.Table3(), nil)
		case "table4", "4":
			emit(spec.Table4(suite("spec")), nil)
		case "fig1":
			emit(spec.Fig1(suite("polybench")), nil)
		case "fig3a":
			emit(spec.Fig3(suite("polybench"), "Figure 3a — PolybenchC"), nil)
		case "fig3b":
			emit(spec.Fig3(suite("spec"), "Figure 3b — SPEC CPU"), nil)
		case "fig4":
			emit(spec.Fig4(suite("spec")), nil)
		case "fig5":
			emit(spec.Fig5(suite("spec"), suite("asmjs")), nil)
		case "fig6":
			emit(spec.Fig6(suite("spec"), suite("asmjs")), nil)
		case "fig7":
			s, err := spec.Fig7()
			emit(s, err)
		case "fig8":
			s, err := h.Fig8()
			emit(s, err)
		case "fig9":
			emit(spec.Fig9(suite("spec")), nil)
		case "fig10":
			emit(spec.Fig10(suite("spec")), nil)
		default:
			fmt.Fprintf(os.Stderr, "browsix-spec: unknown selector %q\n", which)
			os.Exit(2)
		}
	}

	switch {
	case *all:
		for _, w := range []string{
			"fig1", "fig3a", "fig3b", "table1", "table2", "fig4",
			"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table3", "table4",
		} {
			run(w)
		}
	case *table != "":
		run("table" + *table)
	case *fig != "":
		run("fig" + *fig)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if exitCode != 0 {
		// os.Exit skips deferred calls; report the cache picture first.
		reportTotals()
		os.Exit(exitCode)
	}
}
