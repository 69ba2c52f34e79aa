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
	h.Fidelity = fid
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
	// suite runs one of the harness's suites at most once per process.
	suite := func(run func(context.Context) (*spec.SuiteResults, error)) func() *spec.SuiteResults {
		var res *spec.SuiteResults
		return func() *spec.SuiteResults {
			if res == nil {
				before := pipeline.Stats()
				r, err := run(ctx)
				if *cachestats && r != nil {
					fmt.Fprintf(os.Stderr, "browsix-spec: spec suite (%d workloads × %d engines) cache: %v\n",
						len(r.Workloads), len(r.Engines), pipeline.Stats().Sub(before))
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
				res = r
			}
			return res
		}
	}
	needSpec := suite(h.RunSPEC)
	needPoly := suite(h.RunPolybench)
	needAsm := suite(h.RunAsmJS)

	run := func(which string) {
		switch which {
		case "table1", "1":
			emit(spec.Table1(needSpec()), nil)
		case "table2", "2":
			s, err := h.Table2()
			emit(s, err)
		case "table3", "3":
			emit(spec.Table3(), nil)
		case "table4", "4":
			emit(spec.Table4(needSpec()), nil)
		case "fig1":
			emit(spec.Fig1(needPoly()), nil)
		case "fig3a":
			emit(spec.Fig3(needPoly(), "Figure 3a — PolybenchC"), nil)
		case "fig3b":
			emit(spec.Fig3(needSpec(), "Figure 3b — SPEC CPU"), nil)
		case "fig4":
			emit(spec.Fig4(needSpec()), nil)
		case "fig5":
			emit(spec.Fig5(needSpec(), needAsm()), nil)
		case "fig6":
			emit(spec.Fig6(needSpec(), needAsm()), nil)
		case "fig7":
			s, err := spec.Fig7()
			emit(s, err)
		case "fig8":
			s, err := h.Fig8()
			emit(s, err)
		case "fig9":
			emit(spec.Fig9(needSpec()), nil)
		case "fig10":
			emit(spec.Fig10(needSpec()), nil)
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
