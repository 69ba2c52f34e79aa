// Command wasmrun compiles and runs a mini-C program under the Browsix-Wasm
// kernel, printing its output and the perf counters of the run. It is the
// CLI face of the same pipeline.Request the repro-serve daemon accepts over
// HTTP: flags resolve into one Request and pipeline.Do runs it.
//
// Usage:
//
//	wasmrun [-engine chrome] file.c [args...]
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
)

func main() {
	engine := flag.String("engine", "chrome", "engine: "+strings.Join(codegen.EngineNames(), ", "))
	fidelity := flag.String("fidelity", "", "simulation tier: exact or functional (default $REPRO_FIDELITY, else exact)")
	counters := flag.Bool("counters", true, "print perf counters after the run")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: wasmrun [-engine E] file.c [args...]")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "wasmrun:", err)
		os.Exit(1)
	}
	cfg, err := codegen.Engine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wasmrun:", err)
		os.Exit(2)
	}
	if cfg.Fidelity, err = codegen.ParseFidelity(config.String(*fidelity, config.EnvFidelity, "")); err != nil {
		fmt.Fprintln(os.Stderr, "wasmrun:", err)
		os.Exit(2)
	}

	res, err := pipeline.Do(context.Background(), &pipeline.Request{
		Module: string(src),
		Config: cfg,
		Argv:   append([]string{flag.Arg(0)}, flag.Args()[1:]...),
	})
	if err != nil {
		var te *pipeline.TimeoutError
		if errors.As(err, &te) {
			// A watchdog kill is a result, not a crash: report the partial
			// counters so the user sees how far the run got.
			fmt.Fprintf(os.Stderr, "wasmrun: %v\nwasmrun: partial counters at kill:\n%s\n", te, te.Partial.String())
			os.Exit(124)
		}
		fmt.Fprintln(os.Stderr, "wasmrun:", err)
		os.Exit(1)
	}
	// A one-shot CLI exits right after its single build: give the async
	// remote publish (if a remote cache is armed) a moment to land.
	pipeline.RemoteFlush(2 * time.Second)
	fmt.Print(res.Stdout)
	if *counters {
		c := res.Counters
		fmt.Fprintf(os.Stderr, "---\nengine=%s exit=%d time=%.3fms\n%s\nbrowsix-share=%.3f%%\n",
			cfg.Name, res.ExitCode, c.Seconds()*1000, c.String(), res.Proc.BrowsixShare()*100)
	}
	os.Exit(res.ExitCode)
}
