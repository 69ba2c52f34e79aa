// Command wasmfuzz is the differential wasm fuzzing loop: it generates
// seeded structured modules (internal/fuzzgen), runs each through the
// reference interpreter and the full engine × dispatch × fidelity candidate
// matrix, and reports any divergence. With -minimize (the default) a
// diverging module is shrunk to a minimal reproducer and written into the
// committed regression corpus, where TestCorpusReplay replays it on every
// `go test ./...` forever after.
//
// Usage:
//
//	wasmfuzz [-seeds N] [-seed S] [-engines native,chrome] [-minimize=false]
//
// Seed count and starting seed also resolve from $REPRO_FUZZ_SEEDS and
// $REPRO_FUZZ_SEED (flag > environment > default, like every other knob).
// Exit status: 0 all seeds agree, 1 divergence found, 2 usage or
// infrastructure error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/config"
	"repro/internal/fuzzgen"
	"repro/internal/wasm"
)

const (
	defaultSeeds = 100
	defaultSeed  = 1
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("wasmfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seedsFlag := fs.String("seeds", "", fmt.Sprintf("number of seeds to run (default $%s, else %d)", config.EnvFuzzSeeds, defaultSeeds))
	seedFlag := fs.String("seed", "", fmt.Sprintf("first seed of the range (default $%s, else %d)", config.EnvFuzzSeed, defaultSeed))
	enginesFlag := fs.String("engines", "", "comma-separated engines to oracle (default "+strings.Join(fuzzgen.DefaultEngines(), ",")+")")
	minimize := fs.Bool("minimize", true, "shrink a diverging module and write it into -corpus")
	corpusDir := fs.String("corpus", filepath.Join("internal", "fuzzgen", "testdata", "corpus"),
		"directory minimized reproducers are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	seeds, err := config.ParseInt(config.EnvFuzzSeeds, config.String(*seedsFlag, config.EnvFuzzSeeds, ""), 1, defaultSeeds)
	if err != nil {
		fmt.Fprintln(stderr, "wasmfuzz:", err)
		return 2
	}
	first, err := config.ParseInt[uint64](config.EnvFuzzSeed, config.String(*seedFlag, config.EnvFuzzSeed, ""), 1, defaultSeed)
	if err != nil {
		fmt.Fprintln(stderr, "wasmfuzz:", err)
		return 2
	}
	cfg := fuzzgen.DiffConfig{Engines: parseEngines(*enginesFlag)}

	ctx := context.Background()
	divergences, skips := 0, 0
	for i := 0; i < seeds; i++ {
		seed := first + uint64(i)
		opt := fuzzgen.Options{Traps: seed%2 == 0}
		v, err := fuzzgen.RunSeed(ctx, seed, opt, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "wasmfuzz: seed %d: oracle infrastructure error: %v\n", seed, err)
			return 2
		}
		switch {
		case v.Skipped != "":
			skips++
			fmt.Fprintf(stderr, "wasmfuzz: seed %d skipped: %s\n", seed, v.Skipped)
		case !v.OK():
			divergences++
			fmt.Fprintf(stdout, "wasmfuzz: DIVERGENCE at seed %d: %s\n", seed, v.Divergence)
			if *minimize {
				path, err := minimizeAndCommit(ctx, seed, opt, cfg, v, *corpusDir)
				if err != nil {
					fmt.Fprintf(stderr, "wasmfuzz: seed %d: minimizing: %v\n", seed, err)
				} else {
					fmt.Fprintf(stdout, "wasmfuzz: minimized reproducer written to %s\n", path)
				}
			}
		}
		if (i+1)%50 == 0 || i+1 == seeds {
			fmt.Fprintf(stderr, "wasmfuzz: %d/%d seeds, %d divergences, %d skips\n", i+1, seeds, divergences, skips)
		}
	}
	if divergences > 0 {
		fmt.Fprintf(stdout, "wasmfuzz: %d of %d seeds diverged\n", divergences, seeds)
		return 1
	}
	fmt.Fprintf(stdout, "wasmfuzz: all %d seeds agree across the engine matrix\n", seeds)
	return 0
}

// parseEngines splits the -engines flag; empty means the oracle's default
// matrix (signaled to DiffConfig as nil).
func parseEngines(v string) []string {
	if v == "" {
		return nil
	}
	var out []string
	for _, e := range strings.Split(v, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// minimizeAndCommit shrinks the diverging module for seed while the same
// variant and field keep diverging, then writes the minimized bytes into the
// corpus under their content-addressed name.
func minimizeAndCommit(ctx context.Context, seed uint64, opt fuzzgen.Options, cfg fuzzgen.DiffConfig, v *fuzzgen.Verdict, dir string) (string, error) {
	orig := v.Divergence
	small := fuzzgen.Shrink(fuzzgen.Generate(seed, opt), func(c *wasm.Module) bool {
		vv, err := fuzzgen.Diff(ctx, c, cfg)
		return err == nil && vv.Divergence != nil &&
			vv.Divergence.Variant == orig.Variant && vv.Divergence.Field == orig.Field
	})
	return fuzzgen.WriteCorpus(dir, wasm.Encode(small))
}
