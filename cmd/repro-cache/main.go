// Command repro-cache inspects and garbage-collects the disk-backed
// artifact store (internal/pipeline) that every build path shares. The
// store honours the usual environment: REPRO_CACHE_DIR locates it (or
// disables it with "off"), REPRO_CACHE_MAX_BYTES sets the budget. The tool
// acts on the whole store root — every compiler-fingerprint generation under
// it, the same set the root's one budget and LRU sweep cover — not just
// this binary's own generation, which is empty (the tool never compiles).
//
// Usage:
//
//	repro-cache totals           # store root, entry count and size per
//	                             # generation, budget
//	repro-cache list             # entries oldest-first: generation, size,
//	                             # age, key
//	repro-cache gc [-max bytes]  # explicit eviction pass down to the budget
//	                             # (or -max) and stale temp-file reclamation
//	repro-cache push [-remote URL]           # publish local artifacts to a
//	                                         # shared remote cache
//	repro-cache pull [-remote URL]           # fetch remote artifacts this
//	                                         # store is missing
//	repro-cache remote-totals [-remote URL]  # remote inventory per generation
//
// The remote subcommands talk to a repro-serve /artifact endpoint through
// the same client the build path uses — per-call deadlines, retries,
// sha256 verification of fetched bytes, and the circuit breaker all apply.
// -remote defaults to $REPRO_REMOTE_CACHE.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/pipeline"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "totals"
	}
	switch cmd {
	case "totals":
		runTotals()
	case "list":
		runList()
	case "gc":
		runGC(flag.Args()[1:])
	case "push":
		runPush(flag.Args()[1:])
	case "pull":
		runPull(flag.Args()[1:])
	case "remote-totals":
		runRemoteTotals(flag.Args()[1:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: repro-cache [totals|list|gc [-max bytes]|push|pull|remote-totals [-remote URL]]\n")
	flag.PrintDefaults()
}

// mustStore returns the store root's directory: the parent of this
// binary's generation.
func mustStore() string {
	dir, ok := pipeline.StoreDir()
	if !ok {
		fmt.Fprintln(os.Stderr, "repro-cache: artifact store disabled (REPRO_CACHE_DIR=off or no writable cache dir)")
		os.Exit(1)
	}
	return filepath.Dir(dir)
}

// mustList returns every artifact under the store root, oldest-read first.
func mustList() []pipeline.ArtifactInfo {
	mustStore()
	arts, err := pipeline.ListArtifacts()
	if err != nil {
		fatal(err)
	}
	return arts
}

func runTotals() {
	fmt.Printf("store:     %s\n", mustStore())
	printInventory(pipeline.Inventory(mustList(), false))
	fmt.Printf("budget:    %s\n", human(pipeline.StoreBudget()))
}

func runList() {
	arts := mustList()
	now := time.Now()
	fmt.Printf("%-18s %-10s %-12s %s\n", "generation", "size", "last-used", "key")
	for _, a := range arts {
		fmt.Printf("%-18s %-10s %-12s %s\n", a.Generation, human(a.Size), age(now.Sub(a.ModTime)), a.Key)
	}
	fmt.Printf("(%d artifacts, oldest first — the order an eviction sweep removes them)\n", len(arts))
}

func runGC(args []string) {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	max := fs.Int64("max", 0, "target size in bytes (default: the configured budget)")
	fs.Parse(args)
	mustStore()
	removed, freed, err := pipeline.GCStore(*max)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("removed %d artifacts, freed %s\n", removed, human(freed))
}

// mustRemote resolves the remote cache URL (flag > $REPRO_REMOTE_CACHE)
// and builds the shared verified client.
func mustRemote(args []string, sub string) (*pipeline.Remote, []string) {
	fs := flag.NewFlagSet(sub, flag.ExitOnError)
	remote := fs.String("remote", "", "remote cache base URL (default $"+config.EnvRemoteCache+")")
	fs.Parse(args)
	base := config.RemoteCache(*remote)
	if base == "" {
		fmt.Fprintf(os.Stderr, "repro-cache %s: no remote cache (set -remote or $%s)\n", sub, config.EnvRemoteCache)
		os.Exit(1)
	}
	return pipeline.NewRemote(base), fs.Args()
}

func runPush(args []string) {
	r, _ := mustRemote(args, "push")
	arts := mustList()
	ctx := context.Background()
	var pushed, failed int
	var bytes int64
	gens := map[string]bool{}
	for _, a := range arts {
		gens[a.Generation] = true
		data, err := pipeline.ReadArtifact(a.Generation, a.Key)
		if err == nil {
			err = r.Put(ctx, a.Generation, a.Key, data)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "repro-cache push: %s/%s: %v\n", a.Generation, a.Key, err)
			continue
		}
		pushed++
		bytes += a.Size
	}
	fmt.Printf("pushed %d artifacts (%s) across %d generations, %d failed (breaker=%s)\n",
		pushed, human(bytes), len(gens), failed, r.Breaker())
	if failed > 0 {
		os.Exit(1)
	}
}

func runPull(args []string) {
	r, _ := mustRemote(args, "pull")
	mustStore()
	ctx := context.Background()
	inv, err := r.Totals(ctx, true)
	if err != nil {
		fatal(err)
	}
	var pulled, skipped, failed int
	var bytes int64
	for fp, info := range inv.Fingerprints {
		for _, key := range info.Keys {
			if pipeline.HasArtifact(fp, key) {
				skipped++
				continue
			}
			n, err := r.Pull(ctx, fp, key)
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "repro-cache pull: %q/%q: %v\n", fp, key, err)
				continue
			}
			pulled++
			bytes += int64(n)
		}
	}
	fmt.Printf("pulled %d artifacts (%s), %d already present, %d failed (breaker=%s)\n",
		pulled, human(bytes), skipped, failed, r.Breaker())
	if failed > 0 {
		os.Exit(1)
	}
}

func runRemoteTotals(args []string) {
	r, _ := mustRemote(args, "remote-totals")
	inv, err := r.Totals(context.Background(), false)
	if err != nil {
		fatal(err)
	}
	printInventory(inv)
}

// printInventory prints an inventory's totals and its share per generation.
func printInventory(inv pipeline.RemoteTotals) {
	fmt.Printf("artifacts: %d\n", inv.Count)
	fmt.Printf("size:      %s\n", human(inv.Bytes))
	fps := make([]string, 0, len(inv.Fingerprints))
	for fp := range inv.Fingerprints {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		info := inv.Fingerprints[fp]
		fmt.Printf("  %s: %d artifacts, %s\n", fp, info.Count, human(info.Bytes))
	}
}

// human renders a byte count with a binary-prefix unit.
func human(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// age renders a duration coarsely (the LRU clock only needs a rough scale).
func age(d time.Duration) string {
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%ds", int(d.Seconds()))
	case d < time.Hour:
		return fmt.Sprintf("%dm", int(d.Minutes()))
	case d < 24*time.Hour:
		return fmt.Sprintf("%dh", int(d.Hours()))
	}
	return fmt.Sprintf("%dd", int(d.Hours()/24))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro-cache:", err)
	os.Exit(1)
}
