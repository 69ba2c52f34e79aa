// Command repro-serve is the compile-and-run daemon: it accepts
// pipeline.Request JSON over HTTP, compiles modules through the shared
// content-addressed build cache, executes them under the scheduler budget,
// and streams results back. Identical concurrent requests trigger exactly
// one compile (the pipeline's singleflight cache), admission is weighted
// fair per tenant, and SIGTERM/SIGINT drain gracefully: in-flight requests
// return their results before the process exits 0.
//
// Usage:
//
//	repro-serve [-addr :8080] [-slots N] [-queue N] [-tenants alice=4,bob=1]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/sched"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	slots := flag.Int("slots", sched.Shared().Capacity(), "concurrent run slots; defaults to the scheduler budget capacity")
	queueCap := flag.Int("queue", 64, "admission queue depth across tenants")
	tenants := flag.String("tenants", "", "tenant weights, e.g. alice=4,bob=1 (unlisted tenants weigh 1)")
	flag.Parse()

	if *slots < 1 {
		log.Fatalf("repro-serve: -slots %d: want a positive integer", *slots)
	}
	if *queueCap < 0 {
		log.Fatalf("repro-serve: -queue %d: want a non-negative integer", *queueCap)
	}
	weights, err := config.ParseTenantWeights(*tenants)
	if err != nil {
		log.Fatalf("repro-serve: %v", err)
	}

	srv := newServer(*slots, *queueCap, weights)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGTERM/SIGINT begin a graceful drain: stop admitting, let in-flight
	// requests return their results, then exit 0. A second signal kills the
	// process the default way (the NotifyContext registration is undone
	// once the first fires).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("repro-serve: listening on %s (slots=%d queue=%d tenants=%s)",
		*addr, *slots, *queueCap, config.FormatTenantWeights(weights))

	select {
	case err := <-errc:
		log.Fatalf("repro-serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("repro-serve: draining")
	srv.drain()
	// If this daemon is itself a worker against a remote cache, let its
	// trailing artifact publishes reach the fleet before exiting.
	if !pipeline.RemoteFlush(5 * time.Second) {
		fmt.Fprintf(os.Stderr, "repro-serve: remote publish queue did not drain\n")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "repro-serve: drain: %v\n", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "repro-serve: %v\n", err)
		os.Exit(1)
	}
	log.Printf("repro-serve: drained, exiting")
}
