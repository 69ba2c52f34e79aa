//go:build !race

package main

// longRunIters is the loop count of TestServeSmoke's drained run: long
// enough that the run is still in flight when SIGTERM arrives.
const longRunIters = 100_000_000
