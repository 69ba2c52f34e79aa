//go:build race

package main

// longRunIters is the loop count of TestServeSmoke's drained run. A
// race-instrumented daemon simulates about ten times slower, so the run
// shrinks by as much and still outlasts the drain.
const longRunIters = 10_000_000
