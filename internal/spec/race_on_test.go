//go:build race

package spec_test

// degradedSpins is the outer loop count of degradedSrc. A
// race-instrumented build simulates about ten times slower, so that at 500
// the rows expected to complete outlast the test's 2 s watchdog. At 40 a
// run retires 4.4M instructions natively and 6.8M on chrome: still more
// than two watchdog poll intervals (kernel.DefaultPollInterval, 2M), so
// the killed row still dies at a poll with the benchmark's counters.
const degradedSpins = 40
