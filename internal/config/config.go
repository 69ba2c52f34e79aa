// Package config is the single registry for the reproduction's runtime
// knobs. Every `$REPRO_*` environment variable is named here exactly once,
// every parser for a knob's value lives here (except the fidelity tier's:
// the Fidelity type is codegen's, so codegen.ParseFidelity parses it), and
// every layer that accepts the same knob from more than one source (a CLI
// flag, the environment, an HTTP request field) resolves it through the
// same rule:
//
//	flag > environment > default
//
// The packages that consume a knob (sched's token budget, pipeline's
// artifact store and watchdog, codegen's fidelity tier, the repro-serve
// daemon) keep their own semantics — config only owns names, parsing, and
// precedence, so a knob spelled on the command line, exported in CI, or
// carried in a pipeline.Request can never drift into three dialects.
//
// config is a leaf package (standard library only) so that every layer,
// including internal/sched underneath the compiler, can import it without
// cycles.
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Environment knob names. These are the canonical spellings; consumer
// packages re-export aliases where their public API already named them.
const (
	// EnvFidelity selects the simulation tier (exact or functional; see
	// codegen.ParseFidelity).
	EnvFidelity = "REPRO_FIDELITY"

	// EnvCacheDir locates the disk artifact store ("off", "0", "none"
	// disable it); EnvCacheMaxBytes bounds its size; EnvCacheSummary names
	// a file per-process cache totals are appended to for CI.
	EnvCacheDir      = "REPRO_CACHE_DIR"
	EnvCacheMaxBytes = "REPRO_CACHE_MAX_BYTES"
	EnvCacheSummary  = "REPRO_CACHE_SUMMARY"

	// EnvSchedTokens overrides the process-wide scheduler budget's
	// capacity (default GOMAXPROCS).
	EnvSchedTokens = "REPRO_SCHED_TOKENS"

	// EnvJobTimeout / EnvJobMaxInsts arm the per-job watchdog: a wall-clock
	// deadline (a time.Duration string) and a retired-instruction ceiling.
	EnvJobTimeout  = "REPRO_JOB_TIMEOUT"
	EnvJobMaxInsts = "REPRO_JOB_MAX_INSTS"

	// EnvFaults arms deterministic fault-injection rules (internal/fault's
	// site[@match]=kind[:count][:arg] grammar).
	EnvFaults = "REPRO_FAULTS"

	// EnvServeAddr / EnvServeTenants / EnvServeQueue configure the
	// repro-serve daemon: listen address, per-tenant fairness weights
	// ("alice=4,bob=1"), and the admission queue depth.
	EnvServeAddr    = "REPRO_SERVE_ADDR"
	EnvServeTenants = "REPRO_SERVE_TENANTS"
	EnvServeQueue   = "REPRO_SERVE_QUEUE"

	// EnvRemoteCache points the artifact store's remote tier at a shared
	// cache (a repro-serve /artifact endpoint); empty or "off" disables it.
	// EnvRemoteTimeout bounds each remote call; the breaker knobs tune the
	// circuit breaker that contains a flaky or dead remote (consecutive
	// failed calls before the breaker opens, and how long it stays open
	// before admitting a half-open probe).
	EnvRemoteCache           = "REPRO_REMOTE_CACHE"
	EnvRemoteTimeout         = "REPRO_REMOTE_TIMEOUT"
	EnvRemoteBreakerFails    = "REPRO_REMOTE_BREAKER_FAILS"
	EnvRemoteBreakerCooldown = "REPRO_REMOTE_BREAKER_COOLDOWN"

	// EnvRegenWeights gates the skipped-by-default test that re-measures
	// the workloads.expectedInsts dispatch table on the functional tier.
	EnvRegenWeights = "REPRO_REGEN_WEIGHTS"

	// EnvFuzzSeeds / EnvFuzzSeed configure the differential wasm fuzzer
	// (cmd/wasmfuzz and the CI fuzz-smoke job): how many seeds one run
	// covers and the first seed of the range.
	EnvFuzzSeeds = "REPRO_FUZZ_SEEDS"
	EnvFuzzSeed  = "REPRO_FUZZ_SEED"
)

// Remote-tier defaults. The timeout is deliberately short: a remote hit
// saves a compile (tens of ms to seconds), so waiting longer than ~2s for
// the network is already a loss, and a hung remote must never stall a
// build longer than this per attempt.
const (
	DefaultRemoteTimeout         = 2 * time.Second
	DefaultRemoteBreakerFails    = 3
	DefaultRemoteBreakerCooldown = 15 * time.Second
)

// String resolves a string knob: an explicit flag value wins, then the
// environment, then the default.
func String(flagVal, envName, def string) string {
	if flagVal != "" {
		return flagVal
	}
	if v := os.Getenv(envName); v != "" {
		return v
	}
	return def
}

// Duration is a time.Duration that serializes as the human spelling
// ("300ms", "2m") instead of a bare nanosecond count, so wire requests and
// golden fixtures stay readable. Unmarshalling accepts both forms.
type Duration time.Duration

// MarshalJSON encodes the duration as its String spelling.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string ("30s") or a number of
// nanoseconds (what a naive encoder of time.Duration produces).
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		dd, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("config: %q is not a duration: %w", x, err)
		}
		*d = Duration(dd)
		return nil
	case float64:
		*d = Duration(time.Duration(x))
		return nil
	}
	return fmt.Errorf("config: duration must be a string or nanosecond count, got %T", v)
}

// Std returns the duration as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Limits are the per-job watchdog bounds: a wall-clock deadline and a
// retired-instruction ceiling. Zero fields disable the corresponding limit.
// Limits travel on pipeline.Request, so a serving client can bound one run
// tighter than the process default.
type Limits struct {
	Timeout  Duration `json:"timeout,omitempty"`
	MaxInsts uint64   `json:"max_insts,omitempty"`
}

// IsZero reports whether no limit is armed.
func (l Limits) IsZero() bool { return l.Timeout == 0 && l.MaxInsts == 0 }

// ParseJobTimeout parses an EnvJobTimeout value: empty disables, otherwise
// a non-negative time.Duration string.
func ParseJobTimeout(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("config: %s=%q is not a duration", EnvJobTimeout, v)
	}
	return d, nil
}

// ParseJobMaxInsts parses an EnvJobMaxInsts value: empty disables,
// otherwise a non-negative instruction count.
func ParseJobMaxInsts(v string) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("config: %s=%q is not an instruction count", EnvJobMaxInsts, v)
	}
	return n, nil
}

// LimitsFromEnv reads the watchdog knobs. Each malformed knob is reported
// in errs and its limit left disabled, mirroring the watchdog's
// warn-and-run-unguarded behavior (the caller decides where the warning
// goes).
func LimitsFromEnv() (l Limits, errs []error) {
	d, err := ParseJobTimeout(os.Getenv(EnvJobTimeout))
	if err != nil {
		errs = append(errs, err)
	} else {
		l.Timeout = Duration(d)
	}
	n, err := ParseJobMaxInsts(os.Getenv(EnvJobMaxInsts))
	if err != nil {
		errs = append(errs, err)
	} else {
		l.MaxInsts = n
	}
	return l, errs
}

// ParseCacheMaxBytes parses an EnvCacheMaxBytes value. Empty selects the
// default (ok with n == 0); anything that is not a positive integer is an
// error — the caller decides whether to warn, but never silently treats a
// typo as "use the default".
func ParseCacheMaxBytes(v string) (n int64, err error) {
	if v == "" {
		return 0, nil
	}
	n, err = strconv.ParseInt(v, 10, 64)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("config: %s=%q is not a positive byte count", EnvCacheMaxBytes, v)
	}
	return n, nil
}

// ParseSchedTokens parses an EnvSchedTokens value. Empty selects the
// default (ok with n == 0); anything that is not a positive integer is an
// error.
func ParseSchedTokens(v string) (n int, err error) {
	if v == "" {
		return 0, nil
	}
	n, err = strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("config: %s=%q is not a positive integer", EnvSchedTokens, v)
	}
	return n, nil
}

// ParseRemoteTimeout parses an EnvRemoteTimeout value: empty selects the
// default (signaled as 0), otherwise a positive time.Duration string.
func ParseRemoteTimeout(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("config: %s=%q is not a positive duration", EnvRemoteTimeout, v)
	}
	return d, nil
}

// ParseBreakerFails parses an EnvRemoteBreakerFails value: empty selects
// the default (signaled as 0), otherwise a positive failure count.
func ParseBreakerFails(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("config: %s=%q is not a positive integer", EnvRemoteBreakerFails, v)
	}
	return n, nil
}

// ParseBreakerCooldown parses an EnvRemoteBreakerCooldown value: empty
// selects the default (signaled as 0), otherwise a positive duration.
func ParseBreakerCooldown(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("config: %s=%q is not a positive duration", EnvRemoteBreakerCooldown, v)
	}
	return d, nil
}

// ParseTenantWeights parses an EnvServeTenants value: a comma-separated
// list of name=weight pairs with positive integer weights ("alice=4,bob=1").
// Tenants not listed default to weight 1 at the consumer. Empty input is an
// empty (nil) map.
func ParseTenantWeights(v string) (map[string]int, error) {
	if v == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, pair := range strings.Split(v, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		name = strings.TrimSpace(name)
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if !ok || name == "" || err != nil || w < 1 {
			return nil, fmt.Errorf("config: %s entry %q is not name=positive-weight", EnvServeTenants, pair)
		}
		out[name] = w
	}
	return out, nil
}

// ParseFuzzSeeds parses an EnvFuzzSeeds value: empty selects the default
// (signaled as 0), otherwise a positive seed count.
func ParseFuzzSeeds(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("config: %s=%q is not a positive seed count", EnvFuzzSeeds, v)
	}
	return n, nil
}

// ParseFuzzSeed parses an EnvFuzzSeed value: empty selects the default
// (signaled as 0), otherwise a positive starting seed. Seed 0 is reserved
// as the "unset" sentinel so flag/env/default resolution can distinguish it.
func ParseFuzzSeed(v string) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("config: %s=%q is not a positive seed", EnvFuzzSeed, v)
	}
	return n, nil
}

// FormatTenantWeights renders a weight map back to the knob syntax in
// deterministic (sorted) order; the inverse of ParseTenantWeights.
func FormatTenantWeights(w map[string]int) string {
	names := make([]string, 0, len(w))
	for n := range w {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, w[n])
	}
	return strings.Join(parts, ",")
}
