// Package config is the single registry for the reproduction's runtime
// knobs. Every `$REPRO_*` environment variable is named here exactly once,
// and every knob value is parsed here by one of two rules — ParseInt, an
// integer with a lower bound, and ParseDuration, a duration with a lower
// bound — whose errors name the knob and the value (the fidelity tier is
// the exception: the Fidelity type is codegen's, so codegen.ParseFidelity
// parses it). A knob that has both a flag and an env form resolves through
// String:
//
//	flag > environment > default
//
// The packages that consume a knob (pipeline's artifact store, remote tier
// and watchdog, codegen's fidelity tier, the fuzzer) keep their own
// semantics; config owns only names, parsing, and precedence, so a knob
// spelled on the command line, exported in CI, or carried in a
// pipeline.Request cannot drift into three dialects. Host tuning that
// nothing sets is not a knob: it is a constant in the package that uses it.
//
// config is a leaf package (standard library only) so that every layer can
// import it without cycles.
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

	// EnvJobTimeout / EnvJobMaxInsts arm the per-job watchdog: a wall-clock
	// deadline (a time.Duration string) and a retired-instruction ceiling.
	EnvJobTimeout  = "REPRO_JOB_TIMEOUT"
	EnvJobMaxInsts = "REPRO_JOB_MAX_INSTS"

	// EnvFaults arms deterministic fault-injection rules (internal/fault's
	// site[@match]=kind[:count][:arg] grammar).
	EnvFaults = "REPRO_FAULTS"

	// EnvRemoteCache points the artifact store's remote tier at a shared
	// cache (a repro-serve /artifact endpoint); empty or "off" disables it.
	// EnvRemoteTimeout bounds each remote call.
	EnvRemoteCache   = "REPRO_REMOTE_CACHE"
	EnvRemoteTimeout = "REPRO_REMOTE_TIMEOUT"

	// EnvRegenWeights gates the skipped-by-default test that re-measures
	// the workloads.expectedInsts dispatch table on the functional tier.
	EnvRegenWeights = "REPRO_REGEN_WEIGHTS"

	// EnvFuzzSeeds / EnvFuzzSeed configure the differential wasm fuzzer
	// (cmd/wasmfuzz and the CI fuzz-smoke job): how many seeds one run
	// covers and the first seed of the range.
	EnvFuzzSeeds = "REPRO_FUZZ_SEEDS"
	EnvFuzzSeed  = "REPRO_FUZZ_SEED"
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

// ParseInt parses the value v of the integer knob name: empty selects def,
// otherwise a base-10 integer no smaller than lo, which must not be
// negative. A malformed value is an error naming the knob; the caller
// decides whether to warn or refuse, but never silently treats a typo as
// "use the default".
func ParseInt[T int | int64 | uint64](name, v string, lo, def T) (T, error) {
	if v == "" {
		return def, nil
	}
	u, err := strconv.ParseUint(v, 10, 64)
	if n := T(u); err == nil && uint64(n) == u && n >= lo {
		return n, nil
	}
	return 0, fmt.Errorf("config: %s=%q is not an integer ≥ %d", name, v, lo)
}

// ParseDuration parses the value v of the duration knob name: empty
// selects def, otherwise a time.Duration string no shorter than lo. A
// malformed value is an error naming the knob, as for ParseInt.
func ParseDuration(name, v string, lo, def time.Duration) (time.Duration, error) {
	if v == "" {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < lo {
		return 0, fmt.Errorf("config: %s=%q is not a duration ≥ %v", name, v, lo)
	}
	return d, nil
}

// Off reports whether the value of a location knob (EnvCacheDir,
// EnvRemoteCache) switches its layer off: "off", "0" or "none".
func Off(v string) bool { return v == "off" || v == "0" || v == "none" }

// RemoteCache resolves the remote artifact cache's base URL: flagVal, else
// EnvRemoteCache. It returns "" when the tier is disabled: unset, or Off.
func RemoteCache(flagVal string) string {
	if v := String(flagVal, EnvRemoteCache, ""); !Off(v) {
		return v
	}
	return ""
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

// LimitsFromEnv reads the watchdog knobs. Each malformed knob is reported
// in errs and its limit left disabled, mirroring the watchdog's
// warn-and-run-unguarded behavior (the caller decides where the warning
// goes).
func LimitsFromEnv() (l Limits, errs []error) {
	d, err := ParseDuration(EnvJobTimeout, os.Getenv(EnvJobTimeout), 0, 0)
	if err != nil {
		errs = append(errs, err)
	} else {
		l.Timeout = Duration(d)
	}
	n, err := ParseInt[uint64](EnvJobMaxInsts, os.Getenv(EnvJobMaxInsts), 0, 0)
	if err != nil {
		errs = append(errs, err)
	} else {
		l.MaxInsts = n
	}
	return l, errs
}

// ParseTenantWeights parses repro-serve's -tenants value: a comma-separated
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
			return nil, fmt.Errorf("config: -tenants entry %q is not name=positive-weight", pair)
		}
		out[name] = w
	}
	return out, nil
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
