package config

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestStringResolution pins the knob precedence: flag > env > default.
func TestStringResolution(t *testing.T) {
	const env = "REPRO_TEST_KNOB"
	t.Setenv(env, "from-env")
	if got := String("from-flag", env, "def"); got != "from-flag" {
		t.Errorf("flag must win: got %q", got)
	}
	if got := String("", env, "def"); got != "from-env" {
		t.Errorf("env must beat default: got %q", got)
	}
	t.Setenv(env, "")
	if got := String("", env, "def"); got != "def" {
		t.Errorf("default must apply last: got %q", got)
	}
}

// TestDurationJSON pins both accepted wire spellings and the canonical
// output form.
func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Duration(300 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"300ms"` {
		t.Errorf("marshal = %s, want \"300ms\"", b)
	}
	for _, in := range []string{`"300ms"`, `300000000`} {
		var d Duration
		if err := json.Unmarshal([]byte(in), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", in, err)
		}
		if d.Std() != 300*time.Millisecond {
			t.Errorf("unmarshal %s = %v, want 300ms", in, d.Std())
		}
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"yesterday"`), &d); err == nil {
		t.Error("malformed duration must not unmarshal")
	}
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Error("non-string non-number duration must not unmarshal")
	}
}

// TestLimitsFromEnv pins the watchdog knob parsing, including the
// warn-and-disable contract for malformed values.
func TestLimitsFromEnv(t *testing.T) {
	t.Setenv(EnvJobTimeout, "250ms")
	t.Setenv(EnvJobMaxInsts, "1000000")
	l, errs := LimitsFromEnv()
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if l.Timeout.Std() != 250*time.Millisecond || l.MaxInsts != 1000000 {
		t.Errorf("limits = %+v", l)
	}
	if l.IsZero() {
		t.Error("armed limits must not be zero")
	}

	t.Setenv(EnvJobTimeout, "soon")
	t.Setenv(EnvJobMaxInsts, "")
	l, errs = LimitsFromEnv()
	if len(errs) != 1 {
		t.Fatalf("want one error for the malformed timeout, got %v", errs)
	}
	if !l.IsZero() {
		t.Errorf("malformed knob must leave its limit disabled, got %+v", l)
	}
}

// intKnob and durKnob bind a parse rule to one knob's bound and default.
func intKnob[T int | int64 | uint64](name string, lo, def T) func(string) (any, error) {
	return func(v string) (any, error) { return ParseInt(name, v, lo, def) }
}

func durKnob(name string, lo, def time.Duration) func(string) (any, error) {
	return func(v string) (any, error) { return ParseDuration(name, v, lo, def) }
}

// knobCase is one knob's parse contract at the bound and default its
// consumer passes: empty selects def, good parses to want, and each
// malformed value is an error.
type knobCase struct {
	name      string
	parse     func(string) (any, error)
	def       any
	good      string
	want      any
	malformed []string
}

// checkKnobs pins each case's contract, including that every error names
// the knob and the value.
func checkKnobs(t *testing.T, cases ...knobCase) {
	t.Helper()
	for _, tc := range cases {
		if got, err := tc.parse(""); err != nil || got != tc.def {
			t.Errorf("%s empty = %v, %v; want the default %v", tc.name, got, err, tc.def)
		}
		if got, err := tc.parse(tc.good); err != nil || got != tc.want {
			t.Errorf("%s=%q = %v, %v; want %v", tc.name, tc.good, got, err, tc.want)
		}
		for _, bad := range tc.malformed {
			_, err := tc.parse(bad)
			if err == nil {
				t.Errorf("%s=%q parsed; want an error", tc.name, bad)
			} else if msg := err.Error(); !strings.Contains(msg, tc.name) || !strings.Contains(msg, strconv.Quote(bad)) {
				t.Errorf("%s=%q: error %q does not name the knob and the value", tc.name, bad, msg)
			}
		}
	}
}

// TestParseKnobs pins the watchdog knobs, whose zero default disarms the
// limit.
func TestParseKnobs(t *testing.T) {
	checkKnobs(t,
		knobCase{EnvJobTimeout, durKnob(EnvJobTimeout, 0, 0), time.Duration(0),
			"250ms", 250 * time.Millisecond, []string{"soon", "-1s", "10"}},
		knobCase{EnvJobMaxInsts, intKnob[uint64](EnvJobMaxInsts, 0, 0), uint64(0),
			"1000000", uint64(1000000), []string{"-1", "many", "1e6", " 4"}},
	)
}

// TestParsePositiveKnobs pins the cache budget: positives are honored,
// everything else (zero, negative, suffixed, overflowing) errors.
func TestParsePositiveKnobs(t *testing.T) {
	checkKnobs(t,
		knobCase{EnvCacheMaxBytes, intKnob[int64](EnvCacheMaxBytes, 1, 512<<20), int64(512 << 20),
			"1048576", int64(1 << 20), []string{"0", "-5", "2GB", "lots", "9223372036854775808"}},
	)
}

// TestParseRemoteKnobs pins the remote-tier timeout: non-positive or
// unit-less values are errors naming the knob — the env reader warns once
// and falls back to the default rather than disabling the tier.
func TestParseRemoteKnobs(t *testing.T) {
	checkKnobs(t,
		knobCase{EnvRemoteTimeout, durKnob(EnvRemoteTimeout, time.Nanosecond, 2*time.Second), 2 * time.Second,
			"750ms", 750 * time.Millisecond, []string{"0", "-1s", "fast", "10"}},
	)
}

// TestParseFuzzKnobs pins the fuzzer knobs: seed count and first seed are
// positive integers, and zero, negative, fractional or overflowing values
// are errors naming the knob.
func TestParseFuzzKnobs(t *testing.T) {
	checkKnobs(t,
		knobCase{EnvFuzzSeeds, intKnob[int](EnvFuzzSeeds, 1, 100), 100,
			"300", 300, []string{"0", "-2", "lots", "4.5"}},
		knobCase{EnvFuzzSeed, intKnob[uint64](EnvFuzzSeed, 1, 1), uint64(1),
			"7", uint64(7), []string{"0", "-2", "lots", "18446744073709551616"}},
	)
}

// TestRemoteCache pins the remote tier's switch: the flag beats the env,
// and unset, "off", "0" and "none" all disable the tier.
func TestRemoteCache(t *testing.T) {
	const url = "http://127.0.0.1:8124"
	for _, v := range []string{"", "off", "0", "none"} {
		t.Setenv(EnvRemoteCache, v)
		if got := RemoteCache(""); got != "" {
			t.Errorf("%s=%q resolves to %q; want disabled", EnvRemoteCache, v, got)
		}
	}
	if got := RemoteCache(url); got != url {
		t.Errorf("flag resolves to %q; want %q", got, url)
	}
	t.Setenv(EnvRemoteCache, url)
	if got := RemoteCache(""); got != url {
		t.Errorf("env resolves to %q; want %q", got, url)
	}
	if got := RemoteCache("off"); got != "" {
		t.Errorf("-remote off resolves to %q; want disabled", got)
	}
}

// TestTenantWeights pins the fairness-weight grammar and its round-trip.
func TestTenantWeights(t *testing.T) {
	w, err := ParseTenantWeights("alice=4, bob=1")
	if err != nil {
		t.Fatal(err)
	}
	if w["alice"] != 4 || w["bob"] != 1 || len(w) != 2 {
		t.Errorf("weights = %v", w)
	}
	if got := FormatTenantWeights(w); got != "alice=4,bob=1" {
		t.Errorf("round-trip = %q", got)
	}
	for _, bad := range []string{"alice", "alice=0", "alice=-1", "=4", "alice=fast"} {
		if _, err := ParseTenantWeights(bad); err == nil {
			t.Errorf("ParseTenantWeights(%q) must fail", bad)
		}
	}
	if w, err := ParseTenantWeights(""); err != nil || w != nil {
		t.Errorf("empty spec must be nil map, got %v, %v", w, err)
	}
}
