package fault

// Tests for the injection registry: the $REPRO_FAULTS grammar, rule
// matching and count consumption, the three fault kinds, and the per-site
// counters the containment tests assert against.

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		check   func(t *testing.T, rs []*Rule)
	}{
		{spec: "compile=panic", check: func(t *testing.T, rs []*Rule) {
			if len(rs) != 1 {
				t.Fatalf("got %d rules, want 1", len(rs))
			}
			r := rs[0]
			if r.Site != "compile" || r.Match != "" || r.Kind != KindPanic || r.Count != 1 {
				t.Errorf("rule = %+v", r)
			}
		}},
		{spec: "exec@durbin=delay:2:5s", check: func(t *testing.T, rs []*Rule) {
			r := rs[0]
			if r.Site != "exec" || r.Match != "durbin" || r.Kind != KindDelay ||
				r.Count != 2 || r.Delay != 5*time.Second {
				t.Errorf("rule = %+v", r)
			}
		}},
		{spec: "store.read=error:*", check: func(t *testing.T, rs []*Rule) {
			if rs[0].Count != Unlimited {
				t.Errorf("count = %d, want Unlimited", rs[0].Count)
			}
		}},
		{spec: "exec@lbm=hang", check: func(t *testing.T, rs []*Rule) {
			if rs[0].Kind != KindDelay || rs[0].Delay != 30*time.Second {
				t.Errorf("hang rule = %+v", rs[0])
			}
		}},
		{spec: "a=error:1, b=panic", check: func(t *testing.T, rs []*Rule) {
			if len(rs) != 2 || rs[1].Site != "b" {
				t.Errorf("rules = %+v", rs)
			}
		}},
		{spec: "", wantErr: true},
		{spec: "compile", wantErr: true},
		{spec: "=panic", wantErr: true},
		{spec: "compile=", wantErr: true},
		{spec: "compile=explode", wantErr: true},
		{spec: "compile=panic:0", wantErr: true},
		{spec: "compile=panic:-3", wantErr: true},
		{spec: "compile=panic:nope", wantErr: true},
		{spec: "compile=error:1:5s", wantErr: true}, // arg on a non-delay rule
		{spec: "exec=delay:1:fast", wantErr: true},
	}
	for _, tc := range cases {
		rs, err := ParseSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q): no error, want one", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		tc.check(t, rs)
	}
}

func TestErrorFaultFiresCountTimes(t *testing.T) {
	disarm, err := ArmSpec("site.x@keyed=error:2")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	if err := Check("site.x", "other"); err != nil {
		t.Fatalf("non-matching key injected: %v", err)
	}
	if err := Check("site.other", "keyed"); err != nil {
		t.Fatalf("non-matching site injected: %v", err)
	}
	var inj *InjectedError
	for i := 0; i < 2; i++ {
		err := Check("site.x", "keyed-one")
		if !errors.As(err, &inj) {
			t.Fatalf("fire %d: got %v, want InjectedError", i, err)
		}
		if inj.Site != "site.x" {
			t.Errorf("fire %d: site %q", i, inj.Site)
		}
	}
	if err := Check("site.x", "keyed-one"); err != nil {
		t.Fatalf("exhausted rule still fired: %v", err)
	}
	if got := Snapshot()["site.x"]; got.Fired != 2 || got.Hits < 4 {
		t.Errorf("site.x = %+v, want Fired 2 and Hits >= 4", got)
	}
}

func TestPanicFault(t *testing.T) {
	disarm := Arm(&Rule{Site: "boom", Kind: KindPanic, Count: 1})
	defer disarm()
	defer func() {
		if recover() == nil {
			t.Error("panic fault did not panic")
		}
	}()
	Check("boom", "")
}

func TestDelayFaultSleeps(t *testing.T) {
	disarm := Arm(&Rule{Site: "slow", Kind: KindDelay, Count: 1, Delay: 50 * time.Millisecond})
	defer disarm()
	start := time.Now()
	if err := Check("slow", ""); err != nil {
		t.Fatalf("delay fault returned error: %v", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("delay fault slept %v, want >= 50ms", d)
	}
}

// TestCheckCtxDelayCutShortByDeadline pins the remote tier's hang
// containment: a delay fault checked under a context deadline returns the
// context's error as soon as the deadline passes, instead of sleeping the
// rule's full duration.
func TestCheckCtxDelayCutShortByDeadline(t *testing.T) {
	disarm := Arm(&Rule{Site: "slow.ctx", Kind: KindDelay, Count: 1, Delay: 30 * time.Second})
	defer disarm()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := CheckCtx(ctx, "slow.ctx", "")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cut-short delay returned %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("delay ignored the deadline: slept %v", d)
	}
	if got := Snapshot()["slow.ctx"].Fired; got != 1 {
		t.Errorf("cut-short delay must still count as fired: %d", got)
	}
}

// TestCheckCtxDelayCompletesUnderLongDeadline: a delay shorter than the
// deadline sleeps its full duration and passes, same as plain Check.
func TestCheckCtxDelayCompletesUnderLongDeadline(t *testing.T) {
	disarm := Arm(&Rule{Site: "slow.ok", Kind: KindDelay, Count: 1, Delay: 30 * time.Millisecond})
	defer disarm()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := CheckCtx(ctx, "slow.ok", ""); err != nil {
		t.Fatalf("completed delay returned error: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("delay slept only %v, want >= 30ms", d)
	}
}

func TestDisarmRemovesOnlyItsRules(t *testing.T) {
	d1 := Arm(&Rule{Site: "a", Kind: KindError, Count: Unlimited})
	d2 := Arm(&Rule{Site: "b", Kind: KindError, Count: Unlimited})
	d1()
	if err := Check("a", ""); err != nil {
		t.Errorf("disarmed rule fired: %v", err)
	}
	if err := Check("b", ""); err == nil {
		t.Error("surviving rule did not fire")
	}
	d2()
	if Enabled() {
		t.Error("registry still enabled after all disarms")
	}
}

func TestCheckFastPathWhenDisarmed(t *testing.T) {
	if Enabled() {
		t.Skip("rules armed via environment")
	}
	// Not a benchmark assertion, just the contract: disarmed checks are
	// error-free and never count hits.
	before := Snapshot()["cold.site"].Hits
	for i := 0; i < 100; i++ {
		if err := Check("cold.site", "k"); err != nil {
			t.Fatalf("disarmed check injected: %v", err)
		}
	}
	if got := Snapshot()["cold.site"].Hits; got != before {
		t.Errorf("disarmed checks counted hits: %d -> %d", before, got)
	}
}

func TestWithLabelRoundTrip(t *testing.T) {
	ctx := WithLabel(nil, "durbin")
	if got := LabelOf(ctx); got != "durbin" {
		t.Errorf("LabelOf = %q, want durbin", got)
	}
	if got := LabelOf(nil); got != "" {
		t.Errorf("LabelOf(nil) = %q, want empty", got)
	}
}
