// Package fault is the deterministic fault-injection registry behind the
// run pipeline's failure-containment tests. Code at a containment boundary
// declares a named site — the store's read and write paths, the compiler,
// the exec path, the kernel's syscall dispatch — and calls Check there; a
// test (or $REPRO_FAULTS in the environment) arms rules that make specific
// checks fail with an error, a panic, or a wall-clock delay. Every
// containment path in the repository is provable under injection instead of
// waiting for a real disk error, compiler bug, or hung simulation.
//
// The package is a leaf (standard library only) so every layer — including
// internal/sched and internal/codegen, which the pipeline itself sits on —
// can declare sites without import cycles.
//
// Sites are cheap when nothing is armed: Check is one atomic load. Hit and
// fire counters are only maintained while at least one rule is armed, so
// benchmarks without $REPRO_FAULTS pay nothing for the bookkeeping.
//
// The environment syntax, a comma-separated rule list:
//
//	REPRO_FAULTS=site[@match]=kind[:count][:arg][,...]
//
// where site names the injection point, match (optional) is a substring the
// site's key must contain for the rule to fire (workload names, artifact
// keys, and syscall names are the usual keys), kind is "error", "panic",
// "delay", or "hang" (delay with a 30s default), count is how many checks
// the rule fires on (default 1, "*" = every check), and arg is the delay
// duration for delay faults (default 250ms). Examples:
//
//	REPRO_FAULTS=compile@durbin=panic            panic durbin's compile once
//	REPRO_FAULTS=exec@lbm=delay:1:10s            stall lbm's exec 10s once
//	REPRO_FAULTS=store.read=error:2              fail the first two store reads
//	REPRO_FAULTS=syscall@sys_write=error:*       fail every sys_write
package fault

import (
	"context"
	"fmt"
	"maps"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
)

// Env is the environment variable rules are parsed from at first use (the
// canonical name lives in internal/config).
const Env = config.EnvFaults

// Canonical site names wired through the run pipeline. Sites are open-ended
// (any string works); these constants exist so arming code and checking
// code cannot drift apart.
const (
	// SiteStoreRead is the artifact store's read path; keyed by artifact
	// content address. Injected errors exercise the read retry loop.
	SiteStoreRead = "store.read"
	// SiteStoreWrite is the artifact store's publish path; keyed by
	// artifact content address.
	SiteStoreWrite = "store.write"
	// SiteCompile is the build pipeline's compile entry, hit once per
	// distinct build; keyed by the build label (fault.WithLabel — the
	// workload name on suite paths, the engine name otherwise).
	SiteCompile = "compile"
	// SiteExec is the execution path, hit before a kernel is spawned;
	// keyed by argv[0] (the workload name on suite paths).
	SiteExec = "exec"
	// SiteSyscall is the kernel's syscall dispatch; keyed by the import
	// name (e.g. "env.sys_write"). An injected error kills the process
	// accountably, like a kernel-side transport failure would.
	SiteSyscall = "syscall"
	// SiteCodegenFunc is the per-function compile fan-out inside
	// codegen.Compile; keyed by function name. Panics here land inside
	// nested scheduler jobs, the deepest containment boundary.
	SiteCodegenFunc = "codegen.func"
	// SiteRemoteGet is the remote artifact tier's fetch path; keyed by
	// artifact content address. Checked with the per-call deadline, so an
	// injected hang simulates a stalled remote that the deadline contains.
	SiteRemoteGet = "remote.get"
	// SiteRemotePut is the remote artifact tier's publish path; keyed by
	// artifact content address.
	SiteRemotePut = "remote.put"
	// SiteRemoteVerify is the remote tier's payload verification; an
	// injected error simulates a corrupt fetched artifact (rejected,
	// counted, negative-cached — never decoded into a build).
	SiteRemoteVerify = "remote.verify"
)

// Kind is the failure a rule injects.
type Kind uint8

const (
	// KindError makes Check return an *InjectedError.
	KindError Kind = iota + 1
	// KindPanic makes Check panic (containment layers must convert it to a
	// structured error; see sched.JobPanicError).
	KindPanic
	// KindDelay makes Check sleep for the rule's Delay and then pass. With
	// the pipeline watchdog armed this is how a hung run is simulated.
	KindDelay
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Unlimited as a Rule.Count makes the rule fire on every matching check.
const Unlimited = -1

// Rule arms one fault: at site Site, for keys containing Match (empty
// matches every key), inject Kind. Count > 0 fires on that many checks then
// disarms the rule; Unlimited never disarms.
type Rule struct {
	Site  string
	Match string
	Kind  Kind
	Count int64
	// Delay is the sleep for KindDelay rules (default 250ms).
	Delay time.Duration

	left atomic.Int64
}

// InjectedError is the error KindError checks return.
type InjectedError struct {
	Site string
	Key  string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected error at %s (key %q)", e.Site, e.Key)
}

// registry is the armed-rule set plus the per-site counters. A plain mutex
// suffices: checks only take it while armed != 0, and armed checks are
// orders of magnitude rarer than the simulated work around them.
var (
	armed   atomic.Int32 // number of armed rules; Check's fast-path gate
	mu      sync.Mutex
	rules   []*Rule
	sites   = map[string]SiteStat{} // site -> counters while armed
	envOnce sync.Once
)

// initFromEnv arms $REPRO_FAULTS rules exactly once per process. An
// unparsable spec warns loudly on stderr — someone who armed faults and got
// a fault-free run would draw exactly the wrong conclusion — but does not
// abort: the containment machinery must itself degrade gracefully.
func initFromEnv() {
	envOnce.Do(func() {
		v := os.Getenv(Env)
		if v == "" {
			return
		}
		rs, err := ParseSpec(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fault: ignoring unparsable %s=%q: %v\n", Env, v, err)
			return
		}
		Arm(rs...)
	})
}

// ParseSpec parses the $REPRO_FAULTS syntax into rules (see the package
// comment for the grammar).
func ParseSpec(spec string) ([]*Rule, error) {
	var out []*Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, rhs, ok := strings.Cut(part, "=")
		if !ok || site == "" || rhs == "" {
			return nil, fmt.Errorf("rule %q: want site[@match]=kind[:count][:arg]", part)
		}
		r := &Rule{Count: 1, Delay: 250 * time.Millisecond}
		r.Site, r.Match, _ = strings.Cut(site, "@")
		if r.Site == "" {
			return nil, fmt.Errorf("rule %q: empty site", part)
		}
		fields := strings.SplitN(rhs, ":", 3)
		switch fields[0] {
		case "error":
			r.Kind = KindError
		case "panic":
			r.Kind = KindPanic
		case "delay":
			r.Kind = KindDelay
		case "hang":
			// A hang is a delay long enough that only a watchdog ends it.
			r.Kind = KindDelay
			r.Delay = 30 * time.Second
		default:
			return nil, fmt.Errorf("rule %q: unknown kind %q", part, fields[0])
		}
		if len(fields) > 1 && fields[1] != "" {
			if fields[1] == "*" {
				r.Count = Unlimited
			} else {
				n, err := strconv.ParseInt(fields[1], 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("rule %q: bad count %q", part, fields[1])
				}
				r.Count = n
			}
		}
		if len(fields) > 2 && fields[2] != "" {
			if r.Kind != KindDelay {
				return nil, fmt.Errorf("rule %q: arg only applies to delay faults", part)
			}
			d, err := time.ParseDuration(fields[2])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("rule %q: bad delay %q", part, fields[2])
			}
			r.Delay = d
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty fault spec")
	}
	return out, nil
}

// Arm installs rules and returns a disarm function that removes exactly
// those rules (tests defer it). Arming validates nothing — use ParseSpec
// for string specs.
func Arm(rs ...*Rule) (disarm func()) {
	mu.Lock()
	for _, r := range rs {
		r.left.Store(r.Count)
		rules = append(rules, r)
	}
	mu.Unlock()
	armed.Add(int32(len(rs)))
	return func() {
		mu.Lock()
		kept := rules[:0]
		for _, have := range rules {
			removed := false
			for _, r := range rs {
				if have == r {
					removed = true
					break
				}
			}
			if !removed {
				kept = append(kept, have)
			}
		}
		removed := len(rules) - len(kept)
		rules = kept
		mu.Unlock()
		armed.Add(int32(-removed))
	}
}

// ArmSpec parses and arms a $REPRO_FAULTS-syntax spec (test convenience).
func ArmSpec(spec string) (disarm func(), err error) {
	rs, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return Arm(rs...), nil
}

// Enabled reports whether any rule is armed (after lazily arming
// $REPRO_FAULTS). Callers can use it to skip fault-only bookkeeping.
func Enabled() bool {
	initFromEnv()
	return armed.Load() != 0
}

// Check consults the registry at a named site. With no rules armed it is a
// single atomic load. With rules armed it counts the hit and applies the
// first matching rule: KindError returns an *InjectedError, KindPanic
// panics with a tagged value, KindDelay sleeps and passes. A rule's count
// is consumed per fire; exhausted rules stay installed but inert (their
// fire totals remain inspectable).
func Check(site, key string) error {
	return CheckCtx(context.Background(), site, key)
}

// CheckCtx is Check under a caller context: an injected delay sleeps until
// the rule's duration elapses or ctx is done, whichever comes first, and a
// cut-short delay returns ctx.Err(). Sites with a per-call deadline (the
// remote artifact tier) use it so an injected hang is contained by the
// deadline instead of stalling the caller for the full 30s — the honest
// simulation of a stalled dependency behind a timeout.
func CheckCtx(ctx context.Context, site, key string) error {
	initFromEnv()
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	st := sites[site]
	st.Hits++
	var match *Rule
	for _, r := range rules {
		if r.Site != site || (r.Match != "" && !strings.Contains(key, r.Match)) {
			continue
		}
		// Consume one firing; Unlimited counts go negative harmlessly.
		if r.Count != Unlimited && r.left.Add(-1) < 0 {
			continue
		}
		match = r
		break
	}
	if match != nil {
		st.Fired++
	}
	sites[site] = st
	mu.Unlock()
	if match == nil {
		return nil
	}
	switch match.Kind {
	case KindPanic:
		panic(fmt.Sprintf("fault: injected panic at %s (key %q)", site, key))
	case KindDelay:
		if ctx.Done() == nil {
			time.Sleep(match.Delay)
			return nil
		}
		t := time.NewTimer(match.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	default:
		return &InjectedError{Site: site, Key: key}
	}
}

// SiteStat is one site's counters: the checks it observed while rules were
// armed, and the faults it injected.
type SiteStat struct {
	Hits  uint64 `json:"hits"`
	Fired uint64 `json:"fired"`
}

// Snapshot returns the counters of every site checked while rules were
// armed, keyed by site name.
func Snapshot() map[string]SiteStat {
	mu.Lock()
	defer mu.Unlock()
	return maps.Clone(sites)
}

// labelKey carries a human-meaningful label (usually a workload name)
// through context from suite layers down to the sites that check faults
// beneath them.
type labelKey struct{}

// WithLabel attaches a fault-site key to ctx; sites reached beneath it
// (compile, exec) use the label as their Check key so rules can target one
// workload out of a suite.
func WithLabel(ctx context.Context, label string) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, labelKey{}, label)
}

// LabelOf extracts the label WithLabel attached, or "".
func LabelOf(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	s, _ := ctx.Value(labelKey{}).(string)
	return s
}
