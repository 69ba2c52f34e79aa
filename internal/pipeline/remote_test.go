package pipeline

// Internal tests for the remote artifact tier: fleet warmth (a second
// worker with an empty local store resolves builds from the remote without
// compiling), every failure shape degrading to a local build (dead remote,
// hung remote, corrupt payload), the circuit breaker's three states, and
// the acceptance-shaped degraded-suite run whose results must be
// byte-identical to a run with no remote at all.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/fault"
)

// fakeClock is an injectable breaker clock.
type fakeClock struct {
	ns atomic.Int64
}

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Now().UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// withTestRemote serves an artifact cache from a temp root and points the
// process's remote tier at it. Returns the tier, the server root (to plant
// or inspect server-side artifacts), and the test server for handler-level
// poking. State is restored on cleanup.
func withTestRemote(t *testing.T, trip int, cooldown time.Duration) (*remoteTier, string, *httptest.Server) {
	t.Helper()
	root := t.TempDir()
	ts := httptest.NewServer(ArtifactHandlerAt(root, 0))
	t.Cleanup(ts.Close)
	fp, err := compilerFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	rt := newRemoteTier(ts.URL, fp, time.Second)
	rt.trip, rt.cooldown = trip, cooldown
	prev := setRemote(rt)
	// Shutdown before restoring: the async publish worker must not outlive
	// the test (it reads the swappable retry clock and fault registry).
	t.Cleanup(func() {
		rt.shutdown()
		setRemote(prev)
	})
	return rt, root, ts
}

// remoteProbeSrc is a fixed probe for tests that never touch the global
// build cache (handler-level tests using buildUncached).
const remoteProbeSrc = `
int main() {
  int i; int acc;
  acc = 0;
  for (i = 0; i < 40; i++) { acc += i * 7; }
  print_int(acc);
  print_nl();
  return 0;
}`

// remoteSrcNonce makes uniqueRemoteSrc keys process-unique, so repeated
// runs of one test in a single process (-count=2) never resolve from the
// global memory cache warmed by the previous run.
var remoteSrcNonce atomic.Int64

func uniqueRemoteSrc(seed int) string {
	n := remoteSrcNonce.Add(1)
	return fmt.Sprintf(`
int main() {
  int i; int acc;
  acc = %d;
  for (i = 0; i < 40; i++) { acc += i * %d; }
  print_int(acc);
  print_nl();
  return 0;
}`, int(n)*1000+seed, seed+2)
}

// TestRemoteWarmsSecondWorker is the tier's reason to exist: worker A
// compiles once and publishes; worker B — an empty local store, an empty
// memory cache — resolves the same build from the remote with zero
// compiles, backfills its local store, and executes bit-identically.
func TestRemoteWarmsSecondWorker(t *testing.T) {
	rt, _, _ := withTestRemote(t, 3, time.Minute)
	withTestStore(t, defaultMaxBytes)
	cfg := codegen.Chrome()
	src := uniqueRemoteSrc(0)
	key := Key(src, cfg)

	before := Stats()
	cmA, err := Compile(context.Background(), &Request{Module: src, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !rt.flush(5 * time.Second) {
		t.Fatal("publish queue did not drain")
	}
	d := Stats().Sub(before)
	if d.Misses != 1 || d.RemotePuts != 1 || d.RemoteErrors != 0 {
		t.Fatalf("worker A should compile once and publish once: %v", d)
	}

	// Worker B: fresh local store, no memory entry, same remote.
	withTestStore(t, defaultMaxBytes)
	dropMemEntry(key)
	before = Stats()
	cmB, err := Compile(context.Background(), &Request{Module: src, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	d = Stats().Sub(before)
	if d.RemoteHits != 1 || d.Misses != 0 || d.DiskHits != 0 {
		t.Fatalf("worker B should resolve from the remote without compiling: %v", d)
	}

	o1, i1, c1 := execCounters(t, cmA)
	o2, i2, c2 := execCounters(t, cmB)
	if o1 != o2 || i1 != i2 || c1 != c2 {
		t.Errorf("remote-loaded module diverged: out %q/%q insts %d/%d cycles %d/%d", o1, o2, i1, i2, c1, c2)
	}

	// The remote hit backfilled worker B's local store: the next cold
	// build hits disk, not the network.
	dropMemEntry(key)
	before = Stats()
	if _, err := Compile(context.Background(), &Request{Module: src, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if d := Stats().Sub(before); d.DiskHits != 1 || d.RemoteHits != 0 {
		t.Errorf("remote hit did not backfill the local store: %v", d)
	}
}

// TestRemoteDeadServerDegradesToCompile: a connection-refused remote costs
// RemoteErrors, never a build failure, and trips the breaker after the
// configured consecutive failures — after which builds skip the remote
// without charging further errors.
func TestRemoteDeadServerDegradesToCompile(t *testing.T) {
	rt, _, ts := withTestRemote(t, 2, time.Minute)
	clock := newFakeClock()
	rt.now = clock.Now
	ts.Close() // connection refused from the first call
	withTestStore(t, defaultMaxBytes)
	hookRetryClock(t, func(int64) int64 { return 0 })
	cfg := codegen.Native()

	srcs := make([]string, 3)
	for i := range srcs {
		srcs[i] = uniqueRemoteSrc(i)
	}
	before := Stats()
	for _, src := range srcs {
		cm, err := Compile(context.Background(), &Request{Module: src, Config: cfg})
		if err != nil || cm == nil {
			t.Fatalf("dead remote failed a build: %v", err)
		}
		// Drain the async publish between builds so the failure sequence
		// is deterministic: fetch fails, then its put fails.
		rt.flush(5 * time.Second)
	}
	d := Stats().Sub(before)
	if d.Misses != 3 {
		t.Fatalf("all three builds should compile locally: %v", d)
	}
	// Build 1's fetch and put fail (two consecutive failures, tripping the
	// trip=2 breaker); every later call is refused admission and charged
	// nothing.
	if d.RemoteErrors != 2 {
		t.Errorf("RemoteErrors = %d, want 2 (breaker opens after trip=2, later calls refused)", d.RemoteErrors)
	}
	if got := rt.breakerString(); got != "open" {
		t.Errorf("breaker = %q, want open", got)
	}

	// Cooldown elapses: the breaker reads half-open (the next call will
	// probe), and a successful probe closes it.
	clock.Advance(2 * time.Minute)
	if got := rt.breakerString(); got != "half-open" {
		t.Errorf("breaker after cooldown = %q, want half-open", got)
	}
}

// TestRemoteCorruptPayloadRejected: a remote artifact that fails sha256
// verification is rejected (never decoded into the build), counted, and
// negative-cached; the local recompile republishes, healing the remote via
// the still-allowed PUT path.
func TestRemoteCorruptPayloadRejected(t *testing.T) {
	rt, root, _ := withTestRemote(t, 3, time.Minute)
	withTestStore(t, defaultMaxBytes)
	cfg := codegen.Firefox()
	src := uniqueRemoteSrc(5)
	key := Key(src, cfg)

	// Plant a corrupt artifact on the server, bypassing its PUT
	// verification (a rotted disk, not a bad client).
	p := filepath.Join(root, rt.fp, key[:2], key+artifactExt)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("RPAM garbage that is not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	before := Stats()
	cm, err := Compile(context.Background(), &Request{Module: src, Config: cfg})
	if err != nil {
		t.Fatalf("corrupt remote payload failed the build: %v", err)
	}
	if !rt.flush(5 * time.Second) {
		t.Fatal("publish queue did not drain")
	}
	d := Stats().Sub(before)
	if d.RemoteRejects != 1 || d.RemoteHits != 0 || d.Misses != 1 {
		t.Fatalf("corrupt payload must reject and recompile: %v", d)
	}
	o, _, _ := execCounters(t, cm)
	if o == "" {
		t.Error("recompiled module produced no output")
	}

	// The async PUT healed the remote copy.
	healed, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if codegen.VerifyArtifact(healed) != nil {
		t.Error("recompile did not heal the corrupt remote artifact")
	}

	// The key is negative-cached: a later cold build in this process does
	// not trust the (now healed) remote copy and recompiles instead.
	withTestStore(t, defaultMaxBytes)
	dropMemEntry(key)
	before = Stats()
	if _, err := Compile(context.Background(), &Request{Module: src, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	d = Stats().Sub(before)
	if d.RemoteHits != 0 || d.Misses != 1 || d.RemoteRejects != 0 {
		t.Errorf("negative cache must gate re-fetches of a poisoned key: %v", d)
	}
}

// TestRemoteHangContainedByDeadline: an injected hang at remote.get is cut
// off by the per-attempt deadline — the build completes locally in attempt
// timeouts, not the hang's duration.
func TestRemoteHangContainedByDeadline(t *testing.T) {
	rt, _, _ := withTestRemote(t, 3, time.Minute)
	rt.timeout = 50 * time.Millisecond
	withTestStore(t, defaultMaxBytes)
	hookRetryClock(t, func(int64) int64 { return 0 })
	disarm, err := fault.ArmSpec("remote.get=delay:*:30s")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	start := time.Now()
	cm, err := Compile(context.Background(), &Request{Module: uniqueRemoteSrc(9), Config: codegen.Chrome()})
	elapsed := time.Since(start)
	if err != nil || cm == nil {
		t.Fatalf("hung remote failed the build: %v", err)
	}
	// Compilation time dominates; the remote cost at most
	// ioAttempts × 50ms, nowhere near the 30s hang.
	if elapsed > 10*time.Second {
		t.Errorf("hang was not contained by the deadline: build took %v", elapsed)
	}
	if fault.Snapshot()[fault.SiteRemoteGet].Fired == 0 {
		t.Error("hang fault never fired; test exercised nothing")
	}
}

// TestDegradedRemoteSuite is the acceptance shape: a pre-warmed remote goes
// bad mid-suite (errors, then a corrupt payload) — the suite completes with
// results byte-identical to a run with no remote at all, the degradation is
// visible in RemoteErrors/RemoteRejects, and the breaker is observed open
// and then half-open on the way to recovery.
func TestDegradedRemoteSuite(t *testing.T) {
	cfg := codegen.Chrome()
	srcs := make([]string, 5)
	keys := make([]string, 5)
	for i := range srcs {
		srcs[i] = uniqueRemoteSrc(i)
		keys[i] = Key(srcs[i], cfg)
	}

	// Baseline: no remote tier at all.
	type run struct {
		out          string
		insts, cycls uint64
	}
	baseline := make([]run, len(srcs))
	prevRemote := setRemote(nil)
	t.Cleanup(func() { setRemote(prevRemote) })
	withTestStore(t, defaultMaxBytes)
	for i, src := range srcs {
		dropMemEntry(keys[i])
		cm, err := Compile(context.Background(), &Request{Module: src, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		baseline[i].out, baseline[i].insts, baseline[i].cycls = execCounters(t, cm)
	}

	// Pre-warm a remote from a healthy worker pass. trip=1 so the first
	// failed call opens the breaker: with the fake clock frozen, the open
	// breaker then refuses every later call — including the async
	// publishes, whose successes would otherwise close it mid-suite and
	// race the state observations below.
	rt, _, _ := withTestRemote(t, 1, time.Minute)
	clock := newFakeClock()
	rt.now = clock.Now
	withTestStore(t, defaultMaxBytes)
	for i, src := range srcs {
		dropMemEntry(keys[i])
		if _, err := Compile(context.Background(), &Request{Module: src, Config: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	if !rt.flush(5 * time.Second) {
		t.Fatal("publish queue did not drain")
	}

	// Degraded pass: empty local store and memory, remote armed to fail —
	// one fetch's worth of get errors (tripping the trip=1 breaker on the
	// first build) and one corrupt payload at the post-recovery verify.
	hookRetryClock(t, func(int64) int64 { return 0 })
	disarm, err := fault.ArmSpec(fmt.Sprintf("remote.get=error:%d,remote.verify=error:1", ioAttempts))
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	withTestStore(t, defaultMaxBytes)
	before := Stats()

	var sawOpen, sawHalfOpen bool
	degraded := make([]run, len(srcs))
	for i, src := range srcs {
		dropMemEntry(keys[i])
		if i == 3 {
			// Cooldown elapses mid-suite: the breaker must be observed
			// half-open before the probe that closes it. Drain the publish
			// queue first so a queued PUT cannot probe (and close the
			// breaker) between the advance and the observation.
			if !rt.flush(5 * time.Second) {
				t.Fatal("publish queue did not drain before cooldown advance")
			}
			clock.Advance(2 * time.Minute)
		}
		switch rt.breakerString() {
		case "open":
			sawOpen = true
		case "half-open":
			sawHalfOpen = true
		}
		cm, err := Compile(context.Background(), &Request{Module: src, Config: cfg})
		if err != nil {
			t.Fatalf("degraded suite run %d failed: %v", i, err)
		}
		degraded[i].out, degraded[i].insts, degraded[i].cycls = execCounters(t, cm)
	}

	for i := range srcs {
		if degraded[i] != baseline[i] {
			t.Errorf("run %d diverged under remote degradation: %+v vs baseline %+v", i, degraded[i], baseline[i])
		}
	}
	d := Stats().Sub(before)
	if d.RemoteErrors == 0 {
		t.Error("degraded suite recorded no RemoteErrors; faults never bit")
	}
	if d.RemoteRejects == 0 {
		t.Error("degraded suite recorded no RemoteRejects; corrupt payload never bit")
	}
	if !sawOpen {
		t.Error("breaker was never observed open")
	}
	if !sawHalfOpen {
		t.Error("breaker was never observed half-open")
	}
	if got := rt.breakerString(); got != "closed" {
		t.Errorf("breaker after recovery = %q, want closed", got)
	}
	// Degradation is observable but not fatal: every build above returned
	// a working module, and at least the post-recovery tail hit the remote.
	if d.RemoteHits == 0 {
		t.Error("no RemoteHits after breaker recovery; the warm remote was never used")
	}
}

// TestArtifactHandlerValidation pins the server's contract: malformed
// addresses 400, missing artifacts 404, corrupt payloads 400 and are never
// stored, a disabled store answers 503, and a valid round trip survives
// byte-identically and shows up in the inventory.
func TestArtifactHandlerValidation(t *testing.T) {
	root := t.TempDir()
	ts := httptest.NewServer(ArtifactHandlerAt(root, 0))
	defer ts.Close()
	client := ts.Client()

	const fp = "c-0123456789abcdef"
	key := Key(remoteProbeSrc, codegen.Native())

	do := func(method, url string, body []byte) *http.Response {
		t.Helper()
		var req *http.Request
		var err error
		if body != nil {
			req, err = http.NewRequest(method, url, bytes.NewReader(body))
		} else {
			req, err = http.NewRequest(method, url, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Malformed addresses.
	for _, url := range []string{
		ts.URL + "/artifact/not-a-fp/" + key,
		ts.URL + "/artifact/" + fp + "/nothex",
		ts.URL + "/artifact/" + fp + "/" + key[:40],
	} {
		if resp := do(http.MethodGet, url, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", url, resp.StatusCode)
		}
	}

	// Miss.
	if resp := do(http.MethodGet, ts.URL+"/artifact/"+fp+"/"+key, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing artifact GET = %d, want 404", resp.StatusCode)
	}

	// Corrupt PUT is rejected and not stored.
	if resp := do(http.MethodPut, ts.URL+"/artifact/"+fp+"/"+key, []byte("not an artifact")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt PUT = %d, want 400", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(root, fp, key[:2], key+artifactExt)); !os.IsNotExist(err) {
		t.Error("rejected payload reached the store")
	}

	// Valid round trip.
	cm, err := buildUncached(context.Background(), remoteProbeSrc, codegen.Native())
	if err != nil {
		t.Fatal(err)
	}
	data, err := codegen.EncodeModule(cm)
	if err != nil {
		t.Fatal(err)
	}
	if resp := do(http.MethodPut, ts.URL+"/artifact/"+fp+"/"+key, data); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid PUT = %d, want 204", resp.StatusCode)
	}
	r := NewRemote(ts.URL)
	got, err := r.Get(context.Background(), fp, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Error("artifact did not round trip byte-identically")
	}
	inv, err := r.Totals(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Count != 1 || inv.Fingerprints[fp].Count != 1 || len(inv.Fingerprints[fp].Keys) != 1 {
		t.Errorf("inventory after one PUT: %+v", inv)
	}

	// Disabled store: every route answers 503.
	off := httptest.NewServer(ArtifactHandlerAt("", 0))
	defer off.Close()
	for _, probe := range []struct{ method, url string }{
		{http.MethodGet, off.URL + "/artifact/" + fp + "/" + key},
		{http.MethodPut, off.URL + "/artifact/" + fp + "/" + key},
		{http.MethodGet, off.URL + "/artifacts"},
	} {
		if resp := do(probe.method, probe.url, nil); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s with disabled store = %d, want 503", probe.method, probe.url, resp.StatusCode)
		}
	}
}

// TestRemotePutQueueDropsWhenFull: a full publish queue drops (and counts)
// instead of blocking the enqueuer.
func TestRemotePutQueueDropsWhenFull(t *testing.T) {
	// A tier whose put worker is wedged: point it at a server that never
	// responds within the timeout, then overfill the queue.
	blocked := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-blocked
	}))
	defer slow.Close()
	defer close(blocked)
	fp, _ := compilerFingerprint()
	rt := newRemoteTier(slow.URL, fp, 50*time.Millisecond)
	rt.trip = 1000
	// The wedged worker must not outlive the test and race later tests'
	// retry-clock hooks.
	t.Cleanup(rt.shutdown)

	payload := []byte("x")
	for i := 0; i < putQueueDepth+16; i++ {
		rt.enqueuePut(fmt.Sprintf("%064d", i), payload)
	}
	if rt.drops.Load() == 0 {
		t.Error("overfilled queue recorded no drops")
	}
	// The enqueuers never blocked (we got here); pending is bounded by the
	// queue depth plus the one the worker holds.
	if p := rt.pending.Load(); p > putQueueDepth+1 {
		t.Errorf("pending = %d, want <= %d", p, putQueueDepth+1)
	}
}

// TestRemotePullNeverStoresDamagedArtifact: Remote.Pull (the `repro-cache
// pull` path) saves what it fetched without hashing it a second time, so
// the fetch's own verification is the only gate. A damaged remote artifact
// must still fail the pull and never reach the local store, while an intact
// one lands byte-identical.
func TestRemotePullNeverStoresDamagedArtifact(t *testing.T) {
	withTestStore(t, defaultMaxBytes)
	root := t.TempDir()
	ts := httptest.NewServer(ArtifactHandlerAt(root, 0))
	defer ts.Close()
	fp, err := compilerFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	cfg := codegen.Native()
	cm, err := buildUncached(context.Background(), remoteProbeSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := codegen.EncodeModule(cm)
	if err != nil {
		t.Fatal(err)
	}
	damaged := bytes.Clone(data)
	damaged[len(damaged)/2] ^= 0xFF
	good, bad := Key(remoteProbeSrc, cfg), Key(remoteProbeSrc+"// damaged", cfg)
	// Plant both on the server's disk, bypassing its PUT verification (a
	// rotted disk, not a bad client).
	for key, b := range map[string][]byte{good: data, bad: damaged} {
		p := filepath.Join(root, fp, key[:2], key+artifactExt)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := NewRemote(ts.URL)
	if _, err := r.Pull(context.Background(), fp, bad); err == nil {
		t.Error("pulling a damaged artifact succeeded")
	}
	if HasArtifact(fp, bad) {
		t.Error("a damaged remote artifact reached the local store")
	}
	n, err := r.Pull(context.Background(), fp, good)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(fp, good)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) || !bytes.Equal(got, data) {
		t.Errorf("pulled %d bytes, stored %d; want the %d served, byte-identical", n, len(got), len(data))
	}
}

// TestExportedCallsRejectBadAddresses pins the address check at every
// exported entry that names a stored artifact: a short key, keys and
// fingerprints that climb out of the store, and an empty fingerprint are
// refused before the file system or the network sees them, even with a
// valid artifact in hand and a server that answers every request with one.
func TestExportedCallsRejectBadAddresses(t *testing.T) {
	s := withTestStore(t, defaultMaxBytes)
	cm, err := buildUncached(context.Background(), remoteProbeSrc, codegen.Native())
	if err != nil {
		t.Fatal(err)
	}
	data, err := codegen.EncodeModule(cm)
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write(data)
	}))
	defer ts.Close()
	r := NewRemote(ts.URL)
	ctx := context.Background()
	fp, key := filepath.Base(s.dir), Key(remoteProbeSrc, codegen.Native())
	for _, bad := range []struct{ fp, key string }{
		{fp, "abc"},
		{fp, "../escaped"},
		{"../" + fp[3:], key},
		{"", key},
	} {
		if err := WriteArtifact(bad.fp, bad.key, data); err == nil {
			t.Errorf("WriteArtifact(%q, %q) succeeded", bad.fp, bad.key)
		}
		if _, err := ReadArtifact(bad.fp, bad.key); err == nil || errors.Is(err, fs.ErrNotExist) {
			t.Errorf("ReadArtifact(%q, %q) = %v, want an address error", bad.fp, bad.key, err)
		}
		if HasArtifact(bad.fp, bad.key) {
			t.Errorf("HasArtifact(%q, %q) = true", bad.fp, bad.key)
		}
		if _, err := r.Get(ctx, bad.fp, bad.key); err == nil {
			t.Errorf("Remote.Get(%q, %q) succeeded", bad.fp, bad.key)
		}
		if _, err := r.Pull(ctx, bad.fp, bad.key); err == nil {
			t.Errorf("Remote.Pull(%q, %q) succeeded", bad.fp, bad.key)
		}
		if err := r.Put(ctx, bad.fp, bad.key, data); err == nil {
			t.Errorf("Remote.Put(%q, %q) succeeded", bad.fp, bad.key)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("the remote saw %d requests for bad addresses", n)
	}
	if arts, err := ListArtifacts(); err != nil || len(arts) != 0 {
		t.Errorf("store root holds %d artifacts (%v) after bad writes, want 0", len(arts), err)
	}
	if ents, _ := os.ReadDir(filepath.Dir(s.root.dir)); len(ents) != 1 {
		t.Errorf("%d entries beside the store root, want only the root", len(ents))
	}
}
