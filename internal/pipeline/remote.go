package pipeline

// Remote artifact tier: a shared HTTP cache layered under the disk store, so
// a fleet of workers built from the same binary compiles each distinct
// (source × engine config) once, fleet-wide. Lookup order is memory → disk →
// remote → compile; publication is disk-first, then an async bounded-queue
// PUT to the remote so a build never waits on the network.
//
// The tier is an accelerator, never a dependency: every remote failure —
// connection refused, timeout, 5xx, corrupt payload — degrades to a plain
// cache miss. Containment is layered: each call carries a short per-attempt
// deadline ($REPRO_REMOTE_TIMEOUT), retries ride the store's shared
// capped-jittered backoff loop (retryIOCtx), fetched bytes are sha256-
// verified before they are ever decoded (bad payloads are rejected, counted,
// and negative-cached for the process), and a three-state circuit breaker
// (closed → open after N consecutive failures → half-open probe) stops a
// dead remote from charging every build its timeout.
//
// Artifacts are namespaced by the *client's* compiler fingerprint —
// /artifact/<fp>/<key> — the same generation scoping the local store uses,
// so a fleet of identical binaries shares warmth and a stale-compiler
// artifact can never cross into a newer build.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codegen"
	"repro/internal/config"
	"repro/internal/fault"
)

// maxArtifactBytes bounds a single artifact on the wire (both directions).
// Far above any real module (workload artifacts are KBs); a limit exists so
// a confused or hostile peer cannot balloon a worker or the server.
const maxArtifactBytes = 64 << 20

// putQueueDepth bounds the async publish queue. Publishes beyond it are
// dropped and counted — a slow remote costs warmth, never backpressure.
const putQueueDepth = 64

// errBreakerOpen is returned (internally) when the breaker refuses a call.
var errBreakerOpen = errors.New("pipeline: remote breaker open")

// breakerState is the circuit breaker's three states.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// remoteTier is the client side of the remote artifact cache.
type remoteTier struct {
	base    string // server base URL, no trailing slash
	fp      string // this binary's compiler fingerprint (default namespace)
	timeout time.Duration
	client  *http.Client

	// Circuit breaker. trip and cooldown start at breakerTrip and
	// breakerCooldown (tests set others), and now is injectable so tests
	// drive the cooldown without wall-clock sleeps.
	mu       sync.Mutex
	state    breakerState
	fails    int
	probing  bool
	openedAt time.Time
	trip     int
	cooldown time.Duration
	now      func() time.Time

	// Negative cache: fp/key pairs whose fetched payload failed
	// verification. Gates GETs only — PUTs stay allowed, so a local
	// recompile heals a corrupt remote copy.
	negMu sync.Mutex
	neg   map[string]struct{}

	// Async publish queue. ctx parents every background put; shutdown
	// (tests — a production tier lives for the process) cancels it and
	// waits on workerDone.
	putOnce    sync.Once
	putCh      chan putJob
	workerDone chan struct{}
	ctx        context.Context
	cancel     context.CancelFunc
	pending    atomic.Int64
	drops      atomic.Uint64
}

type putJob struct {
	fp   string
	key  string
	data []byte
}

// Remote-tier tuning. The timeout is deliberately short: a remote hit
// saves a compile (tens of ms to seconds), so waiting longer than ~2s for
// the network is already a loss, and a hung remote must never stall a
// build longer than this per attempt. breakerTrip consecutive failed calls
// open the breaker, and it stays open for breakerCooldown before admitting
// one half-open probe.
const (
	defaultRemoteTimeout = 2 * time.Second
	breakerTrip          = 3
	breakerCooldown      = 15 * time.Second
)

// newRemoteTier builds a client for base whose calls each get timeout.
func newRemoteTier(base, fp string, timeout time.Duration) *remoteTier {
	t := &remoteTier{
		base:     strings.TrimRight(base, "/"),
		fp:       fp,
		timeout:  timeout,
		client:   &http.Client{},
		trip:     breakerTrip,
		cooldown: breakerCooldown,
		now:      time.Now,
		neg:      map[string]struct{}{},
	}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	return t
}

var (
	remoteMu  sync.Mutex
	theRemote *remoteTier
	remoteSet bool
)

// remoteCache returns the process-wide remote tier, opening it from the
// environment on first use. Nil means the tier is disabled.
func remoteCache() *remoteTier {
	remoteMu.Lock()
	defer remoteMu.Unlock()
	if !remoteSet {
		theRemote = openDefaultRemote()
		remoteSet = true
	}
	return theRemote
}

// setRemote replaces the process remote tier (tests). Passing nil disables
// the layer; the previous tier is returned for restoration.
func setRemote(t *remoteTier) *remoteTier {
	remoteMu.Lock()
	defer remoteMu.Unlock()
	prev := theRemote
	theRemote = t
	remoteSet = true
	return prev
}

// openDefaultRemote resolves the remote tier from the environment.
func openDefaultRemote() *remoteTier {
	base := config.RemoteCache("")
	if base == "" {
		return nil
	}
	fp, err := compilerFingerprint()
	if err != nil {
		// Without a fingerprint the remote namespace is undefined; the
		// local store is disabled for the same reason.
		return nil
	}
	return newRemoteTier(base, fp, remoteTimeout())
}

var warnRemoteOnce sync.Once

// remoteTimeout reads $REPRO_REMOTE_TIMEOUT for the build path's tier and
// for NewRemote alike. A malformed value warns once and selects the
// default: misconfigured tuning must not silently disable the tier, and
// must never fail a build.
func remoteTimeout() time.Duration {
	d, err := config.ParseDuration(config.EnvRemoteTimeout, os.Getenv(config.EnvRemoteTimeout), time.Nanosecond, defaultRemoteTimeout)
	if err != nil {
		warnRemoteOnce.Do(func() {
			fmt.Fprintf(os.Stderr, "%v; using default %v\n", err, defaultRemoteTimeout)
		})
		return defaultRemoteTimeout
	}
	return d
}

// ---- circuit breaker ----

// admit reports whether a remote call may proceed. An open breaker past its
// cooldown transitions to half-open and admits exactly one probe; everyone
// else is refused until the probe reports.
func (t *remoteTier) admit() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.state {
	case breakerOpen:
		if t.now().Sub(t.openedAt) < t.cooldown {
			return false
		}
		t.state = breakerHalfOpen
		t.probing = true
		return true
	case breakerHalfOpen:
		if t.probing {
			return false
		}
		t.probing = true
		return true
	}
	return true
}

// success records a completed remote call (a 404 miss counts: the remote
// answered). Any success closes the breaker.
func (t *remoteTier) success() {
	t.mu.Lock()
	t.state = breakerClosed
	t.fails = 0
	t.probing = false
	t.mu.Unlock()
}

// failure records a failed remote call. A failed half-open probe reopens
// immediately; in closed state trip consecutive failures open the breaker.
func (t *remoteTier) failure() {
	t.mu.Lock()
	t.probing = false
	t.fails++
	if t.state == breakerHalfOpen || t.fails >= t.trip {
		t.state = breakerOpen
		t.openedAt = t.now()
		t.fails = 0
	}
	t.mu.Unlock()
}

// breakerString reports the breaker state for observability. An open
// breaker whose cooldown has elapsed reads as "half-open": that is what the
// next call will find, and it lets a watcher see recovery coming without
// mutating the state machine.
func (t *remoteTier) breakerString() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == breakerOpen && t.now().Sub(t.openedAt) >= t.cooldown {
		return breakerHalfOpen.String()
	}
	return t.state.String()
}

// ---- negative cache ----

func negKey(fp, key string) string { return fp + "/" + key }

func (t *remoteTier) negCached(fp, key string) bool {
	t.negMu.Lock()
	_, ok := t.neg[negKey(fp, key)]
	t.negMu.Unlock()
	return ok
}

// reject records a payload that failed verification (or decoded as garbage
// despite a valid trailer — format skew): counted, and negative-cached so
// this process never re-fetches the poisoned key.
func (t *remoteTier) reject(key string) { t.rejectFP(t.fp, key) }

func (t *remoteTier) rejectFP(fp, key string) {
	count(&stats.RemoteRejects)
	t.negMu.Lock()
	t.neg[negKey(fp, key)] = struct{}{}
	t.negMu.Unlock()
}

// ---- HTTP calls ----

func (t *remoteTier) url(fp, key string) string {
	return t.base + "/artifact/" + fp + "/" + key
}

// httpGet fetches one artifact. A 404 maps to fs.ErrNotExist — the shared
// retry loop treats that as a miss, not a fault.
func (t *remoteTier) httpGet(ctx context.Context, fp, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url(fp, key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes+1))
		if err != nil {
			return nil, err
		}
		if len(data) > maxArtifactBytes {
			return nil, fmt.Errorf("pipeline: remote artifact %s exceeds %d bytes", key[:12], maxArtifactBytes)
		}
		return data, nil
	case http.StatusNotFound:
		return nil, fs.ErrNotExist
	default:
		return nil, fmt.Errorf("pipeline: remote GET %s: %s", key[:12], resp.Status)
	}
}

func (t *remoteTier) httpPut(ctx context.Context, fp, key string, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, t.url(fp, key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("pipeline: remote PUT %s: %s", key[:12], resp.Status)
	}
	return nil
}

// ---- verified get / put (breaker + retry + verification) ----

// get fetches and verifies one artifact from namespace fp. Misses return
// fs.ErrNotExist; transport failures (after retries) count one RemoteError
// and feed the breaker; payloads failing sha256 verification are rejected,
// counted, and negative-cached, never returned.
func (t *remoteTier) get(ctx context.Context, fp, key string) ([]byte, error) {
	if t.negCached(fp, key) {
		return nil, fs.ErrNotExist
	}
	if !t.admit() {
		return nil, errBreakerOpen
	}
	var data []byte
	err := retryIOCtx(ctx, fault.SiteRemoteGet, key, ioAttempts, t.timeout, func(actx context.Context) error {
		var gerr error
		data, gerr = t.httpGet(actx, fp, key)
		return gerr
	})
	if errors.Is(err, fs.ErrNotExist) {
		t.success()
		return nil, fs.ErrNotExist
	}
	if err != nil {
		t.failure()
		count(&stats.RemoteErrors)
		return nil, err
	}
	t.success()
	verr := fault.Check(fault.SiteRemoteVerify, key)
	if verr == nil {
		verr = codegen.VerifyArtifact(data)
	}
	if verr != nil {
		t.rejectFP(fp, key)
		return nil, fmt.Errorf("pipeline: remote artifact %s rejected: %w", key[:12], verr)
	}
	return data, nil
}

// put publishes one artifact to namespace fp through the same breaker and
// retry containment as get.
func (t *remoteTier) put(ctx context.Context, fp, key string, data []byte) error {
	if !t.admit() {
		return errBreakerOpen
	}
	err := retryIOCtx(ctx, fault.SiteRemotePut, key, ioAttempts, t.timeout, func(actx context.Context) error {
		return t.httpPut(actx, fp, key, data)
	})
	if err != nil {
		t.failure()
		count(&stats.RemoteErrors)
		return err
	}
	t.success()
	count(&stats.RemotePuts)
	return nil
}

// fetch is build's read path: a verified artifact or a miss, never an error.
func (t *remoteTier) fetch(ctx context.Context, key string) ([]byte, bool) {
	if t == nil {
		return nil, false
	}
	data, err := t.get(ctx, t.fp, key)
	if err != nil {
		return nil, false
	}
	return data, true
}

// ---- async publish queue ----

// enqueuePut queues an artifact for background publication. Never blocks:
// a full queue drops the publish and counts it. The worker goroutine starts
// lazily on the first enqueue and lives for the process — it is a daemon,
// like the store's sweep machinery.
func (t *remoteTier) enqueuePut(key string, data []byte) {
	if t == nil {
		return
	}
	t.startWorker()
	t.pending.Add(1)
	select {
	case t.putCh <- putJob{fp: t.fp, key: key, data: data}:
	default:
		t.pending.Add(-1)
		t.drops.Add(1)
	}
}

func (t *remoteTier) startWorker() {
	t.putOnce.Do(func() {
		t.putCh = make(chan putJob, putQueueDepth)
		t.workerDone = make(chan struct{})
		go t.putWorker()
	})
}

func (t *remoteTier) putWorker() {
	defer close(t.workerDone)
	for {
		select {
		case <-t.ctx.Done():
			return
		case j := <-t.putCh:
			// Errors (including breaker-open) are already contained and
			// counted inside put; a failed publish only costs fleet
			// warmth. The tier's lifecycle ctx parents the call, so
			// shutdown cancels an in-flight attempt.
			t.put(t.ctx, j.fp, j.key, j.data)
			t.pending.Add(-1)
		}
	}
}

// shutdown cancels background publication and waits for the worker to exit.
// Tests call it between tier swaps so a leaked worker can never outlive its
// test; production tiers are daemons and never shut down.
func (t *remoteTier) shutdown() {
	if t == nil {
		return
	}
	t.cancel()
	t.startWorker()
	<-t.workerDone
}

// flush waits until the publish queue drains or timeout elapses, reporting
// whether it drained. Polling an atomic pending count (rather than a
// WaitGroup) keeps enqueuePut race-free against concurrent flushes.
func (t *remoteTier) flush(timeout time.Duration) bool {
	if t == nil {
		return true
	}
	deadline := time.Now().Add(timeout)
	for t.pending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// RemoteFlush drains the remote tier's async publish queue, waiting at most
// timeout. Long-lived processes that just finished a suite call it before
// reporting totals so trailing publishes reach the fleet; it reports whether
// the queue drained. With no remote tier armed it returns true immediately.
func RemoteFlush(timeout time.Duration) bool {
	remoteMu.Lock()
	t := theRemote
	set := remoteSet
	remoteMu.Unlock()
	if !set || t == nil {
		return true
	}
	return t.flush(timeout)
}

// RemoteInfo is the remote tier's observable state for /statz and totals.
type RemoteInfo struct {
	Base       string `json:"base"`
	Breaker    string `json:"breaker"`
	PutDrops   uint64 `json:"put_drops,omitempty"`
	PutPending int64  `json:"put_pending,omitempty"`
}

// RemoteState reports the remote tier's base URL and breaker state; ok is
// false when no remote tier is configured. It never opens the tier itself:
// reporting must not change what the process is doing.
func RemoteState() (RemoteInfo, bool) {
	remoteMu.Lock()
	t := theRemote
	remoteMu.Unlock()
	if t == nil {
		return RemoteInfo{}, false
	}
	return RemoteInfo{
		Base:       t.base,
		Breaker:    t.breakerString(),
		PutDrops:   t.drops.Load(),
		PutPending: t.pending.Load(),
	}, true
}

// ---- exported client (cmd/repro-cache) ----

// Remote is an explicit client for a remote artifact cache, sharing the
// build path's breaker, retry, and verification machinery. The pipeline's
// own remote tier is configured from the environment; Remote exists for
// tools (cmd/repro-cache push/pull) that address the cache directly and
// across fingerprint namespaces.
type Remote struct {
	t *remoteTier
}

// NewRemote builds a client for base with the build path's timeout and
// breaker. The returned client is independent of the process's own remote
// tier.
func NewRemote(base string) *Remote {
	return &Remote{t: newRemoteTier(base, "", remoteTimeout())}
}

// Get fetches and verifies one artifact from namespace fp (a compiler
// fingerprint). Misses return fs.ErrNotExist.
func (r *Remote) Get(ctx context.Context, fp, key string) ([]byte, error) {
	if err := checkAddress(fp, key); err != nil {
		return nil, err
	}
	return r.t.get(ctx, fp, key)
}

// Pull fetches one artifact from namespace fp and publishes it into the
// local store's generation fp, returning its size. The fetch has verified
// the bytes, so they are saved without hashing them a second time; a
// damaged artifact fails the fetch and never reaches the store.
func (r *Remote) Pull(ctx context.Context, fp, key string) (int, error) {
	g, err := generationStore(fp, key)
	if err != nil {
		return 0, err
	}
	data, err := r.t.get(ctx, fp, key)
	if err != nil {
		return 0, err
	}
	return len(data), g.saveBytes(key, data)
}

// Put publishes one artifact to namespace fp.
func (r *Remote) Put(ctx context.Context, fp, key string, data []byte) error {
	if err := checkAddress(fp, key); err != nil {
		return err
	}
	return r.t.put(ctx, fp, key, data)
}

// Breaker reports the client's breaker state.
func (r *Remote) Breaker() string { return r.t.breakerString() }

// RemoteTotals is the server-side inventory GET /artifacts returns.
type RemoteTotals struct {
	Count        int                     `json:"count"`
	Bytes        int64                   `json:"bytes"`
	Fingerprints map[string]RemoteFPInfo `json:"fingerprints,omitempty"`
}

// RemoteFPInfo is one fingerprint generation's share of the inventory.
// Keys is only populated when the listing was requested with keys (the
// pull path needs them; totals does not).
type RemoteFPInfo struct {
	Count int      `json:"count"`
	Bytes int64    `json:"bytes"`
	Keys  []string `json:"keys,omitempty"`
}

// Inventory tallies a store listing per generation, as GET /artifacts
// reports it; withKeys also lists each generation's keys, LRU-first.
func Inventory(arts []ArtifactInfo, withKeys bool) RemoteTotals {
	out := RemoteTotals{Fingerprints: map[string]RemoteFPInfo{}}
	for _, a := range arts {
		info := out.Fingerprints[a.Generation]
		info.Count++
		info.Bytes += a.Size
		if withKeys {
			info.Keys = append(info.Keys, a.Key)
		}
		out.Fingerprints[a.Generation] = info
		out.Count++
		out.Bytes += a.Size
	}
	return out
}

// Totals fetches the server's artifact inventory; withKeys asks for the
// per-generation key lists (cmd/repro-cache pull).
func (r *Remote) Totals(ctx context.Context, withKeys bool) (RemoteTotals, error) {
	var out RemoteTotals
	url := r.t.base + "/artifacts"
	if withKeys {
		url += "?keys=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return out, err
	}
	resp, err := r.t.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return out, fmt.Errorf("pipeline: remote totals: %s", resp.Status)
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&out)
	return out, err
}

// ---- server side ----

var (
	fpRe  = regexp.MustCompile(`^c-[0-9a-f]{16}$`)
	keyRe = regexp.MustCompile(`^[0-9a-f]{64}$`)
)

// artifactHandler serves the shared cache: the generations of one store
// root, reusing the local store's atomic publication, retry loop, and
// root-wide LRU eviction — the server is just a disk store with an HTTP
// front, and one budget bounds every generation clients PUT.
type artifactHandler struct {
	root *storeRoot // nil = disabled; every route answers 503
	mux  *http.ServeMux
}

// ArtifactHandler serves GET/PUT /artifact/{fp}/{key} and GET /artifacts
// over the process's own store root (storeSettings, including "off" to
// disable — a disabled store answers 503 so a misconfigured server is loud,
// not silently empty), so a daemon's builds and its server share one size
// account.
func ArtifactHandler() http.Handler {
	return newArtifactHandler(defaultRoot())
}

// ArtifactHandlerAt serves the artifact routes over an explicit root
// (tests, embedders). An empty or unusable root disables the store: every
// route answers 503. A zero budget selects the default store budget.
func ArtifactHandlerAt(root string, budget int64) http.Handler {
	if root == "" || os.MkdirAll(root, 0o755) != nil {
		return newArtifactHandler(nil)
	}
	if budget <= 0 {
		budget = defaultMaxBytes
	}
	return newArtifactHandler(newStoreRoot(root, budget))
}

func newArtifactHandler(root *storeRoot) *artifactHandler {
	h := &artifactHandler{root: root, mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /artifact/{fp}/{key}", h.get)
	h.mux.HandleFunc("PUT /artifact/{fp}/{key}", h.put)
	h.mux.HandleFunc("GET /artifacts", h.list)
	return h
}

func (h *artifactHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// params validates the {fp}/{key} path segments and returns the addressed
// generation; a false return has already written the error response.
func (h *artifactHandler) params(w http.ResponseWriter, r *http.Request) (s *diskStore, key string, ok bool) {
	if h.root == nil {
		http.Error(w, "artifact store disabled", http.StatusServiceUnavailable)
		return nil, "", false
	}
	fp, key := r.PathValue("fp"), r.PathValue("key")
	if checkAddress(fp, key) != nil {
		http.Error(w, "bad artifact address", http.StatusBadRequest)
		return nil, "", false
	}
	return h.root.gen(fp), key, true
}

func (h *artifactHandler) get(w http.ResponseWriter, r *http.Request) {
	s, key, ok := h.params(w, r)
	if !ok {
		return
	}
	data, ok := s.loadBytes(key)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (h *artifactHandler) put(w http.ResponseWriter, r *http.Request) {
	s, key, ok := h.params(w, r)
	if !ok {
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxArtifactBytes))
	if err != nil {
		http.Error(w, "artifact too large or unreadable", http.StatusBadRequest)
		return
	}
	// The server never trusts a payload: a worker with a bad disk or a
	// confused client must not poison the fleet. Integrity only — the key
	// binds source × config, which the server cannot recompute.
	if err := codegen.VerifyArtifact(data); err != nil {
		http.Error(w, fmt.Sprintf("artifact rejected: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.saveBytes(key, data); err != nil {
		http.Error(w, "artifact store write failed", http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *artifactHandler) list(w http.ResponseWriter, r *http.Request) {
	if h.root == nil {
		http.Error(w, "artifact store disabled", http.StatusServiceUnavailable)
		return
	}
	// An unreadable root lists as empty, as a store answers a read it
	// cannot serve with a miss.
	arts, _ := h.root.list()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(Inventory(arts, r.URL.Query().Get("keys") != ""))
}
