package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codegen"
	"repro/internal/config"
	"repro/internal/fault"
)

// Disk-backed artifact store: the persistence layer under the in-memory
// build cache. Artifacts are codegen.EncodeModule outputs (versioned header,
// sha256 integrity trailer) stored one file per pipeline.Key in a two-level
// fan-out directory. Everything is best-effort: a missing, truncated,
// bit-flipped, or version-stale artifact reads as a cache miss and triggers
// a recompile that overwrites it; an unwritable store directory disables the
// layer entirely. The store never surfaces an error to Compile callers.
//
// Cross-process safety comes from atomic publication: writers produce the
// artifact in a temp file in the destination directory and rename it into
// place, so readers only ever observe complete files, and concurrent writers
// of one key (identical content by construction) just race renames.

const (
	// defaultMaxBytes bounds the store at 512 MB; the LRU sweep evicts
	// oldest-read artifacts once the total exceeds it.
	defaultMaxBytes = 512 << 20

	artifactExt = ".rpa"
)

// ReportTotals prints the process's cache totals, labeled (the suites'
// TestMain hooks call it on exit). `go test` only shows a passing package's
// output under -v, so when $REPRO_CACHE_SUMMARY names a file the line is
// also appended there — CI jobs cat it at the end to get the per-job
// memory/disk hit-miss summary regardless of verbosity.
func ReportTotals(label string) {
	line := fmt.Sprintf("[pipeline] %s cache totals: %v", label, Stats())
	if info, ok := RemoteState(); ok {
		line += " breaker=" + info.Breaker
	}
	line += "\n"
	fmt.Print(line)
	if p := os.Getenv(config.EnvCacheSummary); p != "" {
		if f, err := os.OpenFile(p, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			f.WriteString(line)
			f.Close()
		}
	}
}

// storeRoot owns the store's on-disk layout,
// <dir>/<fingerprint>/<kk>/<key>.rpa, and its one size account: the budget
// bounds the whole root, across every compiler generation, and one LRU
// sweep evicts the least-recently-read artifacts wherever they live. Every
// path into the store — the builds' active generation, the inspection API
// under cmd/repro-cache, and the artifact server — goes through a root, so
// the running total counts every publish whichever path made it.
type storeRoot struct {
	dir      string
	maxBytes int64
	// active is the running binary's generation, the one builds use; nil
	// when it has no fingerprint.
	active *diskStore

	// evictMu serializes sweeps within the process and guards
	// curBytes/sized. Across processes the sweep sentinel (tryLockSweep)
	// elects a single sweeper; a concurrent sweep would still be safe
	// (removal of a file another process just read is benign — the reader
	// has its bytes), the sentinel only removes the wasted double scan.
	evictMu sync.Mutex
	// curBytes approximates the root's total size so publishes far under
	// budget skip the full walk; it is seeded by one scan and re-trued by
	// every real sweep. Overwrites of an existing key over-count, which
	// only makes a sweep happen sooner, never later.
	curBytes int64
	sized    bool
}

// diskStore is one compiler generation of a store root: the directory its
// artifacts fan out under. All size accounting is the root's.
type diskStore struct {
	dir  string
	root *storeRoot
}

func newStoreRoot(dir string, maxBytes int64) *storeRoot {
	return &storeRoot{dir: dir, maxBytes: maxBytes}
}

// gen returns generation fp of the root. fp must already match fpRe: it is
// either this binary's fingerprint or an address checkAddress accepted.
func (r *storeRoot) gen(fp string) *diskStore {
	return &diskStore{dir: filepath.Join(r.dir, fp), root: r}
}

var (
	storeMu  sync.Mutex
	theRoot  *storeRoot
	storeSet bool
)

// defaultRoot returns the process-wide store root, opening it on first use.
// A nil return means the disk layer is disabled (explicitly, or because no
// usable cache location exists).
func defaultRoot() *storeRoot {
	storeMu.Lock()
	defer storeMu.Unlock()
	if !storeSet {
		theRoot = openDefaultRoot()
		storeSet = true
	}
	return theRoot
}

// artifactStore returns the process's active store, or nil when builds
// have no disk layer.
func artifactStore() *diskStore {
	if r := defaultRoot(); r != nil {
		return r.active
	}
	return nil
}

// setRoot replaces the process store root (tests). Passing nil disables the
// layer; the previous root is returned for restoration.
func setRoot(r *storeRoot) *storeRoot {
	storeMu.Lock()
	defer storeMu.Unlock()
	prev := theRoot
	theRoot = r
	storeSet = true
	return prev
}

// openDefaultRoot opens the root storeSettings resolves, with the running
// binary's generation active. Builds use a compiler-fingerprint generation
// rather than the root itself: pipeline.Key covers the inputs (source ×
// config) but not the compiler, so without the fingerprint a store
// populated before a minic/codegen change would keep serving stale modules
// — a miscompilation fix would "pass" the suites without ever running.
func openDefaultRoot() *storeRoot {
	dir, maxBytes := storeSettings()
	if dir == "" || os.MkdirAll(dir, 0o755) != nil {
		return nil
	}
	r := newStoreRoot(dir, maxBytes)
	// Without a fingerprint stale-compiler artifacts are indistinguishable
	// from fresh ones; correctness beats warmth, so builds get no store.
	if fp, err := compilerFingerprint(); err == nil {
		r.active = r.gen(fp)
	}
	return r
}

var warnCacheMaxOnce sync.Once

// storeSettings resolves the process store root's location
// ($REPRO_CACHE_DIR) and size budget ($REPRO_CACHE_MAX_BYTES), which the
// builds and the server's ArtifactHandler share. An empty root means the
// disk layer is disabled: the knob is off, or there is no user cache
// directory. An unparsable budget falls back to the default rather than
// disabling the layer ($REPRO_CACHE_DIR=off is the one disable switch) —
// but loudly: a user who set the knob and mistyped it would otherwise run
// at 512 MB and never know.
func storeSettings() (root string, maxBytes int64) {
	root = os.Getenv(config.EnvCacheDir)
	switch {
	case config.Off(root):
		return "", 0
	case root == "":
		base, err := os.UserCacheDir()
		if err != nil {
			return "", 0
		}
		root = filepath.Join(base, "repro-wasm", "artifacts")
	}
	maxBytes, err := config.ParseInt(config.EnvCacheMaxBytes, os.Getenv(config.EnvCacheMaxBytes), 1, int64(defaultMaxBytes))
	if err != nil {
		warnCacheMaxOnce.Do(func() {
			fmt.Fprintf(os.Stderr, "%v; using default %d\n", err, int64(defaultMaxBytes))
		})
		maxBytes = defaultMaxBytes
	}
	return root, maxBytes
}

// compilerFingerprint identifies the code that produced an artifact: a hash
// of the running executable. The Go build cache rebuilds the binary
// whenever any transitively compiled source changes, so artifacts from an
// older compiler land under a different fingerprint and can never be
// served to a newer one. (The cost: any rebuild cold-starts the store;
// re-running an unchanged binary — the common warm path — still hits.)
func compilerFingerprint() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return "c-" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// path returns the artifact file for key, fanned out by the first key byte
// so one directory never accumulates the whole store. key must match keyRe
// (checkAddress guards every address from outside the process), so the
// path never leaves the generation.
func (s *diskStore) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+artifactExt)
}

// ioAttempts is how many times a store read or write is tried before the
// failure is treated as a miss. Transient errors (NFS hiccups, AV scanners
// holding files, injected faults) get two retries with capped jittered
// backoff; a missing artifact is the normal miss path and never retried.
const ioAttempts = 3

// retryClock is the backoff loop's time source, swappable so tests can pin
// attempt counts and backoff schedules without wall-clock sleeps or a live
// math/rand stream. It is held in an atomic so a swap never races a
// background reader (the remote tier's publish worker retries off-thread);
// sleep returns early when ctx is done (best-effort; the loop re-checks
// ctx after every sleep).
type retryClock struct {
	sleep  func(ctx context.Context, d time.Duration)
	jitter func(n int64) int64
}

var retryTime atomic.Pointer[retryClock]

func init() {
	retryTime.Store(&retryClock{
		sleep: func(ctx context.Context, d time.Duration) {
			if ctx.Done() == nil {
				time.Sleep(d)
				return
			}
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		},
		jitter: func(n int64) int64 { return rand.Int63n(n) },
	})
}

// retryIO runs op up to ioAttempts times, sleeping a capped jittered backoff
// between attempts (5–10ms, 10–20ms). fs.ErrNotExist is returned immediately:
// an absent artifact is a cache miss, not a transient fault. The fault check
// sits inside the loop so count-limited injected errors exercise the retries.
func retryIO(site, key string, op func() error) error {
	return retryIOCtx(context.Background(), site, key, ioAttempts, 0,
		func(context.Context) error { return op() })
}

// retryIOCtx is the retry loop shared by the disk store and the remote
// tier: up to attempts tries of op, capped jittered backoff between them,
// fs.ErrNotExist passed through untried (a miss is not a fault). When
// attemptTimeout is nonzero each attempt — including its fault check — runs
// under its own deadline, so an injected or real hang costs one timeout,
// not the rule's full delay; a done parent ctx stops the loop.
func retryIOCtx(ctx context.Context, site, key string, attempts int, attemptTimeout time.Duration, op func(context.Context) error) error {
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			clock := retryTime.Load()
			backoff := time.Duration(1<<attempt) * 5 * time.Millisecond / 2
			backoff += time.Duration(clock.jitter(int64(backoff) + 1))
			clock.sleep(ctx, backoff)
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if attemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, attemptTimeout)
		}
		if err = fault.CheckCtx(actx, site, key); err == nil {
			err = op(actx)
		}
		cancel()
		if err == nil || errors.Is(err, fs.ErrNotExist) || ctx.Err() != nil {
			return err
		}
	}
	return err
}

// loadBytes reads the raw artifact bytes for key. A read error is retried
// (retryIO); a missing artifact is a plain miss. Successful reads refresh
// the LRU position. No decoding or verification happens here — load and the
// artifact-serving endpoint layer their own checks on top.
func (s *diskStore) loadBytes(key string) ([]byte, bool) {
	p := s.path(key)
	var data []byte
	err := retryIO(fault.SiteStoreRead, key, func() error {
		var rerr error
		data, rerr = os.ReadFile(p)
		return rerr
	})
	if err != nil {
		return nil, false
	}
	now := time.Now()
	os.Chtimes(p, now, now) // LRU touch; best-effort
	return data, true
}

// load reads and decodes the artifact for key, reattaching cfg. A read error
// is retried (retryIO); decode failure — truncation, corruption, version
// mismatch — quarantines the artifact (so the subsequent recompile
// republishes a clean one, and the corrupt bytes stay inspectable) and
// reports a miss via ok=false.
func (s *diskStore) load(key string, cfg *codegen.EngineConfig) (*codegen.CompiledModule, bool) {
	data, ok := s.loadBytes(key)
	if !ok {
		return nil, false
	}
	cm, err := codegen.DecodeModule(data, cfg)
	if err != nil {
		s.quarantine(s.path(key))
		return nil, false
	}
	return cm, true
}

// saveBytes atomically publishes already-encoded artifact bytes under key,
// then charges them to the root's size budget. Publication is retried
// like reads; persistent failure leaves the store without the artifact,
// which only costs a future recompile. The caller is responsible for the
// bytes being a valid artifact for key (build encodes its own output; the
// remote paths verify before saving).
func (s *diskStore) saveBytes(key string, data []byte) error {
	p := s.path(key)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := retryIO(fault.SiteStoreWrite, key, func() error {
		return s.publish(dir, p, data)
	})
	if err != nil {
		return err
	}
	s.root.evict(int64(len(data)))
	return nil
}

// publish writes data to a temp file in dir and renames it over p. Atomic
// publication: concurrent writers of one key rename complete files over each
// other; readers never see a partial artifact.
func (s *diskStore) publish(dir, p string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Quarantine layout: corrupt artifacts are moved (not deleted) to
// quarantine/<base>.rpa.quarantined under the store root. The extra suffix
// keeps scan from ever counting them as artifacts again; the age bound keeps
// a store that keeps corrupting (bad disk) from leaking space forever.
const (
	quarantineDirName = "quarantine"
	quarantinedExt    = ".quarantined"
	// staleQuarantineAge is how long a quarantined artifact is kept for
	// inspection before a sweep reclaims it.
	staleQuarantineAge = 24 * time.Hour
)

// quarantine moves the corrupt artifact at p aside instead of silently
// deleting it: corruption is a signal (bad disk, torn write, encoder bug)
// that should stay visible in CacheStats and inspectable on disk. Falls back
// to removal when the move fails — a corrupt artifact must never be
// re-served either way.
func (s *diskStore) quarantine(p string) {
	count(&stats.Corrupt)
	qdir := filepath.Join(s.dir, quarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(p)
		return
	}
	if err := os.Rename(p, filepath.Join(qdir, filepath.Base(p)+quarantinedExt)); err != nil {
		os.Remove(p)
		return
	}
	count(&stats.Quarantined)
}

// reclaimQuarantine removes quarantined artifacts old enough that nobody is
// coming back to inspect them. Called from scan, so reclamation rides the
// same sweeps that bound the store's size.
func (s *diskStore) reclaimQuarantine(now time.Time) {
	qdir := filepath.Join(s.dir, quarantineDirName)
	ents, err := os.ReadDir(qdir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), quarantinedExt) {
			removeStale(filepath.Join(qdir, ent.Name()), ent, now, staleQuarantineAge)
		}
	}
}

// removeStale removes the file p, whose directory entry is ent, once it is
// older than age.
func removeStale(p string, ent fs.DirEntry, now time.Time, age time.Duration) {
	if info, err := ent.Info(); err == nil && now.Sub(info.ModTime()) > age {
		os.Remove(p)
	}
}

// sweepLockName is the cross-process sweep sentinel at the store root.
// Concurrent `go test` processes sharing one REPRO_CACHE_DIR each used to
// sweep independently — safe (removals of just-read files are benign) but
// wasteful: every process walked the whole store. The sentinel elects one
// sweeper: whoever creates it (O_EXCL) sweeps; everyone else skips, keeps
// its over-budget size accounting, and retries at its next publish, by
// which point the elected sweeper has usually brought the store under
// budget anyway.
const sweepLockName = ".sweep-lock"

// staleSweepLockAge is how old the sentinel must be before another process
// steals it: far longer than any sweep (milliseconds), short enough that a
// sweeper killed mid-walk cannot disable eviction for the store's lifetime.
const staleSweepLockAge = 10 * time.Minute

// tryLockSweep claims the sweep sentinel. It never blocks: a fresh sentinel
// means another process is sweeping and the caller should skip; a stale one
// (crashed sweeper) is removed and the claim retried once.
func (r *storeRoot) tryLockSweep(now time.Time) bool {
	p := filepath.Join(r.dir, sweepLockName)
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(p, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return true
		}
		if !os.IsExist(err) {
			// Unwritable root: the store is best-effort everywhere else
			// too, so just skip the sweep.
			return false
		}
		info, serr := os.Stat(p)
		if serr != nil {
			// The holder released between our create and stat; retry once.
			continue
		}
		if now.Sub(info.ModTime()) <= staleSweepLockAge {
			return false
		}
		// Stale sentinel from a crashed sweeper: steal it by renaming it
		// aside. The rename is the atomic election — exactly one contender
		// succeeds (the rest see ENOENT and report the lock busy), so a
		// loser's cleanup can never delete the sentinel the winner is
		// about to create with O_EXCL.
		stolen := fmt.Sprintf("%s.stale-%d", p, os.Getpid())
		if os.Rename(p, stolen) != nil {
			return false
		}
		os.Remove(stolen)
	}
	return false
}

// unlockSweep releases the sweep sentinel.
func (r *storeRoot) unlockSweep() {
	os.Remove(filepath.Join(r.dir, sweepLockName))
}

// staleTempAge is how old an unpublished .tmp-* file must be before a sweep
// reclaims it: long enough that a concurrent writer's in-flight temp file
// is never deleted under it, short enough that crashed writers cannot leak
// space across runs.
const staleTempAge = time.Hour

// evict charges justWrote bytes against the root's running size total and,
// once the budget is exceeded, sweeps the root back under it. mtime is the
// LRU clock: load refreshes it on every hit. The running total makes the
// common under-budget publish O(1) — only sweeps walk the directory, and
// only one process at a time does (the sweep sentinel): a loser keeps its
// over-budget accounting and retries at its next publish.
func (r *storeRoot) evict(justWrote int64) {
	r.evictMu.Lock()
	defer r.evictMu.Unlock()
	if r.sized {
		r.curBytes += justWrote
		if r.curBytes <= r.maxBytes {
			return
		}
	}
	if !r.tryLockSweep(time.Now()) {
		return
	}
	defer r.unlockSweep()
	// Sweep to 90% of the budget, not the budget itself: a store hovering
	// at its cap would otherwise pay a full directory walk on every
	// publish. The slack amortizes one walk over many publishes. (Explicit
	// GCStore still targets the exact budget — the user asked for it.)
	r.sweepTo(r.maxBytes - r.maxBytes/10)
}

// scan walks every generation of the root, reclaiming what dead processes
// left behind along the way — stale temp files, orphaned stolen sweep
// sentinels and old quarantined artifacts — and returns every artifact
// least-recently-used first: the order a sweep evicts them and every
// listing reports them. An unreadable root is an error, so callers can tell
// "empty" from "unknown" and leave the size accounting alone. Callers hold
// evictMu.
func (r *storeRoot) scan(now time.Time) ([]ArtifactInfo, error) {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, err
	}
	var arts []ArtifactInfo
	for _, ent := range ents {
		switch {
		case ent.IsDir() && fpRe.MatchString(ent.Name()):
			arts = r.gen(ent.Name()).scan(arts, now)
		case strings.HasPrefix(ent.Name(), sweepLockName+".stale-"):
			// A stolen sentinel whose thief died between the rename-aside
			// and the remove; reclaim it once the thief is certainly gone.
			removeStale(filepath.Join(r.dir, ent.Name()), ent, now, staleSweepLockAge)
		}
	}
	sort.Slice(arts, func(i, j int) bool { return arts[i].ModTime.Before(arts[j].ModTime) })
	return arts, nil
}

// scan appends the generation's artifacts to arts, reclaiming its stale
// temp files and old quarantined artifacts.
func (s *diskStore) scan(arts []ArtifactInfo, now time.Time) []ArtifactInfo {
	subdirs, _ := os.ReadDir(s.dir)
	for _, sub := range subdirs {
		if sub.Name() == quarantineDirName {
			s.reclaimQuarantine(now)
			continue
		}
		if !sub.IsDir() {
			continue
		}
		dir := filepath.Join(s.dir, sub.Name())
		ents, _ := os.ReadDir(dir)
		for _, ent := range ents {
			name := ent.Name()
			if filepath.Ext(name) != artifactExt {
				// Orphaned temp file from a writer that died between
				// CreateTemp and Rename.
				if strings.HasPrefix(name, ".tmp-") {
					removeStale(filepath.Join(dir, name), ent, now, staleTempAge)
				}
				continue
			}
			if info, err := ent.Info(); err == nil {
				arts = append(arts, ArtifactInfo{
					Generation: filepath.Base(s.dir),
					Key:        strings.TrimSuffix(name, artifactExt),
					Size:       info.Size(),
					ModTime:    info.ModTime(),
					Path:       filepath.Join(dir, name),
				})
			}
		}
	}
	return arts
}

// sweepTo walks the root and removes least-recently-used artifacts, across
// all generations, until the total fits under target bytes, re-truing the
// running size total. Callers hold evictMu. It reports how many artifacts
// were removed and the bytes they freed. A failed scan leaves the size
// accounting untouched (the next sweep retries) rather than re-truing it
// to zero.
func (r *storeRoot) sweepTo(target int64) (removed int, freed int64) {
	arts, err := r.scan(time.Now())
	if err != nil {
		return 0, 0
	}
	var total int64
	for _, a := range arts {
		total += a.Size
	}
	for _, a := range arts {
		if total <= target {
			break
		}
		if os.Remove(a.Path) == nil {
			total -= a.Size
			removed++
			freed += a.Size
		}
	}
	r.curBytes = total
	r.sized = true
	return removed, freed
}

// list enumerates the root's artifacts, every generation's,
// least-recently-used first (the order an eviction sweep removes them).
func (r *storeRoot) list() ([]ArtifactInfo, error) {
	r.evictMu.Lock()
	defer r.evictMu.Unlock()
	return r.scan(time.Now())
}
