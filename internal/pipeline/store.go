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

// Environment knobs (canonical names in internal/config).
const (
	// cacheDirEnv overrides the store location. The values "off", "0", and
	// "none" disable the disk layer.
	cacheDirEnv = config.EnvCacheDir
	// cacheMaxEnv overrides the store size budget in bytes.
	cacheMaxEnv = config.EnvCacheMaxBytes
	// summaryEnv names a file that ReportTotals appends to, so CI can
	// surface per-process summaries that `go test` elides for passing
	// packages.
	summaryEnv = config.EnvCacheSummary

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
	line := fmt.Sprintf("[pipeline] %s cache totals: %v\n", label, Stats())
	if info, ok := RemoteState(); ok {
		line = fmt.Sprintf("[pipeline] %s cache totals: %v breaker=%s\n", label, Stats(), info.Breaker)
	}
	fmt.Print(line)
	if p := os.Getenv(summaryEnv); p != "" {
		if f, err := os.OpenFile(p, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			f.WriteString(line)
			f.Close()
		}
	}
}

// diskStore is one artifact store rooted at dir.
type diskStore struct {
	dir      string
	maxBytes int64

	// evictMu serializes eviction sweeps within the process and guards
	// curBytes/sized. Across processes the sweep sentinel (tryLockSweep)
	// elects a single sweeper; a concurrent sweep would still be safe
	// (removal of a file another process just read is benign — the reader
	// has its bytes), the sentinel only removes the wasted double scan.
	evictMu sync.Mutex
	// curBytes approximates the store's total size so publishes far under
	// budget skip the full directory sweep; it is seeded by one scan and
	// re-trued by every real sweep. Overwrites of an existing key
	// over-count, which only makes a sweep happen sooner, never later.
	curBytes int64
	sized    bool
}

var (
	storeMu  sync.Mutex
	theStore *diskStore
	storeSet bool
)

// artifactStore returns the process-wide disk store, opening it on first
// use. A nil return means the disk layer is disabled (explicitly, or because
// no writable location exists).
func artifactStore() *diskStore {
	storeMu.Lock()
	defer storeMu.Unlock()
	if !storeSet {
		theStore = openDefaultStore()
		storeSet = true
	}
	return theStore
}

// setStore replaces the process store (tests). Passing nil disables the
// layer; the previous store is returned for restoration.
func setStore(s *diskStore) *diskStore {
	storeMu.Lock()
	defer storeMu.Unlock()
	prev := theStore
	theStore = s
	storeSet = true
	return prev
}

// openDefaultStore resolves the store location from the environment. The
// actual store root is a compiler-fingerprint subdirectory of the
// configured location: pipeline.Key covers the inputs (source × config)
// but not the compiler, so without the fingerprint a store populated
// before a minic/codegen change would keep serving stale modules — a
// miscompilation fix would "pass" the suites without ever running.
func openDefaultStore() *diskStore {
	dir := os.Getenv(cacheDirEnv)
	switch dir {
	case "off", "0", "none":
		return nil
	case "":
		base, err := os.UserCacheDir()
		if err != nil {
			return nil
		}
		dir = filepath.Join(base, "repro-wasm", "artifacts")
	}
	maxBytes := int64(defaultMaxBytes)
	if n, err := parseCacheMax(os.Getenv(cacheMaxEnv)); err != nil {
		// An unparsable budget falls back to the default rather than
		// silently disabling the layer (REPRO_CACHE_DIR=off is the one
		// disable switch) — but loudly: a user who set the knob and mistyped
		// it would otherwise run at 512 MB and never know.
		warnCacheMaxOnce.Do(func() {
			fmt.Fprintf(os.Stderr, "%v; using default %d\n", err, int64(defaultMaxBytes))
		})
	} else if n > 0 {
		maxBytes = n
	}
	fp, err := compilerFingerprint()
	if err != nil {
		// Without a fingerprint stale-compiler artifacts are
		// indistinguishable from fresh ones; correctness beats warmth.
		return nil
	}
	s := openStore(filepath.Join(dir, fp), maxBytes)
	if s != nil {
		pruneFingerprints(dir, fp)
	}
	return s
}

var warnCacheMaxOnce sync.Once

// parseCacheMax parses a $REPRO_CACHE_MAX_BYTES value (the shared contract
// lives in internal/config). Empty selects the default (ok with n == 0);
// anything that is not a positive integer is an error — the caller decides
// whether to warn, but never silently treats a typo as "use the default".
func parseCacheMax(v string) (n int64, err error) {
	return config.ParseCacheMaxBytes(v)
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

// keepFingerprints bounds how many compiler generations the store retains
// (the active one plus the most recently used others — useful when
// switching between branches or between test binaries of different
// packages).
const keepFingerprints = 8

// pruneFingerprints removes the oldest compiler-generation directories
// under root, keeping the active one (touched so it reads as newest) and
// the keepFingerprints-1 most recently used others. This is the only
// cleanup old generations get — per-generation LRU eviction never crosses
// fingerprint boundaries.
func pruneFingerprints(root, active string) {
	now := time.Now()
	os.Chtimes(filepath.Join(root, active), now, now)
	ents, err := os.ReadDir(root)
	if err != nil {
		return
	}
	type gen struct {
		name  string
		mtime time.Time
	}
	var gens []gen
	for _, ent := range ents {
		if !ent.IsDir() || !strings.HasPrefix(ent.Name(), "c-") || ent.Name() == active {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		gens = append(gens, gen{ent.Name(), info.ModTime()})
	}
	if len(gens) <= keepFingerprints-1 {
		return
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].mtime.After(gens[j].mtime) })
	for _, g := range gens[keepFingerprints-1:] {
		os.RemoveAll(filepath.Join(root, g.name))
	}
}

// openStore opens (creating if needed) a store rooted at dir, returning nil
// when the location is unusable.
func openStore(dir string, maxBytes int64) *diskStore {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil
	}
	return &diskStore{dir: dir, maxBytes: maxBytes}
}

// path returns the artifact file for key, fanned out by the first key byte
// so one directory never accumulates the whole store.
func (s *diskStore) path(key string) string {
	if len(key) < 2 {
		key = "zz" + key
	}
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
// then sweeps the store back under its size budget. Publication is retried
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
	s.evict(int64(len(data)))
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
	countCorrupt()
	qdir := filepath.Join(s.dir, quarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(p)
		return
	}
	if err := os.Rename(p, filepath.Join(qdir, filepath.Base(p)+quarantinedExt)); err != nil {
		os.Remove(p)
		return
	}
	countQuarantined()
}

// reclaimQuarantine removes quarantined artifacts old enough that nobody is
// coming back to inspect them. Called from scan, so reclamation rides the
// same sweeps that bound the store's size.
func (s *diskStore) reclaimQuarantine(now time.Time) {
	ents, err := os.ReadDir(filepath.Join(s.dir, quarantineDirName))
	if err != nil {
		return
	}
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), quarantinedExt) {
			continue
		}
		if info, err := ent.Info(); err == nil && now.Sub(info.ModTime()) > staleQuarantineAge {
			os.Remove(filepath.Join(s.dir, quarantineDirName, ent.Name()))
		}
	}
}

// storedFile is one artifact during an eviction sweep.
type storedFile struct {
	path  string
	size  int64
	mtime time.Time
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
func (s *diskStore) tryLockSweep(now time.Time) bool {
	p := filepath.Join(s.dir, sweepLockName)
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
func (s *diskStore) unlockSweep() {
	os.Remove(filepath.Join(s.dir, sweepLockName))
}

// staleTempAge is how old an unpublished .tmp-* file must be before a sweep
// reclaims it: long enough that a concurrent writer's in-flight temp file
// is never deleted under it, short enough that crashed writers cannot leak
// space across runs.
const staleTempAge = time.Hour

// evict charges justWrote bytes against the running size total and, once
// the budget is exceeded, sweeps the store back under it. mtime is the LRU
// clock: load refreshes it on every hit. The running total makes the common
// under-budget publish O(1) — only sweeps walk the directory, and only one
// process at a time does (the sweep sentinel): a loser keeps its
// over-budget accounting and retries at its next publish.
func (s *diskStore) evict(justWrote int64) {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	if s.sized {
		s.curBytes += justWrote
		if s.curBytes <= s.maxBytes {
			return
		}
	}
	if !s.tryLockSweep(time.Now()) {
		return
	}
	defer s.unlockSweep()
	// Sweep to 90% of the budget, not the budget itself: a store hovering
	// at its cap would otherwise pay a full directory walk on every
	// publish. The slack amortizes one walk over many publishes. (Explicit
	// GCStore still targets the exact budget — the user asked for it.)
	s.sweepTo(s.maxBytes - s.maxBytes/10)
}

// scan walks the store, reclaiming stale temp files from interrupted
// writers along the way, and returns every artifact on disk. An unreadable
// store root is an error, so callers can tell "empty" from "unknown" and
// leave the size accounting alone. Callers hold evictMu.
func (s *diskStore) scan(now time.Time) ([]storedFile, error) {
	var files []storedFile
	subdirs, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	for _, sub := range subdirs {
		if sub.Name() == quarantineDirName {
			s.reclaimQuarantine(now)
			continue
		}
		if !sub.IsDir() {
			// A .sweep-lock.stale-<pid> orphan is a stolen sentinel whose
			// thief died between the rename-aside and the remove; reclaim
			// it once it is old enough that the thief is certainly gone.
			if strings.HasPrefix(sub.Name(), sweepLockName+".stale-") {
				if info, err := sub.Info(); err == nil && now.Sub(info.ModTime()) > staleSweepLockAge {
					os.Remove(filepath.Join(s.dir, sub.Name()))
				}
			}
			continue
		}
		ents, err := os.ReadDir(filepath.Join(s.dir, sub.Name()))
		if err != nil {
			continue
		}
		for _, ent := range ents {
			p := filepath.Join(s.dir, sub.Name(), ent.Name())
			info, err := ent.Info()
			if err != nil {
				continue
			}
			if filepath.Ext(ent.Name()) != artifactExt {
				// Orphaned temp file from a writer that died between
				// CreateTemp and Rename.
				if strings.HasPrefix(ent.Name(), ".tmp-") && now.Sub(info.ModTime()) > staleTempAge {
					os.Remove(p)
				}
				continue
			}
			files = append(files, storedFile{path: p, size: info.Size(), mtime: info.ModTime()})
		}
	}
	return files, nil
}

// sweepTo walks the store and removes least-recently-used artifacts until
// the total fits under target bytes, re-truing the running size total.
// Callers hold evictMu. It reports how many artifacts were removed and the
// bytes they freed. A failed scan leaves the size accounting untouched
// (the next sweep retries) rather than re-truing it to zero.
func (s *diskStore) sweepTo(target int64) (removed int, freed int64) {
	files, err := s.scan(time.Now())
	if err != nil {
		return 0, 0
	}
	var total int64
	for _, f := range files {
		total += f.size
	}
	if total > target {
		sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
		for _, f := range files {
			if total <= target {
				break
			}
			if os.Remove(f.path) == nil {
				total -= f.size
				removed++
				freed += f.size
			}
		}
	}
	s.curBytes = total
	s.sized = true
	return removed, freed
}
