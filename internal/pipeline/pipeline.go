// Package pipeline is the shared artifact and execution layer every run
// path in the reproduction sits on: a process-wide content-addressed build
// cache (one compile per distinct mini-C source × engine configuration, no
// matter how many harnesses, tests, or CLIs ask for it) layered over a
// disk-backed artifact store (one compile per content address across
// processes — repeated CLI invocations, test runs, and CI jobs start warm),
// a budget-bounded job scheduler for suite fan-out (internal/sched: suite
// jobs and the per-function compile fan-out inside them draw workers from
// one process-wide token budget, so parallelism is ~GOMAXPROCS at any
// nesting depth), and the canonical "run one binary in a fresh kernel"
// helper. The spec harness, the workloads differential tests, the examples,
// and the cmd/* binaries all build and execute through this package, so
// builds are shared and suite parallelism is governed in one place.
//
// The unit of work is the serializable Request (module, engine, argv,
// files, fidelity, limits) and its Result (exit code, stdout, counters,
// cache traffic, typed error class); the canonical verbs are Compile,
// Execute, and Do in request.go. The same struct a test builds in-process
// is what cmd/repro-serve accepts as an HTTP body, so there is exactly one
// spelling of "run this program under that engine" across the repo and the
// wire.
package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/codegen"
	"repro/internal/fault"
	"repro/internal/minic"
	"repro/internal/wasm"
)

// ABIFor returns the data model an engine compiles: x86-64 for the native
// configuration, wasm32 for the browser engines.
func ABIFor(cfg *codegen.EngineConfig) minic.ABI {
	if cfg.Name == "native" {
		return minic.ABI64
	}
	return minic.ABI32
}

// Key returns the content address of one build: a hash of the mini-C source
// and the full engine configuration. Two configs that differ in any field —
// not just the name — hash differently, so ablation configs never collide
// with the stock engines even when a caller forgets to rename them.
func Key(src string, cfg *codegen.EngineConfig) string {
	h := sha256.New()
	io.WriteString(h, src)
	h.Write([]byte{0})
	// %#v spells out every exported field by name, so the key tracks
	// EngineConfig growth without a hand-maintained encoder.
	fmt.Fprintf(h, "%#v", *cfg)
	return hex.EncodeToString(h.Sum(nil))
}

// buildEntry is one cache slot. The entry is published in the map before
// the compile runs; once.Do makes concurrent requesters of the same key
// share a single compile instead of racing.
type buildEntry struct {
	once sync.Once
	cm   *codegen.CompiledModule
	err  error
	// outcome is the cache traffic the winning requester generated (one
	// disk hit or one miss); later requesters report a memory hit instead.
	// Per-request Results carry it so a serving client can see whether its
	// run compiled cold without racing other tenants for the global totals.
	outcome CacheStats
}

var (
	buildMu    sync.Mutex
	buildCache = map[string]*buildEntry{}
	stats      CacheStats
)

// CacheStats counts build-cache traffic since process start (or a snapshot,
// via Sub). A memory hit found the module already resident; a disk hit
// loaded it from the cross-process artifact store; a remote hit fetched a
// verified artifact from the shared remote tier; a miss ran the compiler.
// Corrupt counts artifacts that read back undecodable (truncation, bit
// flips, version skew) — each is also a miss — and Quarantined counts how
// many of those were successfully moved aside for inspection rather than
// deleted. A nonzero Corrupt in a suite summary is a disk or encoder
// problem worth chasing; silent deletion used to hide it.
//
// The Remote* counters make remote-tier degradation observable without ever
// making it a failure: RemotePuts counts successful async publishes,
// RemoteErrors counts remote calls that exhausted their retries (each one
// silently fell back to the local tiers), and RemoteRejects counts fetched
// payloads that failed sha256 verification (rejected, never decoded, and
// negative-cached for the process). A local-only run reports all four as
// zero, and they are omitted from the wire when zero, so a run that never
// touched a remote serializes exactly as it did before the tier existed.
// The JSON spellings are part of the serving wire format (see Request) and
// are pinned by golden fixtures; do not rename casually.
type CacheStats struct {
	MemHits       uint64 `json:"mem_hits"`
	DiskHits      uint64 `json:"disk_hits"`
	Misses        uint64 `json:"misses"`
	Corrupt       uint64 `json:"corrupt,omitempty"`
	Quarantined   uint64 `json:"quarantined,omitempty"`
	RemoteHits    uint64 `json:"remote_hits,omitempty"`
	RemotePuts    uint64 `json:"remote_puts,omitempty"`
	RemoteErrors  uint64 `json:"remote_errors,omitempty"`
	RemoteRejects uint64 `json:"remote_rejects,omitempty"`
}

// Sub returns the per-interval delta s - prev; bracket a suite with Stats()
// calls to get its traffic.
func (s CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{
		MemHits:       s.MemHits - prev.MemHits,
		DiskHits:      s.DiskHits - prev.DiskHits,
		Misses:        s.Misses - prev.Misses,
		Corrupt:       s.Corrupt - prev.Corrupt,
		Quarantined:   s.Quarantined - prev.Quarantined,
		RemoteHits:    s.RemoteHits - prev.RemoteHits,
		RemotePuts:    s.RemotePuts - prev.RemotePuts,
		RemoteErrors:  s.RemoteErrors - prev.RemoteErrors,
		RemoteRejects: s.RemoteRejects - prev.RemoteRejects,
	}
}

func (s CacheStats) String() string {
	out := fmt.Sprintf("mem=%d disk=%d miss=%d", s.MemHits, s.DiskHits, s.Misses)
	if s.Corrupt != 0 || s.Quarantined != 0 {
		out += fmt.Sprintf(" corrupt=%d quarantined=%d", s.Corrupt, s.Quarantined)
	}
	if s.RemoteHits != 0 || s.RemotePuts != 0 || s.RemoteErrors != 0 || s.RemoteRejects != 0 {
		out += fmt.Sprintf(" remote: hits=%d puts=%d errors=%d rejects=%d",
			s.RemoteHits, s.RemotePuts, s.RemoteErrors, s.RemoteRejects)
	}
	return out
}

// Stats snapshots the build-cache counters.
func Stats() CacheStats {
	buildMu.Lock()
	defer buildMu.Unlock()
	return stats
}

// count adds one to the build-cache counter c, a field of stats.
func count(c *uint64) {
	buildMu.Lock()
	*c++
	buildMu.Unlock()
}

// build compiles src for cfg through the process-wide cache, layered over
// the disk-backed artifact store. The returned module is shared (the same
// pointer for the same content) and must be treated as immutable;
// instantiation state lives in cpu.Machine, not here. Failed builds are
// cached too (in memory only): identical inputs fail identically.
//
// Cancellation is deliberately stripped before the compile runs: a cache
// entry is shared by every requester of the same content, so one caller's
// cancelled context must never abort (or, worse, poison with its
// cancellation error) a compile another caller is waiting on — and cached
// failures stay input-deterministic. What survives is the context's values,
// in particular the shared scheduler's pool marker: a build reached from
// inside a RunJobs job (a suite shard) compiles without double-charging the
// worker budget for the goroutine it is already running on.
//
// The returned CacheStats is this request's own traffic — exactly one of
// {MemHits: 1}, {DiskHits: 1}, or {Misses: 1} on the non-fault paths — and
// sums across requesters to the global Stats deltas: concurrent identical
// requests singleflight into one disk hit or miss plus N-1 memory hits.
func build(ctx context.Context, src string, cfg *codegen.EngineConfig) (*codegen.CompiledModule, CacheStats, error) {
	k := Key(src, cfg)
	var mine CacheStats
	buildMu.Lock()
	e, ok := buildCache[k]
	if !ok {
		e = &buildEntry{}
		buildCache[k] = e
	} else {
		stats.MemHits++
		mine.MemHits++
	}
	buildMu.Unlock()
	e.once.Do(func() {
		// The compile fault site fires before the store is consulted, keyed
		// by the suite-provided label (workload name) or the engine name, so
		// an injected compile panic can never be masked by a warm cache.
		if ferr := fault.Check(fault.SiteCompile, buildLabel(ctx, cfg)); ferr != nil {
			e.err = ferr
			return
		}
		s := artifactStore()
		if s != nil {
			if cm, ok := s.load(k, cfg); ok {
				count(&stats.DiskHits)
				e.outcome.DiskHits++
				e.cm = cm
				return
			}
		}
		// Disk missed: try the shared remote tier before paying for a
		// compile. Cancellation is stripped for the same reason it is for
		// the compile below — the fetched artifact is shared state. Any
		// remote failure (timeout, breaker open, bad payload) lands here as
		// a miss; the remote tier is an accelerator, never a dependency.
		if rc := remoteCache(); rc != nil {
			if data, ok := rc.fetch(context.WithoutCancel(ctx), k); ok {
				// fetch has verified the sha256 trailer; decode without
				// hashing the same bytes again.
				if cm, derr := codegen.DecodeVerifiedModule(data, cfg); derr == nil {
					count(&stats.RemoteHits)
					e.outcome.RemoteHits++
					e.cm = cm
					if s != nil {
						// Backfill the local store so the next process on
						// this host hits disk instead of the network. A
						// write failure only costs that future hit.
						s.saveBytes(k, data)
					}
					return
				}
				// Verified bytes that still fail to decode mean version skew
				// between fleets (trailer ok, format drift): reject and
				// negative-cache like a corrupt payload.
				rc.reject(k)
			}
		}
		count(&stats.Misses)
		e.outcome.Misses++
		e.cm, e.err = buildUncached(context.WithoutCancel(ctx), src, cfg)
		if e.err == nil && (s != nil || remoteCache() != nil) {
			if data, eerr := codegen.EncodeModule(e.cm); eerr == nil {
				if s != nil {
					s.saveBytes(k, data)
				}
				if rc := remoteCache(); rc != nil {
					rc.enqueuePut(k, data)
				}
			}
		}
	})
	if mine.MemHits == 0 {
		// This requester created the entry: report the winner's outcome
		// (its own, unless it lost the once race to a faster second
		// requester — the counts still sum correctly either way).
		mine = e.outcome
	}
	if e.cm == nil && e.err == nil {
		// The entry's compile panicked: once.Do marks the entry done on the
		// way out of the unwinding, leaving both fields nil. The panicking
		// requester propagates the panic to its job boundary (JobPanicError);
		// every later requester of the same content gets this deterministic
		// error instead of a nil module.
		return nil, mine, fmt.Errorf("pipeline: build of %s panicked (poisoned cache entry)", k[:12])
	}
	return e.cm, mine, e.err
}

// buildLabel is the compile fault site's key: the fault.WithLabel value when
// a suite layer attached one (the workload name), else the engine name.
func buildLabel(ctx context.Context, cfg *codegen.EngineConfig) string {
	if l := fault.LabelOf(ctx); l != "" {
		return l
	}
	return cfg.Name
}

// wasmSrcPrefix tags a raw wasm binary travelling through the string-keyed
// build path (Request.Wasm). The NUL bytes cannot appear in mini-C source,
// so wasm modules and source programs can never collide on a content
// address, and the cache, store, and singleflight layers need no second
// code path.
const wasmSrcPrefix = "\x00wasm\x00"

// buildUncached is the raw mini-C → engine pipeline with no caching. A
// wasmSrcPrefix-tagged src is a raw wasm binary instead: decoded,
// validated, and compiled directly, skipping the mini-C front-end.
func buildUncached(ctx context.Context, src string, cfg *codegen.EngineConfig) (*codegen.CompiledModule, error) {
	if raw, ok := strings.CutPrefix(src, wasmSrcPrefix); ok {
		m, err := wasm.Decode([]byte(raw))
		if err != nil {
			return nil, fmt.Errorf("decoding wasm module: %w", err)
		}
		if err := wasm.Validate(m); err != nil {
			return nil, fmt.Errorf("validating wasm module: %w", err)
		}
		cm, err := codegen.CompileContext(ctx, m, cfg)
		if err != nil {
			return nil, err
		}
		// Raw wasm is always the wasm32 data model, whatever the engine's
		// ABI for mini-C would be: pointers handed to _start are i32.
		cm.PtrSize = 4
		return cm, nil
	}
	abi := ABIFor(cfg)
	m, err := minic.Compile(src, abi)
	if err != nil {
		return nil, err
	}
	cm, err := codegen.CompileContext(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	cm.PtrSize = abi.PtrSize
	return cm, nil
}
