package pipeline

// Internal tests for the disk-backed artifact store: every damage shape a
// shared cache directory can accumulate — truncation, bit flips, stale
// format versions, concurrent writers — must read as a clean miss that
// recompiles and republishes, never as an error or a wrong module, and the
// recompiled module must be bit-identical in execution to an uncached build.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/config"
)

const storeProbeSrc = `
int main() {
  int i; int acc;
  acc = 0;
  for (i = 0; i < 50; i++) { acc += i * 3; }
  print_int(acc);
  print_nl();
  return 0;
}`

// withTestStore points the process at a fresh store root in a temp dir and
// returns its active generation, the store every Compile in the test
// publishes to. State is restored on cleanup.
func withTestStore(t *testing.T, maxBytes int64) *diskStore {
	t.Helper()
	fp, err := compilerFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	r := newStoreRoot(t.TempDir(), maxBytes)
	r.activate(fp)
	if r.active == nil {
		t.Fatal("cannot open the active generation in a temp dir")
	}
	prev := setRoot(r)
	t.Cleanup(func() { setRoot(prev) })
	return r.active
}

// dropMemEntry evicts one key from the in-memory layer so the next Compile
// goes back to disk.
func dropMemEntry(key string) {
	buildMu.Lock()
	delete(buildCache, key)
	buildMu.Unlock()
}

// execCounters runs cm in a fresh kernel and returns the retired
// instruction and cycle counters.
func execCounters(t *testing.T, cm *codegen.CompiledModule) (string, uint64, uint64) {
	t.Helper()
	res, err := Execute(context.Background(), cm, &Request{})
	if err != nil {
		t.Fatal(err)
	}
	res.Proc.Inst.FlushCycles()
	c := res.Proc.Inst.Counters
	return res.Stdout, c.Instructions, c.Cycles
}

// TestStoreRoundTripBitIdentical checks a disk-loaded module executes
// bit-identically to the uncached compile it was stored from.
func TestStoreRoundTripBitIdentical(t *testing.T) {
	withTestStore(t, defaultMaxBytes)
	cfg := codegen.Chrome()
	key := Key(storeProbeSrc, cfg)

	fresh, err := Compile(context.Background(), &Request{Module: storeProbeSrc, Config: cfg}) // miss: compiles and publishes
	if err != nil {
		t.Fatal(err)
	}
	dropMemEntry(key)
	before := Stats()
	loaded, err := Compile(context.Background(), &Request{Module: storeProbeSrc, Config: cfg}) // disk hit
	if err != nil {
		t.Fatal(err)
	}
	if d := Stats().Sub(before); d.DiskHits != 1 || d.Misses != 0 {
		t.Errorf("expected exactly one disk hit, got %v", d)
	}
	if loaded == fresh {
		t.Fatal("expected a distinct module instance from the disk layer")
	}
	o1, i1, c1 := execCounters(t, fresh)
	o2, i2, c2 := execCounters(t, loaded)
	if o1 != o2 || i1 != i2 || c1 != c2 {
		t.Errorf("disk-loaded module diverged: out %q/%q insts %d/%d cycles %d/%d", o1, o2, i1, i2, c1, c2)
	}
}

// corruptionCase mutates a stored artifact in place.
type corruptionCase struct {
	name   string
	mutate func(t *testing.T, path string)
}

// TestStoreCorruptionFallsBackToRecompile checks each damage shape falls
// back to a silent recompile: Compile returns a working module and no error,
// a miss is counted, and execution counters match the clean build exactly.
func TestStoreCorruptionFallsBackToRecompile(t *testing.T) {
	cfg := codegen.Firefox()
	key := Key(storeProbeSrc, cfg)

	// Reference counters from a store-less build.
	prev := setRoot(nil)
	t.Cleanup(func() { setRoot(prev) })
	ref, err := buildUncached(context.Background(), storeProbeSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refOut, refInsts, refCycles := execCounters(t, ref)

	cases := []corruptionCase{
		{"truncated", func(t *testing.T, p string) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, data[:len(data)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped", func(t *testing.T, p string) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x04
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"stale-version", func(t *testing.T, p string) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			data[4] = byte(codegen.ArtifactVersion + 7)
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		// An artifact a version-1 build left in the store (data segments
		// stored twice) reads as a miss and is recompiled.
		{"version-1", func(t *testing.T, p string) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			data[4] = 1
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		// An artifact a version-2 build left in the store (embedded wasm
		// module) reads as a miss and is recompiled, even with an intact
		// trailer: the header is rewritten and the trailer resealed, so
		// only the version check can catch it.
		{"version-2", func(t *testing.T, p string) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			data[4] = 2
			n := len(data) - sha256.Size
			sum := sha256.Sum256(data[:n])
			copy(data[n:], sum[:])
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, p string) {
			if err := os.WriteFile(p, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := withTestStore(t, defaultMaxBytes)
			dropMemEntry(key) // force the publish path against this store
			// Publish a clean artifact.
			if _, err := Compile(context.Background(), &Request{Module: storeProbeSrc, Config: cfg}); err != nil {
				t.Fatal(err)
			}
			p := s.path(key)
			if _, err := os.Stat(p); err != nil {
				t.Fatalf("artifact not published: %v", err)
			}
			tc.mutate(t, p)
			dropMemEntry(key)

			before := Stats()
			cm, err := Compile(context.Background(), &Request{Module: storeProbeSrc, Config: cfg})
			if err != nil {
				t.Fatalf("corrupt artifact surfaced an error: %v", err)
			}
			d := Stats().Sub(before)
			if d.Misses != 1 || d.DiskHits != 0 {
				t.Errorf("damage must count as a miss: %v", d)
			}
			if d.Quarantined != 1 {
				t.Errorf("damaged artifact not quarantined: %v", d)
			}
			out, insts, cycles := execCounters(t, cm)
			if out != refOut || insts != refInsts || cycles != refCycles {
				t.Errorf("recompiled module not bit-identical to uncached build: out %q/%q insts %d/%d cycles %d/%d",
					out, refOut, insts, refInsts, cycles, refCycles)
			}
			// The recompile republishes a clean artifact over the damage.
			dropMemEntry(key)
			before = Stats()
			if _, err := Compile(context.Background(), &Request{Module: storeProbeSrc, Config: cfg}); err != nil {
				t.Fatal(err)
			}
			if d := Stats().Sub(before); d.DiskHits != 1 {
				t.Errorf("recompile did not republish a readable artifact: %v", d)
			}
		})
	}
}

// TestStoreConcurrentWriters hammers one key from many goroutines that all
// bypass the in-memory layer (fresh entries each round), so disk loads,
// saves, and renames race. Every returned module must work; nothing may
// error.
func TestStoreConcurrentWriters(t *testing.T) {
	withTestStore(t, defaultMaxBytes)
	cfg := codegen.Native()
	key := Key(storeProbeSrc, cfg)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				cm, err := Compile(context.Background(), &Request{Module: storeProbeSrc, Config: cfg})
				if err != nil {
					errs <- err
					return
				}
				if _, ok := cm.FindExport("_start"); !ok {
					errs <- fmt.Errorf("module missing _start")
					return
				}
				dropMemEntry(key)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The survivor on disk must be a valid artifact.
	dropMemEntry(key)
	before := Stats()
	if _, err := Compile(context.Background(), &Request{Module: storeProbeSrc, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if d := Stats().Sub(before); d.DiskHits != 1 {
		t.Errorf("surviving artifact unreadable after writer race: %v", d)
	}
}

// TestFingerprintPruning checks old compiler-generation directories are
// pruned oldest-first while the active generation and the most recent
// others survive.
func TestFingerprintPruning(t *testing.T) {
	root := t.TempDir()
	const active = "c-deadbeefdeadbeef"
	if err := os.MkdirAll(filepath.Join(root, active), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keepFingerprints+3; i++ {
		name := fmt.Sprintf("c-%016x", i)
		p := filepath.Join(root, name)
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
		// Monotonic mtimes: generation i is older than i+1.
		mt := time.Now().Add(-time.Duration(keepFingerprints+4-i) * time.Hour)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	newStoreRoot(root, defaultMaxBytes).pruneFingerprints(active)
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != keepFingerprints {
		t.Fatalf("kept %d generations %v, want %d", len(names), names, keepFingerprints)
	}
	keep := map[string]bool{active: true}
	for i := keepFingerprints + 3 - (keepFingerprints - 1); i < keepFingerprints+3; i++ {
		keep[fmt.Sprintf("c-%016x", i)] = true
	}
	for _, n := range names {
		if !keep[n] {
			t.Errorf("generation %s should have been pruned (survivors %v)", n, names)
		}
	}
}

// TestCompilerFingerprintStable checks the fingerprint is deterministic
// within one process (it keys the store root).
func TestCompilerFingerprintStable(t *testing.T) {
	a, err := compilerFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := compilerFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b || len(a) != len("c-")+16 {
		t.Errorf("fingerprint unstable or malformed: %q vs %q", a, b)
	}
}

// TestStoreEvictionBoundsSize checks the LRU sweep keeps the store under
// its byte budget and prefers evicting the least-recently-used artifacts.
func TestStoreEvictionBoundsSize(t *testing.T) {
	// A tiny budget: every artifact for this source is ~10-60 KB, so a
	// 64 KB budget forces eviction after a couple of publishes.
	s := withTestStore(t, 64<<10)
	srcs := make([]string, 6)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("int main() { print_int(%d); print_nl(); return 0; }", i*1000)
	}
	for _, src := range srcs {
		if _, err := Compile(context.Background(), &Request{Module: src, Config: codegen.Native()}); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	var count int
	err := filepath.Walk(s.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && filepath.Ext(path) == artifactExt {
			total += info.Size()
			count++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total > 64<<10 {
		t.Errorf("store holds %d bytes, budget 64 KiB", total)
	}
	if count == 0 {
		t.Error("eviction removed everything; most-recent artifacts should survive")
	}
	// The most recently written artifact must still be loadable.
	last := Key(srcs[len(srcs)-1], codegen.Native())
	dropMemEntry(last)
	before := Stats()
	if _, err := Compile(context.Background(), &Request{Module: srcs[len(srcs)-1], Config: codegen.Native()}); err != nil {
		t.Fatal(err)
	}
	if d := Stats().Sub(before); d.DiskHits != 1 {
		t.Errorf("most recent artifact was evicted: %v", d)
	}
}

// TestStoreInspectAndGC pins the cmd/repro-cache surface: ListArtifacts
// reports every stored artifact LRU-first, and GCStore removes exactly the
// oldest entries needed to reach the target.
func TestStoreInspectAndGC(t *testing.T) {
	s := withTestStore(t, 1<<30)
	fp := filepath.Base(s.dir)

	var keys []string
	var sizes = map[string]int64{}
	for i := 0; i < 4; i++ {
		src := fmt.Sprintf("%s\n// inspect variant %d\n", storeProbeSrc, i)
		cfg := codegen.Chrome()
		if _, err := Compile(context.Background(), &Request{Module: src, Config: cfg}); err != nil {
			t.Fatal(err)
		}
		k := Key(src, cfg)
		keys = append(keys, k)
		// Spread mtimes so LRU order is unambiguous, oldest = keys[0].
		p := s.path(k)
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("artifact %d not on disk: %v", i, err)
		}
		sizes[k] = info.Size()
		mt := time.Now().Add(time.Duration(i-10) * time.Hour)
		os.Chtimes(p, mt, mt)
	}

	arts, err := ListArtifacts(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != len(keys) {
		t.Fatalf("ListArtifacts found %d artifacts, want %d", len(arts), len(keys))
	}
	for i, a := range arts {
		if a.Key != keys[i] {
			t.Errorf("entry %d: key %s, want %s (LRU-first order)", i, a.Key, keys[i])
		}
		if a.Size != sizes[keys[i]] {
			t.Errorf("entry %d: size %d, want %d", i, a.Size, sizes[keys[i]])
		}
	}
	if dir, ok := StoreDir(); !ok || dir != s.dir {
		t.Errorf("StoreDir = %q, %v; want %q, true", dir, ok, s.dir)
	}

	// GC down to the two newest artifacts' total.
	target := sizes[keys[2]] + sizes[keys[3]]
	removed, freed, err := GCStore(target)
	if err != nil {
		t.Fatal(err)
	}
	wantFreed := sizes[keys[0]] + sizes[keys[1]]
	if removed != 2 || freed != wantFreed {
		t.Fatalf("GCStore removed %d/%d bytes, want 2/%d", removed, freed, wantFreed)
	}
	arts, err = ListArtifacts(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 || arts[0].Key != keys[2] || arts[1].Key != keys[3] {
		t.Fatalf("after GC: %d artifacts left, oldest victims must go first", len(arts))
	}

	// The evicted builds are recoverable: a rebuild recompiles and
	// republishes under the same key.
	dropMemEntry(keys[0])
	src0 := fmt.Sprintf("%s\n// inspect variant %d\n", storeProbeSrc, 0)
	if _, err := Compile(context.Background(), &Request{Module: src0, Config: codegen.Chrome()}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.path(keys[0])); err != nil {
		t.Errorf("evicted artifact not republished after rebuild: %v", err)
	}
}

// TestGenerationStoreIsShared pins that every path into a generation gets
// the one diskStore its root opened: a build's publish and a WriteArtifact
// into the active generation land in one size account, and repeated
// WriteArtifact and Remote.Pull calls into another generation reuse its
// store (a fresh, unsized store would walk the whole generation on every
// publish).
func TestGenerationStoreIsShared(t *testing.T) {
	s := withTestStore(t, defaultMaxBytes)
	active, err := compilerFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := codegen.Native()
	src := uniqueRemoteSrc(31)
	if _, err := Compile(ctx, &Request{Module: src, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(Key(src, cfg)))
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(data))
	account := func(g *diskStore) int64 {
		g.evictMu.Lock()
		defer g.evictMu.Unlock()
		if !g.sized {
			return -1
		}
		return g.curBytes
	}

	if err := WriteArtifact(active, Key(src+"// written", cfg), data); err != nil {
		t.Fatal(err)
	}
	if g, err := generationStore(active); err != nil || g != s {
		t.Fatalf("generationStore(active) = %p, %v; want the build's store %p", g, err, s)
	}
	if got := account(s); got != 2*size {
		t.Errorf("active generation accounts %d bytes, want %d (the build's publish and the write)", got, 2*size)
	}

	const other = "c-00000000000000b2"
	ts := httptest.NewServer(ArtifactHandlerAt(t.TempDir(), 0))
	defer ts.Close()
	r := NewRemote(ts.URL)
	pulled := Key(src+"// pulled", cfg)
	if err := r.Put(ctx, other, pulled, data); err != nil {
		t.Fatal(err)
	}
	first, err := generationStore(other)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := WriteArtifact(other, Key(fmt.Sprintf("%s// write %d", src, i), cfg), data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Pull(ctx, other, pulled); err != nil {
		t.Fatal(err)
	}
	if g, err := generationStore(other); err != nil || g != first {
		t.Fatalf("generation %s reopened: %p, %v; want %p", other, g, err, first)
	}
	if got := account(first); got != 3*size {
		t.Errorf("generation %s accounts %d bytes, want %d (two writes and a pull)", other, got, 3*size)
	}

	// Concurrent first opens of one generation agree on one store.
	stores := make([]*diskStore, 8)
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stores[i], _ = generationStore("c-00000000000000c3")
		}()
	}
	wg.Wait()
	for i, g := range stores {
		if g == nil || g != stores[0] {
			t.Fatalf("concurrent open %d returned %p, open 0 %p", i, g, stores[0])
		}
	}
}

// TestGCReclaimsStaleTemps checks the explicit GC pass removes orphaned
// temp files old enough to be from a dead writer, but not fresh ones.
func TestGCReclaimsStaleTemps(t *testing.T) {
	s := withTestStore(t, 1<<30)
	sub := filepath.Join(s.dir, "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(sub, ".tmp-stale")
	fresh := filepath.Join(sub, ".tmp-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	os.Chtimes(stale, old, old)

	if _, _, err := GCStore(0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file (possible in-flight writer) must survive GC")
	}
}

// TestSweepLockElectsOneSweeper pins the cross-process sweep coordination:
// while another process holds the sweep sentinel, this process's
// publish-path eviction skips the sweep entirely (no files are removed even
// far over budget), and once the sentinel is released the next publish
// sweeps as usual.
func TestSweepLockElectsOneSweeper(t *testing.T) {
	// A 1-byte budget makes every publish want to sweep.
	s := withTestStore(t, 1)

	// Simulate a concurrent process mid-sweep: a fresh sentinel at the
	// store root.
	lock := filepath.Join(s.dir, sweepLockName)
	if err := os.WriteFile(lock, []byte("424242\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	srcs := []string{
		"int main() { print_int(111); print_nl(); return 0; }",
		"int main() { print_int(222); print_nl(); return 0; }",
	}
	for _, src := range srcs {
		if _, err := Compile(context.Background(), &Request{Module: src, Config: codegen.Native()}); err != nil {
			t.Fatal(err)
		}
	}
	count := func() (n int) {
		files, err := s.scan(time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}
	if got := count(); got != len(srcs) {
		t.Fatalf("%d artifacts on disk with sweep locked elsewhere, want %d (sweep must be skipped)", got, len(srcs))
	}

	// Release the sentinel: the next publish elects this process and
	// sweeps the store back under its (1-byte) budget.
	if err := os.Remove(lock); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(context.Background(), &Request{Module: "int main() { print_int(333); print_nl(); return 0; }", Config: codegen.Native()}); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 0 {
		t.Errorf("%d artifacts survived an unlocked sweep under a 1-byte budget, want 0", got)
	}
	if _, err := os.Stat(lock); !os.IsNotExist(err) {
		t.Error("sweep sentinel not released after the sweep")
	}
}

// TestSweepLockStaleSentinelIsStolen pins crash recovery: a sentinel older
// than staleSweepLockAge (a sweeper that died mid-walk) does not disable
// eviction — the next publish steals it and sweeps.
func TestSweepLockStaleSentinelIsStolen(t *testing.T) {
	s := withTestStore(t, 1)

	lock := filepath.Join(s.dir, sweepLockName)
	if err := os.WriteFile(lock, []byte("424242\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleSweepLockAge)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := Compile(context.Background(), &Request{Module: "int main() { print_int(444); print_nl(); return 0; }", Config: codegen.Native()}); err != nil {
		t.Fatal(err)
	}
	files, err := s.scan(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("%d artifacts survived: stale sentinel was not stolen", len(files))
	}
	if _, err := os.Stat(lock); !os.IsNotExist(err) {
		t.Error("stolen sentinel not released after the sweep")
	}
}

// TestTryLockSweepMutualExclusion pins the sentinel protocol itself: one
// winner among concurrent claimants, release enables the next claim.
func TestTryLockSweepMutualExclusion(t *testing.T) {
	s := withTestStore(t, 1<<30)
	now := time.Now()
	if !s.tryLockSweep(now) {
		t.Fatal("first claim failed")
	}
	if s.tryLockSweep(now) {
		t.Fatal("second claim succeeded while held")
	}
	s.unlockSweep()
	if !s.tryLockSweep(now) {
		t.Fatal("claim after release failed")
	}
	s.unlockSweep()
}

// TestScanReclaimsOrphanedStolenSentinel pins the crash-leak cleanup: a
// .sweep-lock.stale-<pid> left by a thief that died between rename and
// remove is reclaimed by the next old-enough scan, while a fresh one (a
// steal in progress) survives.
func TestScanReclaimsOrphanedStolenSentinel(t *testing.T) {
	s := withTestStore(t, 1<<30)
	orphan := filepath.Join(s.dir, sweepLockName+".stale-4242")
	fresh := filepath.Join(s.dir, sweepLockName+".stale-4243")
	for _, p := range []string{orphan, fresh} {
		if err := os.WriteFile(p, []byte("4242\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleSweepLockAge)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	s.evictMu.Lock()
	_, err := s.scan(time.Now())
	s.evictMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("old orphaned stolen sentinel survived scan")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh stolen sentinel (steal in progress) must survive scan")
	}
}

// TestQuarantineKeepsCorruptArtifact asserts the corruption response in
// detail: the damaged file is moved (not deleted) into quarantine/ with the
// .quarantined suffix, the move is visible in CacheStats.Corrupt and
// .Quarantined, and the quarantined copy never re-enters the store's
// artifact scan.
func TestQuarantineKeepsCorruptArtifact(t *testing.T) {
	cfg := codegen.Firefox()
	key := Key(storeProbeSrc, cfg)
	s := withTestStore(t, defaultMaxBytes)
	dropMemEntry(key)
	if _, err := Compile(context.Background(), &Request{Module: storeProbeSrc, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	dropMemEntry(key)

	before := Stats()
	if _, err := Compile(context.Background(), &Request{Module: storeProbeSrc, Config: cfg}); err != nil {
		t.Fatalf("corrupt artifact surfaced an error: %v", err)
	}
	d := Stats().Sub(before)
	if d.Corrupt != 1 || d.Quarantined != 1 {
		t.Errorf("corruption not counted: corrupt=%d quarantined=%d, want 1/1", d.Corrupt, d.Quarantined)
	}
	if d.Misses != 1 {
		t.Errorf("corruption must read as a miss: %v", d)
	}

	qpath := filepath.Join(s.dir, quarantineDirName, filepath.Base(p)+quarantinedExt)
	st, err := os.Stat(qpath)
	if err != nil {
		t.Fatalf("damaged artifact not preserved in quarantine: %v", err)
	}
	if st.Size() != int64(len(data)/2) {
		t.Errorf("quarantined copy is %d bytes, want the damaged %d", st.Size(), len(data)/2)
	}

	// The recompile republished a clean artifact; a scan must see only that
	// artifact (the quarantined copy is invisible to eviction accounting).
	files, err := s.scan(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.Contains(f.path, quarantineDirName) {
			t.Errorf("scan counted quarantined file %s as an artifact", f.path)
		}
	}

	// A fresh quarantined file survives a sweep; an old one is reclaimed.
	s.reclaimQuarantine(time.Now())
	if _, err := os.Stat(qpath); err != nil {
		t.Error("fresh quarantined artifact must survive reclamation")
	}
	s.reclaimQuarantine(time.Now().Add(staleQuarantineAge + time.Hour))
	if _, err := os.Stat(qpath); !os.IsNotExist(err) {
		t.Error("stale quarantined artifact must be reclaimed")
	}
}

// sleepLog collects the backoffs a hooked retry clock would have slept.
// Mutex-guarded: the remote tier's publish worker retries off-thread, so
// the recorder can be hit concurrently with the test body.
type sleepLog struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (l *sleepLog) add(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.slept = append(l.slept, d)
}

func (l *sleepLog) all() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.slept...)
}

// hookRetryClock replaces the retry loop's sleep and jitter sources with
// deterministic recorders for the test's duration: sleeps are logged, not
// slept, and jitter is pinned to jit(n).
func hookRetryClock(t *testing.T, jit func(int64) int64) *sleepLog {
	t.Helper()
	log := &sleepLog{}
	prev := retryTime.Load()
	retryTime.Store(&retryClock{
		sleep:  func(ctx context.Context, d time.Duration) { log.add(d) },
		jitter: jit,
	})
	t.Cleanup(func() { retryTime.Store(prev) })
	return log
}

// TestRetryIODeterministicBackoff pins the retry loop's schedule without
// wall-clock sleeps: with jitter pinned to zero the backoffs are exactly
// 5ms then 10ms, the op is attempted ioAttempts times on persistent
// failure, and a transient failure recovers on the attempt it stops
// failing.
func TestRetryIODeterministicBackoff(t *testing.T) {
	slept := hookRetryClock(t, func(int64) int64 { return 0 })

	calls := 0
	err := retryIO("test.site", "k", func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("transient failure did not recover: err=%v calls=%d", err, calls)
	}
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond}
	if got := slept.all(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("backoff schedule = %v, want %v", got, want)
	}

	before := len(slept.all())
	calls = 0
	err = retryIO("test.site", "k", func() error {
		calls++
		return fmt.Errorf("persistent")
	})
	if err == nil || calls != ioAttempts {
		t.Errorf("persistent failure: err=%v calls=%d, want error after %d attempts", err, calls, ioAttempts)
	}
	if got := len(slept.all()) - before; got != ioAttempts-1 {
		t.Errorf("%d sleeps for %d attempts, want %d", got, ioAttempts, ioAttempts-1)
	}
}

// TestRetryIOJitterCapsBackoff pins the jitter bound: with jitter pinned to
// its maximum (n-1) each backoff at most doubles — 5ms base jitters to
// <10ms, never beyond.
func TestRetryIOJitterCapsBackoff(t *testing.T) {
	slept := hookRetryClock(t, func(n int64) int64 { return n - 1 })

	retryIO("test.site", "k", func() error { return fmt.Errorf("always") })
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if got := slept.all(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("max-jitter backoff schedule = %v, want %v", got, want)
	}
}

// TestRetryIONotExistShortCircuits: a missing artifact is the normal miss
// path — one attempt, no sleeps, error passed through.
func TestRetryIONotExistShortCircuits(t *testing.T) {
	slept := hookRetryClock(t, func(int64) int64 { return 0 })
	calls := 0
	err := retryIO("test.site", "k", func() error {
		calls++
		return fmt.Errorf("wrapped: %w", fs.ErrNotExist)
	})
	if got := slept.all(); !errors.Is(err, fs.ErrNotExist) || calls != 1 || len(got) != 0 {
		t.Errorf("miss retried: err=%v calls=%d sleeps=%v", err, calls, got)
	}
}

// TestRetryIOCtxStopsOnDoneParent: a canceled parent context ends the loop
// at the next backoff boundary instead of burning the remaining attempts.
func TestRetryIOCtxStopsOnDoneParent(t *testing.T) {
	hookRetryClock(t, func(int64) int64 { return 0 })
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := retryIOCtx(ctx, "test.site", "k", ioAttempts, 0, func(context.Context) error {
		calls++
		cancel()
		return fmt.Errorf("transient")
	})
	// The op's own error survives (more informative than context.Canceled),
	// but the loop must not burn the remaining attempts.
	if err == nil || calls != 1 {
		t.Errorf("canceled parent did not stop the loop: err=%v calls=%d", err, calls)
	}
}

// TestRetryIOCtxPerAttemptDeadline: with an attempt timeout armed, each
// attempt gets its own deadline — an op that waits on its context times out
// per attempt, and the loop still runs every attempt.
func TestRetryIOCtxPerAttemptDeadline(t *testing.T) {
	hookRetryClock(t, func(int64) int64 { return 0 })
	calls := 0
	start := time.Now()
	err := retryIOCtx(context.Background(), "test.site", "k", ioAttempts, 20*time.Millisecond,
		func(actx context.Context) error {
			calls++
			<-actx.Done()
			return actx.Err()
		})
	if !errors.Is(err, context.DeadlineExceeded) || calls != ioAttempts {
		t.Errorf("per-attempt deadline: err=%v calls=%d", err, calls)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("attempts did not run under their own deadlines: took %v", elapsed)
	}
}

// TestParseCacheMax pins how storeSettings reads $REPRO_CACHE_MAX_BYTES:
// empty selects the default, a positive integer is honored, and anything
// else is reported once and falls back to the default.
func TestParseCacheMax(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(config.EnvCacheDir, dir)
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"", defaultMaxBytes},
		{"1048576", 1 << 20},
		{"0", defaultMaxBytes},
		{"-5", defaultMaxBytes},
		{"2GB", defaultMaxBytes},
		{"lots", defaultMaxBytes},
	} {
		t.Setenv(config.EnvCacheMaxBytes, tc.in)
		if root, n := storeSettings(); root != dir || n != tc.want {
			t.Errorf("%s=%q: storeSettings() = %q, %d; want %q, %d", config.EnvCacheMaxBytes, tc.in, root, n, dir, tc.want)
		}
	}
}

// resolveSideEnv switches a re-executed test binary into reporting what one
// side — "store" (openDefaultRoot) or "handler" (ArtifactHandler) —
// resolved from the environment. A child per side gives each its own
// process, so each side's warn-once fires on its own.
const resolveSideEnv = "PIPELINE_TEST_RESOLVE_SIDE"

// TestStoreAndHandlerResolveAlike pins that the local store and the
// server's artifact handler resolve $REPRO_CACHE_DIR and
// $REPRO_CACHE_MAX_BYTES to the same root and budget, and that both warn
// about a malformed budget.
func TestStoreAndHandlerResolveAlike(t *testing.T) {
	if side := os.Getenv(resolveSideEnv); side != "" {
		var root string
		var budget int64
		switch side {
		case "store":
			if r := openDefaultRoot(); r != nil {
				root, budget = r.dir, r.maxBytes
			}
		case "handler":
			if h := ArtifactHandler().(*artifactHandler); h.root != nil {
				root, budget = h.root.dir, h.root.maxBytes
			}
		}
		fmt.Printf("resolved root=%q budget=%d\n", root, budget)
		return
	}
	userCache := t.TempDir()
	explicit := t.TempDir()
	resolved := regexp.MustCompile(`resolved root=(".*") budget=(\d+)`)
	for _, tc := range []struct {
		name, dir, max string
		wantRoot       string
		wantBudget     int64
		warn           bool
	}{
		{"unset", "", "", filepath.Join(userCache, "repro-wasm", "artifacts"), defaultMaxBytes, false},
		{"off", "off", "", "", 0, false},
		{"explicit", explicit, "1048576", explicit, 1 << 20, false},
		{"malformed-budget", explicit, "2GB", explicit, defaultMaxBytes, true},
	} {
		for _, side := range []string{"store", "handler"} {
			cmd := exec.Command(os.Args[0], "-test.run=^TestStoreAndHandlerResolveAlike$")
			cmd.Env = append(os.Environ(), resolveSideEnv+"="+side,
				"XDG_CACHE_HOME="+userCache, "HOME="+userCache,
				config.EnvCacheDir+"="+tc.dir, config.EnvCacheMaxBytes+"="+tc.max)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s/%s: %v\n%s%s", tc.name, side, err, stdout.String(), stderr.String())
			}
			m := resolved.FindStringSubmatch(stdout.String())
			if m == nil {
				t.Fatalf("%s/%s: no resolution reported:\n%s", tc.name, side, stdout.String())
			}
			if root, _ := strconv.Unquote(m[1]); root != tc.wantRoot || m[2] != strconv.FormatInt(tc.wantBudget, 10) {
				t.Errorf("%s/%s resolved root %s budget %s; want %q and %d", tc.name, side, m[1], m[2], tc.wantRoot, tc.wantBudget)
			}
			if warned := strings.Contains(stderr.String(), config.EnvCacheMaxBytes); warned != tc.warn {
				t.Errorf("%s/%s: warned=%v, want %v; stderr:\n%s", tc.name, side, warned, tc.warn, stderr.String())
			}
		}
	}
}
