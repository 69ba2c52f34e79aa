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
// publishes to. The memory layer starts cold too, so a build an earlier
// test (or an earlier -count repetition) made still publishes into this
// store. State is restored on cleanup.
func withTestStore(t *testing.T, maxBytes int64) *diskStore {
	t.Helper()
	dropBuilds()
	fp, err := compilerFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	r := newStoreRoot(t.TempDir(), maxBytes)
	r.active = r.gen(fp)
	prev := setRoot(r)
	t.Cleanup(func() { setRoot(prev) })
	return r.active
}

// dropBuilds removes the named keys from the in-memory layer, so the next
// Compile of each goes back to disk, or every entry when none is named. It
// keeps the LRU list and the resident-bytes total consistent with the map.
func dropBuilds(keys ...string) {
	buildMu.Lock()
	defer buildMu.Unlock()
	if len(keys) == 0 {
		for _, e := range buildCache {
			unlinkEntry(e)
		}
		return
	}
	for _, k := range keys {
		if e, ok := buildCache[k]; ok {
			unlinkEntry(e)
		}
	}
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
	dropBuilds(key)
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
			dropBuilds(key) // force the publish path against this store
			// Publish a clean artifact.
			if _, err := Compile(context.Background(), &Request{Module: storeProbeSrc, Config: cfg}); err != nil {
				t.Fatal(err)
			}
			p := s.path(key)
			if _, err := os.Stat(p); err != nil {
				t.Fatalf("artifact not published: %v", err)
			}
			tc.mutate(t, p)
			dropBuilds(key)

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
			dropBuilds(key)
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
				dropBuilds(key)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The survivor on disk must be a valid artifact.
	dropBuilds(key)
	before := Stats()
	if _, err := Compile(context.Background(), &Request{Module: storeProbeSrc, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if d := Stats().Sub(before); d.DiskHits != 1 {
		t.Errorf("surviving artifact unreadable after writer race: %v", d)
	}
}

// TestRootBudgetEvictsAcrossGenerations pins that one budget bounds a
// whole store root: an artifact server taking PUTs from several client
// generations stays under its budget, and its sweep evicts the
// least-recently-read artifacts first whichever generation holds them — the
// oldest generation's unread artifacts go, a recently read one survives.
func TestRootBudgetEvictsAcrossGenerations(t *testing.T) {
	cm, err := buildUncached(context.Background(), remoteProbeSrc, codegen.Native())
	if err != nil {
		t.Fatal(err)
	}
	data, err := codegen.EncodeModule(cm)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(data))
	// Room for four artifacts, and a sweep to 90% keeps four.
	budget := 4*size + size/2
	root := t.TempDir()
	ts := httptest.NewServer(ArtifactHandlerAt(root, budget))
	defer ts.Close()
	ctx := context.Background()
	r := NewRemote(ts.URL)
	put := func(fp string, n int) string {
		t.Helper()
		key := Key(fmt.Sprintf("%s// %s %d", remoteProbeSrc, fp, n), codegen.Native())
		if err := r.Put(ctx, fp, key, data); err != nil {
			t.Fatal(err)
		}
		return key
	}
	path := func(fp, key string) string { return filepath.Join(root, fp, key[:2], key+artifactExt) }

	// Two generations fill the budget; their artifacts age an hour apart,
	// oldest first, and then the oldest one is read again.
	const genA, genB, genC = "c-00000000000000a1", "c-00000000000000b2", "c-00000000000000c3"
	a0, a1, b0, b1 := put(genA, 0), put(genA, 1), put(genB, 0), put(genB, 1)
	for i, p := range []string{path(genA, a0), path(genA, a1), path(genB, b0), path(genB, b1)} {
		mt := time.Now().Add(time.Duration(i-4) * time.Hour)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Get(ctx, genA, a0); err != nil {
		t.Fatal(err)
	}
	// A third generation's PUTs push the root over budget twice.
	c0, c1 := put(genC, 0), put(genC, 1)

	inv, err := r.Totals(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Bytes > budget || inv.Count != 4 {
		t.Errorf("root holds %d artifacts, %d bytes; want 4 within the %d-byte budget", inv.Count, inv.Bytes, budget)
	}
	for _, gone := range []struct{ fp, key string }{{genA, a1}, {genB, b0}} {
		if _, err := os.Stat(path(gone.fp, gone.key)); !os.IsNotExist(err) {
			t.Errorf("least-recently-read %s/%s survived the sweep", gone.fp, gone.key[:12])
		}
	}
	for _, kept := range []struct{ fp, key string }{{genA, a0}, {genB, b1}, {genC, c0}, {genC, c1}} {
		if _, err := os.Stat(path(kept.fp, kept.key)); err != nil {
			t.Errorf("%s/%s was evicted before older artifacts: %v", kept.fp, kept.key[:12], err)
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
	dropBuilds(last)
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

	arts, err := ListArtifacts()
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != len(keys) {
		t.Fatalf("ListArtifacts found %d artifacts, want %d", len(arts), len(keys))
	}
	for i, a := range arts {
		if a.Generation != fp {
			t.Errorf("entry %d: generation %s, want %s", i, a.Generation, fp)
		}
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
	arts, err = ListArtifacts()
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 || arts[0].Key != keys[2] || arts[1].Key != keys[3] {
		t.Fatalf("after GC: %d artifacts left, oldest victims must go first", len(arts))
	}

	// The evicted builds are recoverable: a rebuild recompiles and
	// republishes under the same key.
	dropBuilds(keys[0])
	src0 := fmt.Sprintf("%s\n// inspect variant %d\n", storeProbeSrc, 0)
	if _, err := Compile(context.Background(), &Request{Module: src0, Config: codegen.Chrome()}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.path(keys[0])); err != nil {
		t.Errorf("evicted artifact not republished after rebuild: %v", err)
	}

	// A GC down to nothing leaves no directory behind: neither the
	// fan-out directories nor the generation's own. A later write into
	// the generation re-creates them, lands and lists.
	data, err := ReadArtifact(fp, keys[3])
	if err != nil {
		t.Fatal(err)
	}
	if removed, _, err := GCStore(1); err != nil || removed != 3 {
		t.Fatalf("GCStore(1) removed %d artifacts (%v), want 3", removed, err)
	}
	root := filepath.Dir(s.dir)
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
			t.Errorf("GC to 0 bytes left directory %s under the root", ent.Name())
		}
	}
	if err := WriteArtifact(fp, keys[3], data); err != nil {
		t.Fatalf("WriteArtifact into an emptied generation: %v", err)
	}
	if arts, err = ListArtifacts(); err != nil || len(arts) != 1 || arts[0].Key != keys[3] || arts[0].Generation != fp {
		t.Fatalf("after re-write: listing %v (%v), want only %s in %s", arts, err, keys[3][:12], fp)
	}
}

// TestGenerationStoreIsShared pins that every path into a store root lands
// in its one size account: a build's publish into the active generation, a
// WriteArtifact and a Remote.Pull into other generations, and a PUT to the
// process's own artifact handler all count, and all four appear in the
// root's listing under their generations.
func TestGenerationStoreIsShared(t *testing.T) {
	s := withTestStore(t, defaultMaxBytes)
	active := filepath.Base(s.dir)
	ctx := context.Background()
	cfg := codegen.Native()
	src := uniqueRemoteSrc(31)
	built := Key(src, cfg)
	if _, err := Compile(ctx, &Request{Module: src, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(built))
	if err != nil {
		t.Fatal(err)
	}

	const written, pulled, served = "c-00000000000000a1", "c-00000000000000b2", "c-00000000000000c3"
	writtenKey := Key(src+"// written", cfg)
	if err := WriteArtifact(written, writtenKey, data); err != nil {
		t.Fatal(err)
	}
	remote := httptest.NewServer(ArtifactHandlerAt(t.TempDir(), 0))
	defer remote.Close()
	r := NewRemote(remote.URL)
	pulledKey := Key(src+"// pulled", cfg)
	if err := r.Put(ctx, pulled, pulledKey, data); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Pull(ctx, pulled, pulledKey); err != nil {
		t.Fatal(err)
	}
	own := httptest.NewServer(ArtifactHandler())
	defer own.Close()
	servedKey := Key(src+"// served", cfg)
	if err := NewRemote(own.URL).Put(ctx, served, servedKey, data); err != nil {
		t.Fatal(err)
	}

	s.root.evictMu.Lock()
	sized, account := s.root.sized, s.root.curBytes
	s.root.evictMu.Unlock()
	if want := 4 * int64(len(data)); !sized || account != want {
		t.Errorf("root accounts %d bytes (sized %v), want %d: the build, the write, the pull and the PUT", account, sized, want)
	}
	arts, err := ListArtifacts()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, a := range arts {
		got[a.Key] = a.Generation
	}
	want := map[string]string{built: active, writtenKey: written, pulledKey: pulled, servedKey: served}
	if len(got) != len(want) {
		t.Errorf("root lists %d artifacts, want %d", len(got), len(want))
	}
	for key, fp := range want {
		if got[key] != fp {
			t.Errorf("artifact %s listed under generation %q, want %s", key[:12], got[key], fp)
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
	lock := filepath.Join(s.root.dir, sweepLockName)
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
		arts, err := ListArtifacts()
		if err != nil {
			t.Fatal(err)
		}
		return len(arts)
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

	lock := filepath.Join(s.root.dir, sweepLockName)
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
	arts, err := ListArtifacts()
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 0 {
		t.Errorf("%d artifacts survived: stale sentinel was not stolen", len(arts))
	}
	if _, err := os.Stat(lock); !os.IsNotExist(err) {
		t.Error("stolen sentinel not released after the sweep")
	}
}

// TestTryLockSweepMutualExclusion pins the sentinel protocol itself: one
// winner among concurrent claimants, release enables the next claim.
func TestTryLockSweepMutualExclusion(t *testing.T) {
	r := withTestStore(t, 1<<30).root
	now := time.Now()
	if !r.tryLockSweep(now) {
		t.Fatal("first claim failed")
	}
	if r.tryLockSweep(now) {
		t.Fatal("second claim succeeded while held")
	}
	r.unlockSweep()
	if !r.tryLockSweep(now) {
		t.Fatal("claim after release failed")
	}
	r.unlockSweep()
}

// TestScanReclaimsOrphanedStolenSentinel pins the crash-leak cleanup: a
// .sweep-lock.stale-<pid> left by a thief that died between rename and
// remove is reclaimed by the next old-enough scan, while a fresh one (a
// steal in progress) survives.
func TestScanReclaimsOrphanedStolenSentinel(t *testing.T) {
	r := withTestStore(t, 1<<30).root
	orphan := filepath.Join(r.dir, sweepLockName+".stale-4242")
	fresh := filepath.Join(r.dir, sweepLockName+".stale-4243")
	for _, p := range []string{orphan, fresh} {
		if err := os.WriteFile(p, []byte("4242\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleSweepLockAge)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := r.list(); err != nil {
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
	dropBuilds(key)
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
	dropBuilds(key)

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
	arts, err := ListArtifacts()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		if strings.Contains(a.Path, quarantineDirName) {
			t.Errorf("scan counted quarantined file %s as an artifact", a.Path)
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
