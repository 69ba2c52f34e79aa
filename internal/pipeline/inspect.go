package pipeline

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"repro/internal/codegen"
)

// Store inspection and explicit GC, the API under cmd/repro-cache. Every
// function works on the process's store root (the one Compile uses), so
// REPRO_CACHE_DIR resolution and the size budget apply; those without a
// fingerprint argument act on the active generation.

// ArtifactInfo describes one stored artifact.
type ArtifactInfo struct {
	// Key is the artifact's content address (pipeline.Key).
	Key string
	// Size is the encoded artifact size in bytes.
	Size int64
	// ModTime is the artifact's LRU clock: loads refresh it on every hit.
	ModTime time.Time
	// Path is the artifact file.
	Path string
}

// StoreDir reports the active store's root directory — the compiler-
// fingerprint subdirectory artifacts live under. ok is false when the disk
// layer is disabled (REPRO_CACHE_DIR=off, or no writable location).
func StoreDir() (dir string, ok bool) {
	s := artifactStore()
	if s == nil {
		return "", false
	}
	return s.dir, true
}

// StoreBudget reports the active store's size budget in bytes, or 0 when
// the disk layer is disabled.
func StoreBudget() int64 {
	s := artifactStore()
	if s == nil {
		return 0
	}
	return s.maxBytes
}

// errStoreDisabled answers every inspection call when the disk layer is
// off.
var errStoreDisabled = errors.New("pipeline: artifact store disabled")

// Generations lists every compiler-fingerprint generation directory under
// the store root (the parent of the active store). cmd/repro-cache's
// push/pull sync all of them: the tool's own generation is scoped to its
// own binary and is empty (the tool never compiles), so syncing only the
// active store would sync nothing.
func Generations() ([]string, error) {
	r := defaultRoot()
	if r == nil {
		return nil, errStoreDisabled
	}
	gens, err := r.generations()
	if err != nil {
		return nil, fmt.Errorf("pipeline: reading store root: %w", err)
	}
	return gens, nil
}

// generationStore returns generation fp's store from the process root —
// for the active generation, the very store builds publish into.
func generationStore(fp string) (*diskStore, error) {
	r := defaultRoot()
	if r == nil {
		return nil, errStoreDisabled
	}
	return r.gen(fp)
}

// ListArtifacts enumerates generation fp's artifacts sorted
// least-recently-used first (the order an eviction sweep removes them).
// StoreDir's base name is the active generation.
func ListArtifacts(fp string) ([]ArtifactInfo, error) {
	g, err := generationStore(fp)
	if err != nil {
		return nil, err
	}
	arts, err := g.list()
	if err != nil {
		return nil, fmt.Errorf("pipeline: scanning generation %s: %w", fp, err)
	}
	return arts, nil
}

// ReadArtifact reads the raw encoded bytes of one artifact in generation
// fp. A missing artifact is an fs.ErrNotExist-wrapping error.
func ReadArtifact(fp, key string) ([]byte, error) {
	g, err := generationStore(fp)
	if err != nil {
		return nil, err
	}
	data, ok := g.loadBytes(key)
	if !ok {
		return nil, fmt.Errorf("pipeline: artifact %s/%s: %w", fp, key[:12], fs.ErrNotExist)
	}
	return data, nil
}

// WriteArtifact verifies and atomically publishes encoded artifact bytes
// into generation fp. Bytes fetched from a remote are saved by Remote.Pull
// instead, which relies on the fetch's own verification.
func WriteArtifact(fp, key string, data []byte) error {
	if err := codegen.VerifyArtifact(data); err != nil {
		return fmt.Errorf("pipeline: artifact %s rejected: %w", key[:12], err)
	}
	g, err := generationStore(fp)
	if err != nil {
		return err
	}
	return g.saveBytes(key, data)
}

// HasArtifact reports whether generation fp already stores key.
func HasArtifact(fp, key string) bool {
	g, err := generationStore(fp)
	if err != nil {
		return false
	}
	_, err = os.Stat(g.path(key))
	return err == nil
}

// GCStore runs an explicit eviction pass on the active store, removing
// least-recently-used artifacts until the total fits under maxBytes
// (maxBytes <= 0 selects the configured budget). Stale temp files from
// interrupted writers are reclaimed as part of the scan. It returns how
// many artifacts were removed and how many bytes they freed. Unlike the
// automatic publish-path sweep, an explicit GC does not defer to the
// cross-process sweep sentinel: the user asked for a sweep, and a
// concurrent sweeper is safe (just redundant), so skipping silently would
// be worse than double-scanning.
func GCStore(maxBytes int64) (removed int, freed int64, err error) {
	s := artifactStore()
	if s == nil {
		return 0, 0, errStoreDisabled
	}
	if maxBytes <= 0 {
		maxBytes = s.maxBytes
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	removed, freed = s.sweepTo(maxBytes)
	return removed, freed, nil
}
