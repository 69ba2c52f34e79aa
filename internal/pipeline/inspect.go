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
// REPRO_CACHE_DIR resolution and the size budget apply. Listing and GC span
// the whole root, every compiler generation under it; reads and writes
// address one generation by its fingerprint.

// ArtifactInfo describes one stored artifact.
type ArtifactInfo struct {
	// Generation is the compiler fingerprint the artifact is stored under.
	Generation string
	// Key is the artifact's content address (pipeline.Key).
	Key string
	// Size is the encoded artifact size in bytes.
	Size int64
	// ModTime is the artifact's LRU clock: loads refresh it on every hit.
	ModTime time.Time
	// Path is the artifact file.
	Path string
}

// StoreDir reports the active generation's directory — the compiler-
// fingerprint subdirectory of the store root that this binary's builds use.
// ok is false when the disk layer is disabled (REPRO_CACHE_DIR=off, or no
// writable location).
func StoreDir() (dir string, ok bool) {
	s := artifactStore()
	if s == nil {
		return "", false
	}
	return s.dir, true
}

// StoreBudget reports the store root's size budget in bytes, or 0 when the
// disk layer is disabled.
func StoreBudget() int64 {
	r := defaultRoot()
	if r == nil {
		return 0
	}
	return r.maxBytes
}

// errStoreDisabled answers every inspection call when the disk layer is
// off.
var errStoreDisabled = errors.New("pipeline: artifact store disabled")

// checkAddress rejects an artifact address that is not a compiler
// fingerprint and a content key. The pair names a file under the store
// root, so an address from outside the process — a remote's inventory, a
// client's URL — must pass here before it reaches the file system.
func checkAddress(fp, key string) error {
	if !fpRe.MatchString(fp) || !keyRe.MatchString(key) {
		return fmt.Errorf("pipeline: bad artifact address %q/%q", fp, key)
	}
	return nil
}

// generationStore checks the address fp/key and returns generation fp of
// the process root — for the active generation, the very store builds
// publish into.
func generationStore(fp, key string) (*diskStore, error) {
	if err := checkAddress(fp, key); err != nil {
		return nil, err
	}
	r := defaultRoot()
	if r == nil {
		return nil, errStoreDisabled
	}
	return r.gen(fp), nil
}

// ListArtifacts enumerates every artifact under the store root, across all
// generations, least-recently-used first (the order an eviction sweep
// removes them).
func ListArtifacts() ([]ArtifactInfo, error) {
	r := defaultRoot()
	if r == nil {
		return nil, errStoreDisabled
	}
	arts, err := r.list()
	if err != nil {
		return nil, fmt.Errorf("pipeline: scanning store root: %w", err)
	}
	return arts, nil
}

// ReadArtifact reads the raw encoded bytes of one artifact in generation
// fp. A missing artifact is an fs.ErrNotExist-wrapping error.
func ReadArtifact(fp, key string) ([]byte, error) {
	g, err := generationStore(fp, key)
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
	g, err := generationStore(fp, key)
	if err != nil {
		return err
	}
	if err := codegen.VerifyArtifact(data); err != nil {
		return fmt.Errorf("pipeline: artifact %s rejected: %w", key[:12], err)
	}
	return g.saveBytes(key, data)
}

// HasArtifact reports whether generation fp already stores key.
func HasArtifact(fp, key string) bool {
	g, err := generationStore(fp, key)
	if err != nil {
		return false
	}
	_, err = os.Stat(g.path(key))
	return err == nil
}

// GCStore runs an explicit eviction pass over the whole store root,
// removing least-recently-used artifacts of any generation until the total
// fits under maxBytes (maxBytes <= 0 selects the configured budget). Stale
// temp files from interrupted writers are reclaimed as part of the scan. It
// returns how many artifacts were removed and how many bytes they freed.
// Unlike the automatic publish-path sweep, an explicit GC does not defer to
// the cross-process sweep sentinel: the user asked for a sweep, and a
// concurrent sweeper is safe (just redundant), so skipping silently would
// be worse than double-scanning.
func GCStore(maxBytes int64) (removed int, freed int64, err error) {
	r := defaultRoot()
	if r == nil {
		return 0, 0, errStoreDisabled
	}
	if maxBytes <= 0 {
		maxBytes = r.maxBytes
	}
	r.evictMu.Lock()
	defer r.evictMu.Unlock()
	removed, freed = r.sweepTo(maxBytes)
	return removed, freed, nil
}
