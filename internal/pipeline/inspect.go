package pipeline

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/codegen"
)

// Store inspection and explicit GC, the API under cmd/repro-cache. All
// functions operate on the process's active store (the same one Compile
// uses): REPRO_CACHE_DIR resolution, the compiler-fingerprint subdirectory,
// and the size budget all apply.

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

// ListArtifacts enumerates the active store's artifacts sorted
// least-recently-used first (the order an eviction sweep removes them).
// A disabled disk layer returns an error.
func ListArtifacts() ([]ArtifactInfo, error) {
	s := artifactStore()
	if s == nil {
		return nil, fmt.Errorf("pipeline: artifact store disabled")
	}
	s.evictMu.Lock()
	files, err := s.scan(time.Now())
	s.evictMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("pipeline: scanning artifact store: %w", err)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	out := make([]ArtifactInfo, len(files))
	for i, f := range files {
		out[i] = ArtifactInfo{
			Key:     strings.TrimSuffix(filepath.Base(f.path), artifactExt),
			Size:    f.size,
			ModTime: f.mtime,
			Path:    f.path,
		}
	}
	return out, nil
}

// Generations lists every compiler-fingerprint generation directory under
// the store root (the parent of the active store). cmd/repro-cache's
// push/pull sync all of them: the tool's own generation is scoped to its
// own binary and is empty (the tool never compiles), so syncing only the
// active store would sync nothing.
func Generations() ([]string, error) {
	s := artifactStore()
	if s == nil {
		return nil, fmt.Errorf("pipeline: artifact store disabled")
	}
	root := filepath.Dir(s.dir)
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("pipeline: reading store root: %w", err)
	}
	var out []string
	for _, ent := range ents {
		if ent.IsDir() && fpRe.MatchString(ent.Name()) {
			out = append(out, ent.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// generationStore opens generation fp's store under the active store's
// root, with the active store's budget.
func generationStore(fp string) (*diskStore, error) {
	s := artifactStore()
	if s == nil {
		return nil, fmt.Errorf("pipeline: artifact store disabled")
	}
	if !fpRe.MatchString(fp) {
		return nil, fmt.Errorf("pipeline: %q is not a compiler fingerprint", fp)
	}
	g := openStore(filepath.Join(filepath.Dir(s.dir), fp), s.maxBytes)
	if g == nil {
		return nil, fmt.Errorf("pipeline: cannot open generation %s", fp)
	}
	return g, nil
}

// ListArtifactsFP enumerates one fingerprint generation's artifacts,
// least-recently-used first.
func ListArtifactsFP(fp string) ([]ArtifactInfo, error) {
	g, err := generationStore(fp)
	if err != nil {
		return nil, err
	}
	g.evictMu.Lock()
	files, err := g.scan(time.Now())
	g.evictMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("pipeline: scanning generation %s: %w", fp, err)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	out := make([]ArtifactInfo, len(files))
	for i, f := range files {
		out[i] = ArtifactInfo{
			Key:     strings.TrimSuffix(filepath.Base(f.path), artifactExt),
			Size:    f.size,
			ModTime: f.mtime,
			Path:    f.path,
		}
	}
	return out, nil
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
		return 0, 0, fmt.Errorf("pipeline: artifact store disabled")
	}
	if maxBytes <= 0 {
		maxBytes = s.maxBytes
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	removed, freed = s.sweepTo(maxBytes)
	return removed, freed, nil
}
