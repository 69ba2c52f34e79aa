// Package browserfs is the reproduction's BrowserFS: the in-memory
// filesystem shared by Browsix-Wasm processes. It implements the two append
// strategies the paper discusses in §2 — the original
// reallocate-on-every-append behaviour, and the fixed ≥4 KiB growth policy
// whose introduction cut 464.h264ref's in-kernel time from 25 s to under
// 1.5 s. The growth policy is selectable so the ablation benchmark can
// measure both.
package browserfs

import (
	"errors"
	"path"
	"sort"
	"strings"
	"sync"
)

// GrowthPolicy selects how file buffers grow on append.
type GrowthPolicy int

// Growth policies.
const (
	// GrowExact reallocates a buffer of exactly the needed size on every
	// append (the original BrowserFS behaviour the paper fixed).
	GrowExact GrowthPolicy = iota
	// GrowChunked grows by at least 4 KiB (doubling up to a cap), the
	// paper's optimization.
	GrowChunked
)

// Common errors mirror the Unix error names the kernel translates to errnos.
var (
	ErrNotExist = errors.New("no such file or directory")
	ErrExist    = errors.New("file exists")
	ErrIsDir    = errors.New("is a directory")
	ErrNotDir   = errors.New("not a directory")
	ErrNotEmpty = errors.New("directory not empty")
)

// FileMode distinguishes files and directories.
type FileMode uint32

// Mode bits.
const (
	ModeDir FileMode = 1 << 31
)

// IsDir reports whether the mode describes a directory.
func (m FileMode) IsDir() bool { return m&ModeDir != 0 }

// Inode is one filesystem object.
type Inode struct {
	Mode FileMode
	data []byte
	size int
	// children maps names to inodes for directories.
	children map[string]*Inode
	// CopyStats tracks bytes copied by append growth (the ablation metric).
	GrowCopies uint64
	GrowBytes  uint64
}

// FS is an in-memory filesystem.
type FS struct {
	mu     sync.Mutex
	root   *Inode
	Policy GrowthPolicy
}

// New returns an empty filesystem with the paper's chunked growth policy.
func New() *FS {
	return &FS{
		root:   &Inode{Mode: ModeDir, children: map[string]*Inode{}},
		Policy: GrowChunked,
	}
}

// NewWithPolicy returns a filesystem using the given growth policy.
func NewWithPolicy(p GrowthPolicy) *FS {
	fs := New()
	fs.Policy = p
	return fs
}

func splitPath(p string) []string {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

// lookup walks to the inode for p.
func (fs *FS) lookup(p string) (*Inode, error) {
	cur := fs.root
	for _, part := range splitPath(p) {
		if !cur.Mode.IsDir() {
			return nil, ErrNotDir
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// lookupParent walks to the parent directory of p, returning it and the leaf
// name.
func (fs *FS) lookupParent(p string) (*Inode, string, error) {
	parts := splitPath(p)
	if len(parts) == 0 {
		return nil, "", ErrExist
	}
	cur := fs.root
	for _, part := range parts[:len(parts)-1] {
		next, ok := cur.children[part]
		if !ok {
			return nil, "", ErrNotExist
		}
		if !next.Mode.IsDir() {
			return nil, "", ErrNotDir
		}
		cur = next
	}
	return cur, parts[len(parts)-1], nil
}

// Create makes (or truncates) a file and returns its inode.
func (fs *FS) Create(p string) (*Inode, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, name, err := fs.lookupParent(p)
	if err != nil {
		return nil, err
	}
	if ino, ok := dir.children[name]; ok {
		if ino.Mode.IsDir() {
			return nil, ErrIsDir
		}
		ino.Truncate(0)
		return ino, nil
	}
	ino := &Inode{}
	dir.children[name] = ino
	return ino, nil
}

// Open returns the inode for p.
func (fs *FS) Open(p string) (*Inode, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.lookup(p)
}

// OpenOrCreate opens p, creating it when absent.
func (fs *FS) OpenOrCreate(p string) (*Inode, error) {
	fs.mu.Lock()
	ino, err := fs.lookup(p)
	fs.mu.Unlock()
	if err == nil {
		return ino, nil
	}
	return fs.Create(p)
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, name, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	if _, ok := dir.children[name]; ok {
		return ErrExist
	}
	dir.children[name] = &Inode{Mode: ModeDir, children: map[string]*Inode{}}
	return nil
}

// MkdirAll creates p and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	parts := splitPath(p)
	cur := "/"
	for _, part := range parts {
		cur = path.Join(cur, part)
		if err := fs.Mkdir(cur); err != nil && err != ErrExist {
			return err
		}
	}
	return nil
}

// Unlink removes a file.
func (fs *FS) Unlink(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, name, err := fs.lookupParent(p)
	if err != nil {
		return err
	}
	ino, ok := dir.children[name]
	if !ok {
		return ErrNotExist
	}
	if ino.Mode.IsDir() {
		if len(ino.children) > 0 {
			return ErrNotEmpty
		}
	}
	delete(dir.children, name)
	return nil
}

// Rename moves a file or directory.
func (fs *FS) Rename(from, to string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fdir, fname, err := fs.lookupParent(from)
	if err != nil {
		return err
	}
	ino, ok := fdir.children[fname]
	if !ok {
		return ErrNotExist
	}
	tdir, tname, err := fs.lookupParent(to)
	if err != nil {
		return err
	}
	tdir.children[tname] = ino
	if !(fdir == tdir && fname == tname) {
		delete(fdir.children, fname)
	}
	return nil
}

// ReadDir lists directory entries in sorted order.
func (fs *FS) ReadDir(p string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if !ino.Mode.IsDir() {
		return nil, ErrNotDir
	}
	names := make([]string, 0, len(ino.children))
	for n := range ino.children {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// WriteFile replaces the contents of p.
func (fs *FS) WriteFile(p string, data []byte) error {
	ino, err := fs.OpenOrCreate(p)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino.data = append([]byte(nil), data...)
	ino.size = len(data)
	return nil
}

// WriteFileAll replaces the contents of p, creating any missing parent
// directories first. This is the one place run paths materialize filesystem
// images from host-side maps (workload inputs, test fixtures).
func (fs *FS) WriteFileAll(p string, data []byte) error {
	if dir := path.Dir(path.Clean("/" + p)); dir != "/" {
		if err := fs.MkdirAll(dir); err != nil {
			return err
		}
	}
	return fs.WriteFile(p, data)
}

// ReadFile returns a copy of p's contents.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	ino, err := fs.Open(p)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if ino.Mode.IsDir() {
		return nil, ErrIsDir
	}
	return append([]byte(nil), ino.data[:ino.size]...), nil
}

// Size returns the file size.
func (ino *Inode) Size() int { return ino.size }

// ReadAt copies file bytes at off into buf, returning the count.
func (ino *Inode) ReadAt(buf []byte, off int64) int {
	if off >= int64(ino.size) {
		return 0
	}
	return copy(buf, ino.data[off:ino.size])
}

// WriteAt writes buf at off, growing the file as needed per the policy, and
// returns the bytes copied due to buffer growth (the §2 ablation metric).
func (ino *Inode) WriteAt(buf []byte, off int64, policy GrowthPolicy) int {
	end := int(off) + len(buf)
	if end > len(ino.data) {
		var ncap int
		switch policy {
		case GrowExact:
			// Original BrowserFS: allocate exactly, copy everything.
			ncap = end
		default:
			ncap = len(ino.data) * 2
			if ncap < end {
				ncap = end
			}
			if ncap-len(ino.data) < 4096 {
				ncap = len(ino.data) + 4096
			}
		}
		nd := make([]byte, ncap)
		copy(nd, ino.data[:ino.size])
		ino.GrowCopies++
		ino.GrowBytes += uint64(ino.size)
		ino.data = nd
	}
	copy(ino.data[off:], buf)
	if end > ino.size {
		ino.size = end
	}
	return len(buf)
}

// Truncate sets the file size. Bytes past the size are kept zero, so a
// later extension or a write past the end reads zeros in the gap, not the
// bytes the truncation cut off.
func (ino *Inode) Truncate(n int64) {
	if int(n) > len(ino.data) {
		nd := make([]byte, n)
		copy(nd, ino.data[:ino.size])
		ino.data = nd
	} else if int(n) < ino.size {
		clear(ino.data[n:ino.size])
	}
	ino.size = int(n)
}
