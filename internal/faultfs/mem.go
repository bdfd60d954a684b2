package faultfs

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Mem returns a fresh, empty in-memory FS whose files are byte slices:
// the store beneath the index's mem backend, which writes and reads the
// very segment bytes a file on disk holds. Names are plain keys with no
// directory behind them: MkdirTemp only mints a unique prefix, Create
// needs no parent, and RemoveAll drops every file under a prefix. As on
// POSIX, a handle keeps its file's bytes after Remove or after a Rename
// over its name; the bytes are freed once no handle or name holds
// them. Writes append. Safe for concurrent use.
func Mem() FS { return &memFS{files: make(map[string]*memNode)} }

type memFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	seq   int // numbers the names CreateTemp and MkdirTemp mint
}

// memNode is one file's bytes, shared by every handle on the file.
type memNode struct {
	mu sync.Mutex
	b  []byte
}

var _ FS = (*memFS)(nil)

func (m *memFS) Create(name string) (File, error) {
	n := &memNode{}
	m.mu.Lock()
	m.files[name] = n
	m.mu.Unlock()
	return &memFile{name: name, n: n, writable: true}, nil
}

func (m *memFS) Open(name string) (File, error) {
	m.mu.Lock()
	n, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memFile{name: name, n: n}, nil
}

func (m *memFS) CreateTemp(dir, pattern string) (File, error) {
	name, _ := m.MkdirTemp(dir, pattern)
	return m.Create(name)
}

// MkdirTemp replaces pattern's last "*" (or appends, when it has none)
// with a number this FS has not handed out before; it creates nothing.
func (m *memFS) MkdirTemp(dir, pattern string) (string, error) {
	m.mu.Lock()
	m.seq++
	seq := strconv.Itoa(m.seq)
	m.mu.Unlock()
	prefix, suffix := pattern, ""
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	return filepath.Join(dir, prefix+seq+suffix), nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) RemoveAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.files {
		if name == path || strings.HasPrefix(name, path+"/") {
			delete(m.files, name)
		}
	}
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: os.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = n
	return nil
}

// memFile is one handle on a memNode: writable when Create made it, with
// a read cursor of its own. Reads and writes on a closed handle fail.
type memFile struct {
	name     string
	n        *memNode
	writable bool
	closed   atomic.Bool

	mu  sync.Mutex
	off int64 // Read's cursor
}

var _ File = (*memFile)(nil)

func (f *memFile) Name() string { return f.name }

func (f *memFile) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.ReadAt(p, f.off)
	f.off += int64(n)
	if n > 0 && err == io.EOF {
		err = nil // io.Reader may hold EOF back for the next call
	}
	return n, err
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, &os.PathError{Op: "read", Path: f.name, Err: os.ErrClosed}
	}
	if off < 0 {
		return 0, syscall.EINVAL
	}
	f.n.mu.Lock()
	defer f.n.mu.Unlock()
	k := 0
	if off < int64(len(f.n.b)) {
		k = copy(p, f.n.b[off:])
	}
	if k < len(p) {
		return k, io.EOF
	}
	return k, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if !f.writable || f.closed.Load() {
		return 0, &os.PathError{Op: "write", Path: f.name, Err: syscall.EBADF}
	}
	f.n.mu.Lock()
	f.n.b = append(f.n.b, p...)
	f.n.mu.Unlock()
	return len(p), nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Stat() (os.FileInfo, error) {
	f.n.mu.Lock()
	defer f.n.mu.Unlock()
	return memInfo{name: filepath.Base(f.name), size: int64(len(f.n.b))}, nil
}

// Close releases the handle. Closing the handle Create made also gives
// back the slack the appends left, so a finished file holds only its
// own bytes.
func (f *memFile) Close() error {
	if f.closed.Swap(true) {
		return &os.PathError{Op: "close", Path: f.name, Err: os.ErrClosed}
	}
	if f.writable {
		f.n.mu.Lock()
		if cap(f.n.b) > len(f.n.b) {
			f.n.b = append([]byte(nil), f.n.b...)
		}
		f.n.mu.Unlock()
	}
	return nil
}

// memInfo is a memFile's os.FileInfo.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() os.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }
