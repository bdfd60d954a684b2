// Package faultfs is the filesystem seam beneath the disk keyword
// index's segments (internal/index; internal/extsort, which no
// production package imports, uses it too): a minimal FS/File
// abstraction whose production implementation, OS, is a zero-cost
// passthrough to package os, and whose test implementation, Injector,
// injects programmable faults deterministically.
//
// The point is the failure model, not the abstraction: before the
// snapshot/replication and shard fan-out work multiplies the ways disk
// I/O can fail mid-operation, every "what happens when the read
// fails?" claim in this repo should be provable by a test that makes
// the read fail. Injector makes faults first-class:
//
//   - fault kinds: any error (syscall.EIO, syscall.ENOSPC, ...), short
//     reads, torn writes (a prefix reaches the file, then the error),
//     and added latency;
//   - predicates: operation kind (read/write/open/...), path substring,
//     every-Nth matching op, after-the-first-N ops, byte-offset range,
//     and a seeded probability — all deterministic for a fixed seed and
//     operation sequence;
//   - accounting: per-rule match/fire counters and a global injected
//     count, so tests can assert a fault actually fired.
//
// Faults injected through Err default to syscall.EIO, which the
// storage layers classify as transient (diskstore.IsTransient) and
// retry with bounded backoff; ENOSPC and corruption are not retried.
package faultfs

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// File is the slice of *os.File the storage layers consume. *os.File
// implements it.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	Name() string
	Sync() error
	Stat() (os.FileInfo, error)
}

// FS is the slice of package os the storage layers consume.
// Implementations must be safe for concurrent use.
type FS interface {
	Create(name string) (File, error)
	Open(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	MkdirTemp(dir, pattern string) (string, error)
	Remove(name string) error
	RemoveAll(path string) error
	Rename(oldpath, newpath string) error
}

// OS returns the passthrough FS over package os — the production
// default everywhere an FS is optional.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) MkdirTemp(dir, pattern string) (string, error) {
	return os.MkdirTemp(dir, pattern)
}
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) RemoveAll(path string) error          { return os.RemoveAll(path) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Op classifies one filesystem operation for rule matching.
type Op uint8

const (
	OpOpen Op = iota
	OpCreate
	OpRead
	OpWrite
	OpSync
	OpClose
	OpRemove
	OpRename
)

func (o Op) String() string {
	switch o {
	case OpOpen:
		return "open"
	case OpCreate:
		return "create"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpClose:
		return "close"
	case OpRemove:
		return "remove"
	case OpRename:
		return "rename"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Rule is one programmable fault: which operations it matches, when it
// fires, and what happens. The zero predicate fields widen the match
// (any path, any offset, every op); the fire condition is the AND of
// the set predicates, with Prob sampled last.
type Rule struct {
	// Op is the operation kind the rule applies to.
	Op Op
	// Path, when non-empty, matches only files whose name contains it.
	Path string
	// AfterN skips the first N matching operations (so a build can
	// succeed past its header before faults start).
	AfterN int64
	// EveryN, when positive, fires on every Nth matching operation
	// (counted after AfterN). Zero means every matching operation is a
	// candidate.
	EveryN int64
	// Prob, when in (0,1), fires with this probability per candidate
	// operation, sampled from the Injector's seeded generator. Zero or
	// >=1 means fire on every candidate.
	Prob float64
	// OffsetLo/OffsetHi, when not both zero, restrict read faults to
	// ReadAt offsets in [OffsetLo, OffsetHi) and write faults to writes
	// whose cumulative file offset starts in that range.
	OffsetLo, OffsetHi int64
	// MaxFires, when positive, deactivates the rule after that many
	// fires — "fail exactly once" is MaxFires: 1.
	MaxFires int64

	// Err is the injected error. Nil means syscall.EIO. ENOSPC and
	// friends go here.
	Err error
	// ShortBy, for reads and writes, performs a partial transfer: a
	// read returns len(p)-ShortBy bytes, a torn write delivers
	// len(p)-ShortBy bytes to the underlying file; both then return the
	// rule's error alongside the short count, per the io contracts.
	ShortBy int
	// Latency is added before the operation runs (and before any
	// error), modeling a slow device rather than a broken one. A rule
	// with only Latency set delays but does not fail.
	Latency time.Duration

	matched int64
	fired   int64
}

// RuleStats reports one rule's accounting.
type RuleStats struct {
	Matched int64 // operations that matched the Op/Path/offset predicates
	Fired   int64 // operations the rule actually faulted (or delayed)
}

// Injector wraps an FS and applies fault rules to every operation that
// flows through it. Safe for concurrent use; determinism holds for a
// fixed seed and a fixed operation order (single-goroutine use, or
// tests that don't care about cross-goroutine interleaving).
type Injector struct {
	inner FS

	mu       sync.Mutex
	rng      *rand.Rand
	rules    []*Rule
	disabled bool
	injected int64
}

// NewInjector wraps inner (nil means the OS passthrough) with a
// deterministic, seed-driven fault injector. With no rules installed it
// is transparent.
func NewInjector(inner FS, seed int64) *Injector {
	if inner == nil {
		inner = OS()
	}
	return &Injector{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// AddRule installs a rule and returns it (the pointer identifies the
// rule in Stats).
func (in *Injector) AddRule(r Rule) *Rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	rp := &r
	in.rules = append(in.rules, rp)
	return rp
}

// SetEnabled atomically enables or disables every rule — the switch a
// recovery test flips to let the system heal.
func (in *Injector) SetEnabled(enabled bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.disabled = !enabled
}

// Injected reports how many operations were faulted (or delayed) in
// total.
func (in *Injector) Injected() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// Stats reports one rule's counters.
func (in *Injector) Stats(r *Rule) RuleStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return RuleStats{Matched: r.matched, Fired: r.fired}
}

// decide finds the firing rule (if any) for one operation. offset < 0
// means the operation has no meaningful offset.
func (in *Injector) decide(op Op, name string, offset int64) *Rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.disabled {
		return nil
	}
	for _, r := range in.rules {
		if r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(name, r.Path) {
			continue
		}
		if (r.OffsetLo != 0 || r.OffsetHi != 0) &&
			(offset < 0 || offset < r.OffsetLo || offset >= r.OffsetHi) {
			continue
		}
		r.matched++
		if r.matched <= r.AfterN {
			continue
		}
		if r.MaxFires > 0 && r.fired >= r.MaxFires {
			continue
		}
		if r.EveryN > 0 && (r.matched-r.AfterN)%r.EveryN != 0 {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		in.injected++
		return r
	}
	return nil
}

// fire applies the non-transfer parts of a fault (latency, plain
// error). Transfer faults (ShortBy) are handled at the call sites that
// move bytes.
func fire(r *Rule) error {
	if r == nil {
		return nil
	}
	if r.Latency > 0 {
		time.Sleep(r.Latency)
	}
	if r.Err == nil && r.ShortBy == 0 && r.Latency > 0 {
		return nil // latency-only rule
	}
	return r.ruleErr()
}

func (r *Rule) ruleErr() error {
	if r.Err != nil {
		return r.Err
	}
	return syscall.EIO
}

var _ FS = (*Injector)(nil)

func (in *Injector) Create(name string) (File, error) {
	if err := fire(in.decide(OpCreate, name, -1)); err != nil {
		return nil, &os.PathError{Op: "create", Path: name, Err: err}
	}
	f, err := in.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f}, nil
}

func (in *Injector) Open(name string) (File, error) {
	if err := fire(in.decide(OpOpen, name, -1)); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	f, err := in.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f}, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if err := fire(in.decide(OpCreate, dir+"/"+pattern, -1)); err != nil {
		return nil, &os.PathError{Op: "createtemp", Path: pattern, Err: err}
	}
	f, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f}, nil
}

func (in *Injector) MkdirTemp(dir, pattern string) (string, error) {
	if err := fire(in.decide(OpCreate, dir+"/"+pattern, -1)); err != nil {
		return "", &os.PathError{Op: "mkdirtemp", Path: pattern, Err: err}
	}
	return in.inner.MkdirTemp(dir, pattern)
}

func (in *Injector) Remove(name string) error {
	if err := fire(in.decide(OpRemove, name, -1)); err != nil {
		return &os.PathError{Op: "remove", Path: name, Err: err}
	}
	return in.inner.Remove(name)
}

func (in *Injector) RemoveAll(path string) error {
	if err := fire(in.decide(OpRemove, path, -1)); err != nil {
		return &os.PathError{Op: "removeall", Path: path, Err: err}
	}
	return in.inner.RemoveAll(path)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if err := fire(in.decide(OpRename, oldpath, -1)); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return in.inner.Rename(oldpath, newpath)
}

// faultFile applies read/write/sync/close rules to one open file.
type faultFile struct {
	in *Injector
	f  File

	mu    sync.Mutex
	wrOff int64 // cumulative write offset, for write offset predicates
}

var _ File = (*faultFile)(nil)

func (f *faultFile) Name() string               { return f.f.Name() }
func (f *faultFile) Stat() (os.FileInfo, error) { return f.f.Stat() }

func (f *faultFile) Read(p []byte) (int, error) {
	r := f.in.decide(OpRead, f.f.Name(), -1)
	if r != nil {
		if r.Latency > 0 {
			time.Sleep(r.Latency)
		}
		if r.ShortBy > 0 && len(p) > r.ShortBy {
			n, err := f.f.Read(p[:len(p)-r.ShortBy])
			if err != nil {
				return n, err
			}
			return n, r.ruleErr()
		}
		if r.Err != nil || r.ShortBy > 0 || r.Latency == 0 {
			return 0, r.ruleErr()
		}
	}
	return f.f.Read(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	r := f.in.decide(OpRead, f.f.Name(), off)
	if r != nil {
		if r.Latency > 0 {
			time.Sleep(r.Latency)
		}
		if r.ShortBy > 0 && len(p) > r.ShortBy {
			// Short read: a prefix arrives, then the error — ReadAt's
			// contract requires an error whenever n < len(p).
			n, err := f.f.ReadAt(p[:len(p)-r.ShortBy], off)
			if err != nil {
				return n, err
			}
			return n, r.ruleErr()
		}
		if r.Err != nil || r.ShortBy > 0 || r.Latency == 0 {
			return 0, r.ruleErr()
		}
	}
	return f.f.ReadAt(p, off)
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	off := f.wrOff
	f.mu.Unlock()
	r := f.in.decide(OpWrite, f.f.Name(), off)
	if r != nil {
		if r.Latency > 0 {
			time.Sleep(r.Latency)
		}
		if r.ShortBy > 0 && len(p) > r.ShortBy {
			// Torn write: a prefix reaches the device, then the error.
			n, err := f.f.Write(p[:len(p)-r.ShortBy])
			f.advance(n)
			if err != nil {
				return n, err
			}
			return n, r.ruleErr()
		}
		if r.Err != nil || r.ShortBy > 0 || r.Latency == 0 {
			return 0, r.ruleErr()
		}
	}
	n, err := f.f.Write(p)
	f.advance(n)
	return n, err
}

func (f *faultFile) advance(n int) {
	f.mu.Lock()
	f.wrOff += int64(n)
	f.mu.Unlock()
}

func (f *faultFile) Sync() error {
	if err := fire(f.in.decide(OpSync, f.f.Name(), -1)); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *faultFile) Close() error {
	if err := fire(f.in.decide(OpClose, f.f.Name(), -1)); err != nil {
		f.f.Close() // release the descriptor regardless
		return err
	}
	return f.f.Close()
}
