package index

import (
	"context"

	"repro/internal/diskstore"
	"repro/internal/faultfs"
)

// Config is the one coherent option set of the disk backend: segment
// building (BuildDisk, Store.Push), segment opening (OpenDisk) and the
// multi-segment Store's compaction policy all consume it — a live Store
// both writes and reads segments, so the knobs have to travel together.
// The mem backend (MemIndex) has no segments and reads none of it.
type Config struct {
	// BlockSize is the number of postings per on-disk block; smaller
	// blocks mean finer-grained skips at the cost of more per-block
	// overhead. Non-positive means the default, 128.
	BlockSize int
	// SortMemoryBudget is accepted and ignored: a segment build groups
	// one interval's postings in memory and uses no external sorter.
	// The field stays only because bench/build.go names it.
	SortMemoryBudget int
	// MemBudget bounds the resident bytes of each opened segment's
	// decoded-block LRU cache. Non-positive means the default, 8 MiB.
	MemBudget int
	// FS is the filesystem segments are built on and read through. Nil
	// means the OS passthrough; tests substitute a faultfs.Injector to
	// exercise the retry and cleanup paths end to end.
	FS faultfs.FS
	// Retry bounds how block and section reads retry transient faults
	// (EIO, short reads). The zero value uses the diskstore defaults;
	// Attempts=1 disables retry. Corrupt blocks (ErrCorrupt) are never
	// retried — re-reading wrong bytes yields the same wrong bytes.
	Retry diskstore.RetryPolicy
	// Ctx bounds retry backoff sleeps for the life of the opened
	// segments, not just the opening call: readers outlive the query
	// that opened them, so pass a session-lifetime context. Nil means no
	// cancellation.
	Ctx context.Context
	// CompactAfter is the disk Store's compaction threshold: once more
	// than CompactAfter delta segments accumulate, the next push
	// schedules a fold of every segment into one new base. 0 means
	// DefaultCompactAfter; negative disables compaction.
	CompactAfter int
}

// fs returns the configured filesystem or the OS passthrough.
func (c Config) fs() faultfs.FS {
	if c.FS != nil {
		return c.FS
	}
	return faultfs.OS()
}

// blockSize returns the configured block size or the default.
func (c Config) blockSize() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return defaultBlockSize
}

// compactAfter returns the configured delta threshold, 0 meaning the
// default and negative meaning "never".
func (c Config) compactAfter() int {
	if c.CompactAfter == 0 {
		return DefaultCompactAfter
	}
	return c.CompactAfter
}
