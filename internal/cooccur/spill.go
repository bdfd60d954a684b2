package cooccur

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/faultfs"
)

// The spill route keeps every run of one build in one temp file. A run
// is a sorted block of 16-byte records appended to the end of the
// file; runs[i] is its start offset, and it ends where run i+1 starts
// (the last run at size). One buffer serves the whole route: spills
// encode records into it, and a merge splits it into one read share
// per run.
const (
	// spillBufBytes is the size of a spilled build's one I/O buffer.
	spillBufBytes = 64 << 10
	// minShareBytes is the smallest read share a merge gives one run.
	// More runs than maxFanIn make the build merge groups of them back
	// into the file first.
	minShareBytes = 4 << 10
	maxFanIn      = spillBufBytes / minShareBytes
	// spillPrefix names the temp file.
	spillPrefix = "cooccur-spill-"
)

// spillFile is the one temp file of a spilled build; the zero value
// has no file yet. The file and its state are per build (reset); the
// buffer and the run and merge arrays outlive it, for a Builder's next
// build to reuse.
type spillFile struct {
	fs       faultfs.FS
	f        faultfs.File
	unlinked bool    // the name is already removed
	size     int64   // bytes written, i.e. the file's end
	runs     []int64 // start offset of each live run, in file order
	stats    spillStats

	buf     []byte       // spillBufBytes, allocated with the first file
	next    []int64      // a fan-in pass's new runs
	cursors []runCursor  // a merge's runs
	heap    []*runCursor // a merge's heap over cursors
}

// reset readies s for a new build on fs, with no file yet.
func (s *spillFile) reset(fs faultfs.FS) {
	s.fs, s.f, s.unlinked, s.size = fs, nil, false, 0
	s.runs = s.runs[:0]
	s.stats = spillStats{}
}

// spillStats reports what a build's spill route did.
type spillStats struct {
	spills      int // runs the table spilled, the leftover included
	fanInPasses int // fan-in passes before the final merge
}

// appendRun writes entries, sorted by key, to the end of the file as
// one run, creating the file on the build's first spill.
func (s *spillFile) appendRun(entries []pairEntry) error {
	if s.f == nil {
		f, err := s.fs.CreateTemp("", spillPrefix+"*")
		if err != nil {
			return fmt.Errorf("cooccur: spill file: %w", err)
		}
		s.f = f
		// Unlinked at once where the OS allows it: the open file stays
		// usable, and a process killed mid-build leaves nothing behind.
		// Elsewhere close removes it.
		s.unlinked = s.fs.Remove(f.Name()) == nil
		if s.buf == nil {
			s.buf = make([]byte, spillBufBytes)
			s.runs = make([]int64, 0, maxFanIn)
		}
	}
	s.runs = append(s.runs, s.size)
	s.stats.spills++
	w := runWriter{s: s, buf: s.buf}
	for _, e := range entries {
		if err := w.put(e.key, e.count); err != nil {
			return err
		}
	}
	return w.flush()
}

// close closes the file, if there is one, and removes it unless it is
// already unlinked. Their errors are dropped: the file is scratch that
// no result depends on, and a build that already failed keeps its own
// error.
func (s *spillFile) close() {
	if s.f == nil {
		return
	}
	_ = s.f.Close()
	if !s.unlinked {
		_ = s.fs.Remove(s.f.Name())
	}
}

// aggregate folds every run into f: fan-in passes until the runs fit
// the buffer, then one merge that hands each key's summed count to
// f.add. The merge's input bounds the triplets, so an unpruned fold
// sizes Edges from it once.
func (s *spillFile) aggregate(ctx context.Context, f *fold) error {
	if err := s.fanIn(ctx); err != nil {
		return err
	}
	f.reserve(int((s.size - s.runs[0]) / spillRecordLen))
	return s.merge(ctx, s.runs, s.size, s.buf, func(key uint64, count int64) error {
		f.add(key, count)
		return nil
	})
}

// fanIn merges consecutive groups of runs into new runs at the end of
// the file, folding equal keys, until at most maxFanIn runs are left.
// During a pass one share of the buffer holds the output, so a group
// merges at most maxFanIn-1 runs; groups are balanced, so none is a
// lone run copied through.
func (s *spillFile) fanIn(ctx context.Context) error {
	for len(s.runs) > maxFanIn {
		runs, end := s.runs, s.size
		groups := (len(runs) + maxFanIn - 2) / (maxFanIn - 1)
		next := s.next[:0]
		out := runWriter{s: s, buf: s.buf[:minShareBytes]}
		for i := range groups {
			lo, hi := i*len(runs)/groups, (i+1)*len(runs)/groups
			groupEnd := end
			if hi < len(runs) {
				groupEnd = runs[hi]
			}
			next = append(next, s.size)
			if err := s.merge(ctx, runs[lo:hi], groupEnd, s.buf[minShareBytes:], out.put); err != nil {
				return err
			}
			if err := out.flush(); err != nil {
				return err
			}
		}
		// The old run list becomes the next pass's output array.
		s.runs, s.next = next, runs
		s.stats.fanInPasses++
	}
	return nil
}

// merge reads the runs starting at offsets runs (the last ending at
// end) through equal shares of buf and calls emit once per distinct
// key, in ascending key order, with the key's summed count. It polls
// ctx every 4 096 records.
func (s *spillFile) merge(ctx context.Context, runs []int64, end int64, buf []byte, emit func(key uint64, count int64) error) error {
	share := len(buf) / len(runs) / spillRecordLen * spillRecordLen
	cursors := resize(s.cursors, len(runs))
	s.cursors = cursors
	h := resize(s.heap, len(runs))[:0]
	for i, off := range runs {
		c := &cursors[i]
		*c = runCursor{off: off, end: end, buf: buf[i*share : (i+1)*share]}
		if i+1 < len(runs) {
			c.end = runs[i+1]
		}
		ok, err := c.next(s.f)
		if err != nil {
			return err
		}
		if ok {
			h = append(h, c)
		}
	}
	s.heap = h[:0] // h only shrinks from here
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	const pollEvery = 4096
	var (
		curKey   uint64
		curCount int64
		started  bool
		seen     int
	)
	for len(h) > 0 {
		if seen++; seen%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		c := h[0]
		if started && c.key == curKey {
			curCount += c.count
		} else {
			if started {
				if err := emit(curKey, curCount); err != nil {
					return err
				}
			}
			curKey, curCount, started = c.key, c.count, true
		}
		ok, err := c.next(s.f)
		if err != nil {
			return err
		}
		if !ok {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	if started {
		return emit(curKey, curCount)
	}
	return nil
}

// siftDown restores the min-heap order on key below position i.
func siftDown(h []*runCursor, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l].key < h[least].key {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r].key < h[least].key {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// runCursor reads one run through its share of the buffer.
type runCursor struct {
	off, end int64  // next file byte to read; end of the run
	buf      []byte // this run's share, a whole number of records
	rec      []byte // records read but not yet consumed
	key      uint64 // current record
	count    int64
}

// next makes the run's next record current and reports false at the
// end of the run. A short read, and a key below the previous one, are
// errors.
func (c *runCursor) next(f faultfs.File) (bool, error) {
	if len(c.rec) == 0 {
		if c.off >= c.end {
			return false, nil
		}
		n := int(min(int64(len(c.buf)), c.end-c.off))
		got, err := f.ReadAt(c.buf[:n], c.off)
		if got < n {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return false, fmt.Errorf("cooccur: spill read of %d bytes at %d: %w", n, c.off, err)
		}
		c.off += int64(n)
		c.rec = c.buf[:n]
	}
	key, count := spillRecord(c.rec)
	if key < c.key {
		return false, fmt.Errorf("cooccur: corrupt spill run: key %#x after %#x", key, c.key)
	}
	c.key, c.count = key, count
	c.rec = c.rec[spillRecordLen:]
	return true, nil
}

// runWriter appends records to the end of the spill file through buf.
type runWriter struct {
	s   *spillFile
	buf []byte
	n   int
}

func (w *runWriter) put(key uint64, count int64) error {
	if w.n+spillRecordLen > len(w.buf) {
		if err := w.flush(); err != nil {
			return err
		}
	}
	putSpillRecord(w.buf[w.n:], key, count)
	w.n += spillRecordLen
	return nil
}

func (w *runWriter) flush() error {
	if w.n == 0 {
		return nil
	}
	n, err := w.s.f.Write(w.buf[:w.n])
	w.s.size += int64(n)
	w.n = 0
	if err != nil {
		return fmt.Errorf("cooccur: spill write: %w", err)
	}
	return nil
}

// --- spill record codec ---
//
// A spilled entry is a fixed 16-byte record: the key then the count,
// both big-endian. The merge orders runs by the decoded key.

const spillRecordLen = 16

func putSpillRecord(b []byte, key uint64, count int64) {
	binary.BigEndian.PutUint64(b[:8], key)
	binary.BigEndian.PutUint64(b[8:16], uint64(count))
}

func spillRecord(b []byte) (key uint64, count int64) {
	return binary.BigEndian.Uint64(b[:8]), int64(binary.BigEndian.Uint64(b[8:16]))
}
