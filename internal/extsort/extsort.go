// Package extsort implements external-memory merge sort over byte
// records.
//
// Section 3 of the paper sorts the file of emitted keyword pairs
// "lexicography (using external memory merge sort) such that all
// identical keyword pairs appear together". This package provides that
// primitive: records are buffered in memory up to a budget, spilled as
// sorted runs to temporary files, and merged with a k-way heap merge.
// The same code path is exercised whether or not a spill happens, so
// tests can force tiny budgets while the benchmark probe uses large ones.
//
// No record is ever a heap object of its own. Add copies a record into
// one byte arena and describes it by a span {prefix, off, n}; sorting
// moves spans, comparing the 8-byte big-endian prefix first and the
// arena bytes only on a tie. Run files hold length-prefixed records
// (uvarint length + payload, any byte allowed), each run source reads
// into one reused buffer, and Iterator.Next hands out a view that is
// valid until the following Next. Record order is plain bytewise
// comparison.
//
// No production package imports extsort: the keyword-graph build
// counts pairs row by row and spills nothing (see DESIGN.md), and the
// only callers left are the benchmark harness's extsort probe
// (bench/build.go) and this package's tests. Two extensions remain
// from when cooccur spilled through here:
//
//   - NewRun streams an already-sorted sequence of records straight
//     into a run file, bypassing the Add arena. It is safe for
//     concurrent use, so several producers can spill into one Sorter.
//   - When the number of runs exceeds the merge fan-in, consecutive
//     groups of runs are pre-merged into longer runs before the final
//     streaming heap merge, keeping the final merge cheap even after
//     thousands of tiny spills.
//
// Long-running merges honor Options.Ctx: the pre-merge and streaming
// merge loops poll for cancellation every few thousand records, so an
// abandoned build releases the CPU and its temp files promptly.
//
// File readers and writers draw their buffers from sync.Pools so
// repeated sorts do not reallocate I/O buffers.
package extsort

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/faultfs"
)

// Stats describes the I/O behaviour of one sort.
type Stats struct {
	// Records is the number of records added.
	Records int
	// Runs is the number of sorted runs spilled to disk. Zero means the
	// sort completed entirely in memory.
	Runs int
	// SpilledBytes counts bytes written to run files (pre-merge passes
	// excluded; this measures what the producers spilled).
	SpilledBytes int64
}

// Options configures a Sorter.
type Options struct {
	// MemoryBudget is the in-memory record-payload budget before Add
	// spills a sorted run. Non-positive means DefaultMemoryBudget.
	MemoryBudget int
	// FanIn is the maximum number of runs the final streaming merge
	// reads at once; more runs than this are first pre-merged in
	// groups of FanIn. Non-positive means DefaultFanIn.
	FanIn int
	// Binary is accepted and ignored: run files are always
	// length-prefixed. The field stays only because bench/build.go
	// names it and bench/ is frozen against performance PRs.
	Binary bool
	// Ctx, when non-nil, cancels long merge loops: pre-merge passes and
	// the streaming merge poll it periodically and abort with its
	// error. Nil means no cancellation.
	Ctx context.Context
	// FS is the filesystem beneath run files. Nil means the OS
	// passthrough; tests substitute a faultfs.Injector to prove the
	// sorter cleans up its spills under injected ENOSPC/EIO faults.
	FS faultfs.FS
}

// ctxErr reports the context's error if o.Ctx is set and done.
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// span locates one buffered record in the arena. prefix is the
// record's first 8 bytes, big-endian and zero-padded, so most
// comparisons never touch the arena.
type span struct {
	prefix uint64
	off, n uint32
}

func prefixOf(rec []byte) uint64 {
	if len(rec) >= 8 {
		return binary.BigEndian.Uint64(rec)
	}
	var p [8]byte
	copy(p[:], rec)
	return binary.BigEndian.Uint64(p[:])
}

// Sorter accumulates records and then streams them back in sorted order.
// The zero value is not usable; call New or NewWithOptions.
//
// Add and AddBytes are intended for a single producing goroutine;
// NewRun and the Runs it returns may be used from many goroutines
// concurrently (also concurrently with one Add producer), one goroutine
// per Run.
type Sorter struct {
	opts       Options
	arena      []byte // payload of every buffered record, back to back
	spans      []span
	addRecords int // Add-path record count; owned by the producer

	mu            sync.Mutex // guards dir, runFiles, stats, finalized
	dir           string     // temp dir holding run files; "" until first spill
	runFiles      []string
	stats         Stats
	finalized     bool
	iteratorTaken bool
}

// DefaultMemoryBudget is the in-memory buffer budget used when New is
// given a non-positive budget (64 MiB).
const DefaultMemoryBudget = 64 << 20

// DefaultFanIn is the maximum fan-in of the final streaming merge.
const DefaultFanIn = 16

// maxArena keeps span offsets inside uint32: the budget is clamped to
// it and no single record may reach it, so the arena stays below 4 GiB.
const maxArena = 1 << 31

// New returns a Sorter that buffers up to maxBytes of record data in
// memory before spilling a sorted run to a temporary file.
func New(maxBytes int) *Sorter {
	return NewWithOptions(Options{MemoryBudget: maxBytes})
}

// NewWithOptions returns a Sorter configured by opts.
func NewWithOptions(opts Options) *Sorter {
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = DefaultMemoryBudget
	}
	opts.MemoryBudget = min(opts.MemoryBudget, maxArena)
	if opts.FanIn <= 1 {
		opts.FanIn = DefaultFanIn
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS()
	}
	return &Sorter{opts: opts}
}

// Add appends one record, copying it into the arena.
//
// Add is single-producer and never concurrent with Sort, so the hot
// path reads finalized and counts records without taking the mutex;
// only spills synchronize.
func (s *Sorter) Add(rec string) error { return add(s, rec) }

// AddBytes is Add for a byte record; rec may be reused by the caller
// as soon as it returns.
func (s *Sorter) AddBytes(rec []byte) error { return add(s, rec) }

func add[T string | []byte](s *Sorter, rec T) error {
	if s.finalized {
		return fmt.Errorf("extsort: Add after Sort")
	}
	if len(rec) >= maxArena {
		return fmt.Errorf("extsort: record of %d bytes is too large", len(rec))
	}
	off := len(s.arena)
	s.arena = append(s.arena, rec...)
	s.spans = append(s.spans, span{prefix: prefixOf(s.arena[off:]), off: uint32(off), n: uint32(len(rec))})
	s.addRecords++
	if len(s.arena) >= s.opts.MemoryBudget {
		return s.spill()
	}
	return nil
}

// sortSpans orders the buffered records bytewise.
func (s *Sorter) sortSpans() {
	arena := s.arena
	slices.SortFunc(s.spans, func(a, b span) int {
		if a.prefix != b.prefix {
			if a.prefix < b.prefix {
				return -1
			}
			return 1
		}
		return bytes.Compare(arena[a.off:a.off+a.n], arena[b.off:b.off+b.n])
	})
}

// spill writes the buffered records as one sorted run and empties the
// arena.
func (s *Sorter) spill() error {
	if len(s.spans) == 0 {
		return nil
	}
	s.sortSpans()
	run, err := s.NewRun()
	if err != nil {
		return err
	}
	for _, sp := range s.spans {
		if err = run.rf.append(s.arena[sp.off : sp.off+sp.n]); err != nil {
			break
		}
	}
	if cerr := run.Close(); err == nil {
		err = cerr
	}
	s.arena = s.arena[:0]
	s.spans = s.spans[:0]
	return err
}

// Run streams one caller-sorted run into the sorter. Obtain it from
// NewRun, Append records in ascending order, then Close. A Run is used
// by one goroutine; different Runs of one Sorter may be written
// concurrently.
type Run struct {
	s    *Sorter
	rf   *runFile
	prev []byte // last appended record, for the order check
	n    int
}

// NewRun starts a run file that bypasses the Add arena. The caller must
// Close the Run, also after a failed Append. Safe for concurrent use.
func (s *Sorter) NewRun() (*Run, error) {
	if err := s.opts.ctxErr(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.finalized {
		s.mu.Unlock()
		return nil, fmt.Errorf("extsort: NewRun after Sort")
	}
	if s.dir == "" {
		dir, err := s.opts.FS.MkdirTemp("", "extsort-")
		if err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("extsort: create temp dir: %w", err)
		}
		s.dir = dir
	}
	name := filepath.Join(s.dir, fmt.Sprintf("run-%06d", len(s.runFiles)))
	s.runFiles = append(s.runFiles, name)
	s.stats.Runs++
	s.mu.Unlock()
	rf, err := createRunFile(s.opts.FS, name)
	if err != nil {
		return nil, err
	}
	return &Run{s: s, rf: rf}, nil
}

// Append writes rec, which must not sort below the previous record of
// this Run. rec may be reused by the caller as soon as Append returns.
func (r *Run) Append(rec []byte) error {
	if r.n > 0 && bytes.Compare(r.prev, rec) > 0 {
		return fmt.Errorf("extsort: run records out of order at %d (%q > %q)", r.n, r.prev, rec)
	}
	r.prev = append(r.prev[:0], rec...)
	r.n++
	return r.rf.append(rec)
}

// Close completes the run and counts its records and bytes.
func (r *Run) Close() error {
	err := r.rf.close()
	r.s.mu.Lock()
	r.s.stats.Records += r.n
	r.s.stats.SpilledBytes += r.rf.written
	r.s.mu.Unlock()
	return err
}

// Sort finalizes the sorter and returns an iterator over all records in
// ascending order. The caller must Close the iterator, which also
// removes any temporary files. Sort must not be called concurrently
// with Add or while a Run is open.
func (s *Sorter) Sort() (*Iterator, error) {
	s.mu.Lock()
	if s.finalized {
		s.mu.Unlock()
		return nil, fmt.Errorf("extsort: Sort called twice")
	}
	spilled := len(s.runFiles) > 0
	s.mu.Unlock()
	var err error
	if spilled {
		// Spill the tail so the merge only deals with files; NewRun
		// refuses once the sorter is finalized, so this comes first.
		err = s.spill()
	}
	s.mu.Lock()
	s.finalized = true
	runs := s.runFiles
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if !spilled {
		// Pure in-memory path.
		s.sortSpans()
		return &Iterator{arena: s.arena, spans: s.spans}, nil
	}
	s.arena, s.spans = nil, nil
	// Pre-merge until the final merge's fan-in is modest.
	for len(runs) > s.opts.FanIn && err == nil {
		if err = s.opts.ctxErr(); err == nil {
			runs, err = s.preMerge(runs)
		}
	}
	it := &Iterator{dir: s.dir, fs: s.opts.FS}
	if err == nil {
		it.m, err = openMerger(runs, s.opts.FS)
	}
	if err != nil {
		it.Close() // removes the run files
		return nil, err
	}
	s.mu.Lock()
	s.iteratorTaken = true
	s.mu.Unlock()
	return it, nil
}

// Discard releases the sorter's temporary files when its iterator was
// never obtained — the cleanup for error paths that abandon a sorter
// after spills. Once Sort has succeeded the Iterator owns the files
// (Close removes them) and Discard is a no-op. Safe to call more than
// once; afterwards the sorter is finalized.
func (s *Sorter) Discard() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finalized = true
	if s.iteratorTaken {
		return
	}
	if s.dir != "" {
		s.opts.FS.RemoveAll(s.dir)
		s.dir = ""
		s.runFiles = nil
	}
}

// preMerge merges consecutive groups of up to FanIn runs, each group
// into one longer run, and removes the source files. Group g holds
// runs[g*FanIn : (g+1)*FanIn].
func (s *Sorter) preMerge(runs []string) ([]string, error) {
	fanIn := s.opts.FanIn
	out := make([]string, 0, (len(runs)+fanIn-1)/fanIn)
	for lo := 0; lo < len(runs); lo += fanIn {
		name := fmt.Sprintf("merge-%06d-%06d", len(runs), len(out))
		merged, err := mergeRuns(s.dir, name, runs[lo:min(lo+fanIn, len(runs))], s.opts)
		if err != nil {
			return nil, err
		}
		out = append(out, merged)
	}
	return out, nil
}

// mergeRuns streams the heap merge of the given run files into a single
// new run file and deletes the inputs. The merge loop polls opts.Ctx
// every ctxPollEvery records so a canceled build stops burning I/O
// mid-merge.
func mergeRuns(dir, name string, runs []string, opts Options) (string, error) {
	if len(runs) == 1 {
		return runs[0], nil
	}
	m, err := openMerger(runs, opts.FS)
	if err != nil {
		return "", err
	}
	defer m.close()
	path := filepath.Join(dir, name)
	rf, err := createRunFile(opts.FS, path)
	if err != nil {
		return "", err
	}
	for n := 1; err == nil; n++ {
		if n%ctxPollEvery == 0 {
			if err = opts.ctxErr(); err != nil {
				break
			}
		}
		rec, ok := m.next()
		if !ok {
			err = m.err
			break
		}
		err = rf.append(rec)
	}
	if cerr := rf.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	for _, rn := range runs {
		opts.FS.Remove(rn)
	}
	return path, nil
}

// Stats returns I/O statistics for the sort so far. Like Sort, it must
// not be called concurrently with Add.
func (s *Sorter) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records += s.addRecords
	return st
}

// --- pooled buffered I/O ---

const ioBufSize = 256 << 10

// ctxPollEvery is the record stride between cancellation polls inside
// merge loops: rare enough to stay off the hot path, frequent enough
// that cancellation lands within microseconds of work.
const ctxPollEvery = 4096

var writerPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, ioBufSize) },
}

var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, ioBufSize) },
}

// runFile writes one run: records framed as uvarint length + payload.
type runFile struct {
	f       faultfs.File
	w       *bufio.Writer
	written int64
	lenBuf  [binary.MaxVarintLen64]byte
}

func createRunFile(fs faultfs.FS, name string) (*runFile, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, fmt.Errorf("extsort: create run file: %w", err)
	}
	w := writerPool.Get().(*bufio.Writer)
	w.Reset(f)
	return &runFile{f: f, w: w}, nil
}

func (rf *runFile) append(rec []byte) error {
	n := binary.PutUvarint(rf.lenBuf[:], uint64(len(rec)))
	if _, err := rf.w.Write(rf.lenBuf[:n]); err != nil {
		return fmt.Errorf("extsort: write run: %w", err)
	}
	if _, err := rf.w.Write(rec); err != nil {
		return fmt.Errorf("extsort: write run: %w", err)
	}
	rf.written += int64(n + len(rec))
	return nil
}

// close flushes and closes the file, also on error paths, where the
// caller drops its result. A write error is sticky in the bufio.Writer,
// so a run whose append failed fails here too.
func (rf *runFile) close() error {
	err := rf.w.Flush()
	rf.w.Reset(io.Discard)
	writerPool.Put(rf.w)
	if err != nil {
		rf.f.Close()
		return fmt.Errorf("extsort: flush run: %w", err)
	}
	if err := rf.f.Close(); err != nil {
		return fmt.Errorf("extsort: close run: %w", err)
	}
	return nil
}

// runSource reads one sorted run file. cur is the current record, held
// in a buffer the next advance overwrites.
type runSource struct {
	f   faultfs.File
	br  *bufio.Reader
	cur []byte
	err error
}

func openRunSource(name string, fs faultfs.FS) (*runSource, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("extsort: open run: %w", err)
	}
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(f)
	return &runSource{f: f, br: br}, nil
}

// advance reads the next length-prefixed record into cur.
func (r *runSource) advance() bool {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err != io.EOF {
			r.err = fmt.Errorf("extsort: read run record length: %w", err)
		}
		return false
	}
	if n >= maxArena {
		r.err = fmt.Errorf("extsort: run record length %d is corrupt", n)
		return false
	}
	r.cur = slices.Grow(r.cur[:0], int(n))[:n]
	if _, err := io.ReadFull(r.br, r.cur); err != nil {
		r.err = fmt.Errorf("extsort: read run record: %w", err)
		return false
	}
	return true
}

func (r *runSource) close() {
	r.br.Reset(nil)
	readerPool.Put(r.br)
	r.f.Close()
}

// merger is the k-way merge of open run sources: a min-heap ordered by
// current record. The record next returns is a view of its source's
// buffer, so the source is advanced lazily, on the following next.
type merger struct {
	h       []*runSource
	pending bool // h[0]'s record is handed out and not yet consumed
	err     error
}

// openMerger opens every run and primes the heap. On error everything
// it opened is closed again.
func openMerger(runs []string, fs faultfs.FS) (merger, error) {
	var m merger
	for _, name := range runs {
		src, err := openRunSource(name, fs)
		if err != nil {
			m.close()
			return merger{}, err
		}
		if src.advance() {
			m.h = append(m.h, src)
			continue
		}
		src.close()
		if src.err != nil {
			m.close()
			return merger{}, src.err
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m, nil
}

// down restores the heap below slot i.
func (m *merger) down(i int) {
	h := m.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && bytes.Compare(h[c+1].cur, h[c].cur) < 0 {
			c++
		}
		if bytes.Compare(h[c].cur, h[i].cur) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// next returns the smallest unread record, valid until the following
// call. ok is false at the end of the stream or on a read error, which
// is then in m.err.
func (m *merger) next() (rec []byte, ok bool) {
	if m.err != nil {
		return nil, false
	}
	if m.pending {
		m.pending = false
		src := m.h[0]
		if !src.advance() {
			if src.err != nil {
				m.err = src.err
				return nil, false
			}
			src.close()
			last := len(m.h) - 1
			m.h[0] = m.h[last]
			m.h = m.h[:last]
		}
		m.down(0)
	}
	if len(m.h) == 0 {
		return nil, false
	}
	m.pending = true
	return m.h[0].cur, true
}

func (m *merger) close() {
	for _, src := range m.h {
		src.close()
	}
	m.h = nil
}

// Iterator yields records in sorted order.
type Iterator struct {
	// In-memory path.
	arena []byte
	spans []span
	pos   int
	// Merge path.
	dir string
	fs  faultfs.FS
	m   merger
}

// Next returns the next record. The slice is only valid until the
// following call to Next; copy it to keep it. ok is false when the
// stream is exhausted or an error occurred; check Err afterwards.
func (it *Iterator) Next() (rec []byte, ok bool) {
	if it.dir != "" {
		return it.m.next()
	}
	if it.pos >= len(it.spans) {
		return nil, false
	}
	sp := it.spans[it.pos]
	it.pos++
	return it.arena[sp.off : sp.off+sp.n], true
}

// Err returns the first error encountered while iterating.
func (it *Iterator) Err() error { return it.m.err }

// Close releases run files and the temporary directory.
func (it *Iterator) Close() error {
	it.m.close()
	if it.dir != "" {
		if err := it.fs.RemoveAll(it.dir); err != nil {
			return fmt.Errorf("extsort: remove temp dir: %w", err)
		}
		it.dir = ""
	}
	return nil
}
