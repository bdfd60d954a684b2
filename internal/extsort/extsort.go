// Package extsort implements external-memory merge sort over string
// records.
//
// Section 3 of the paper sorts the file of emitted keyword pairs
// "lexicography (using external memory merge sort) such that all
// identical keyword pairs appear together". This package provides that
// primitive: records are buffered in memory up to a budget, spilled as
// sorted runs to temporary files, and merged with a k-way heap merge.
// The same code path is exercised whether or not a spill happens, so
// tests can force tiny budgets while production callers use large ones.
//
// Three extensions serve the sharded keyword-graph pipeline
// (internal/cooccur, see DESIGN.md):
//
//   - AddSortedRun accepts an already-sorted batch of records and spills
//     it directly as a run, bypassing the Add buffer. It is safe for
//     concurrent use, so parallel shards can spill into one Sorter.
//   - When the number of runs exceeds the merge fan-in, groups of runs
//     are pre-merged concurrently (one goroutine per group, capped by
//     Options.Parallelism) into longer runs before the final streaming
//     heap merge, keeping the final merge cheap even after thousands of
//     tiny spills.
//   - Options.Binary switches run files from newline-terminated text
//     records to length-prefixed binary records (uvarint length +
//     payload). Binary records may contain any byte, including '\n',
//     and skip the per-record newline scan and the ParseX/FormatX
//     round-trips text encodings force on callers; the record order is
//     plain bytewise comparison either way.
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
	"container/heap"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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
	// MemoryBudget is the in-memory buffer budget before Add spills a
	// sorted run. Non-positive means DefaultMemoryBudget.
	MemoryBudget int
	// Parallelism caps the goroutines used to pre-merge runs when their
	// count exceeds FanIn. Non-positive means GOMAXPROCS.
	Parallelism int
	// FanIn is the maximum number of runs the final streaming merge
	// reads at once; more runs than this are first pre-merged in
	// parallel groups of FanIn. Non-positive means DefaultFanIn.
	FanIn int
	// Binary stores run records length-prefixed (uvarint + payload)
	// instead of newline-terminated, allowing arbitrary record bytes
	// and skipping the newline validation scan.
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
	select {
	case <-o.Ctx.Done():
		return o.Ctx.Err()
	default:
		return nil
	}
}

// Sorter accumulates records and then streams them back in sorted order.
// The zero value is not usable; call New or NewWithOptions.
//
// Add is intended for a single producing goroutine; AddSortedRun may be
// called from many goroutines concurrently (also concurrently with one
// Add producer).
type Sorter struct {
	opts       Options
	buf        []string
	bufBytes   int
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
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.FanIn <= 1 {
		opts.FanIn = DefaultFanIn
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS()
	}
	return &Sorter{opts: opts}
}

// Add appends one record. Records must not contain '\n' unless the
// sorter uses Options.Binary.
//
// Add is single-producer and never concurrent with Sort, so the hot
// path reads finalized and counts records without taking the mutex;
// only spills synchronize.
func (s *Sorter) Add(rec string) error {
	if s.finalized {
		return fmt.Errorf("extsort: Add after Sort")
	}
	if !s.opts.Binary && strings.ContainsRune(rec, '\n') {
		return fmt.Errorf("extsort: record contains newline: %q", rec)
	}
	s.buf = append(s.buf, rec)
	s.bufBytes += len(rec)
	s.addRecords++
	if s.bufBytes >= s.opts.MemoryBudget {
		return s.spill()
	}
	return nil
}

// AddSortedRun spills recs, which must already be in ascending order, as
// one run. The records are written out immediately; recs may be reused
// by the caller afterwards. Safe for concurrent use. Records must not
// contain '\n' unless the sorter uses Options.Binary.
func (s *Sorter) AddSortedRun(recs []string) error {
	if s.isFinalized() {
		return fmt.Errorf("extsort: AddSortedRun after Sort")
	}
	if len(recs) == 0 {
		return nil
	}
	for i, rec := range recs {
		if !s.opts.Binary && strings.ContainsRune(rec, '\n') {
			return fmt.Errorf("extsort: record contains newline: %q", rec)
		}
		if i > 0 && recs[i-1] > rec {
			return fmt.Errorf("extsort: AddSortedRun records out of order at %d (%q > %q)", i, recs[i-1], rec)
		}
	}
	if err := s.writeRun(recs); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.Records += len(recs)
	s.mu.Unlock()
	return nil
}

func (s *Sorter) isFinalized() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finalized
}

func (s *Sorter) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	slices.Sort(s.buf)
	if err := s.writeRun(s.buf); err != nil {
		return err
	}
	s.buf = s.buf[:0]
	s.bufBytes = 0
	return nil
}

// tempDir lazily creates the run directory. Callers must not hold mu.
func (s *Sorter) tempDir() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		dir, err := s.opts.FS.MkdirTemp("", "extsort-")
		if err != nil {
			return "", fmt.Errorf("extsort: create temp dir: %w", err)
		}
		s.dir = dir
	}
	return s.dir, nil
}

// registerRun reserves the next run filename.
func (s *Sorter) registerRun(dir string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	name := filepath.Join(dir, fmt.Sprintf("run-%06d", len(s.runFiles)))
	s.runFiles = append(s.runFiles, name)
	s.stats.Runs++
	return name
}

// writeRun streams one sorted batch to a fresh run file, framed per
// the sorter's record format (newline-terminated text or
// length-prefixed binary).
func (s *Sorter) writeRun(recs []string) error {
	if err := s.opts.ctxErr(); err != nil {
		return err
	}
	dir, err := s.tempDir()
	if err != nil {
		return err
	}
	name := s.registerRun(dir)
	f, err := s.opts.FS.Create(name)
	if err != nil {
		return fmt.Errorf("extsort: create run file: %w", err)
	}
	w := getWriter(f)
	var written int64
	var lenBuf []byte
	for _, rec := range recs {
		n, err := writeRecord(w, rec, s.opts.Binary, &lenBuf)
		if err != nil {
			putWriter(w)
			f.Close()
			return fmt.Errorf("extsort: write run: %w", err)
		}
		written += int64(n)
	}
	err = w.Flush()
	putWriter(w)
	if err != nil {
		f.Close()
		return fmt.Errorf("extsort: flush run: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("extsort: close run: %w", err)
	}
	s.mu.Lock()
	s.stats.SpilledBytes += written
	s.mu.Unlock()
	return nil
}

// Sort finalizes the sorter and returns an iterator over all records in
// ascending order. The caller must Close the iterator, which also
// removes any temporary files. Sort must not be called concurrently
// with Add or AddSortedRun.
func (s *Sorter) Sort() (*Iterator, error) {
	s.mu.Lock()
	if s.finalized {
		s.mu.Unlock()
		return nil, fmt.Errorf("extsort: Sort called twice")
	}
	s.finalized = true
	spilled := len(s.runFiles) > 0
	s.mu.Unlock()

	if !spilled {
		// Pure in-memory path.
		slices.Sort(s.buf)
		return &Iterator{mem: s.buf}, nil
	}
	// Spill the tail so the merge only deals with files.
	if len(s.buf) > 0 {
		slices.Sort(s.buf)
		if err := s.writeRun(s.buf); err != nil {
			return nil, err
		}
		s.buf = nil
	}
	runs := s.runFiles
	// Pre-merge in parallel until the final merge's fan-in is modest.
	for len(runs) > s.opts.FanIn {
		if err := s.opts.ctxErr(); err != nil {
			s.opts.FS.RemoveAll(s.dir)
			return nil, err
		}
		merged, err := s.preMerge(runs)
		if err != nil {
			s.opts.FS.RemoveAll(s.dir)
			return nil, err
		}
		runs = merged
	}
	it := &Iterator{dir: s.dir, fs: s.opts.FS}
	for _, name := range runs {
		src, err := openRunSource(name, s.opts.Binary, s.opts.FS)
		if err != nil {
			it.Close()
			return nil, err
		}
		if src.advance() {
			it.h = append(it.h, src)
		} else {
			src.close()
			if src.err != nil {
				it.Close()
				return nil, src.err
			}
		}
	}
	heap.Init(&it.h)
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

// preMerge merges groups of up to FanIn runs concurrently, each group
// into one longer run, and removes the source files. Group g holds
// runs[g*FanIn : (g+1)*FanIn], so the relative order of records across
// the returned files is preserved for the final merge.
func (s *Sorter) preMerge(runs []string) ([]string, error) {
	fanIn := s.opts.FanIn
	groups := (len(runs) + fanIn - 1) / fanIn
	out := make([]string, groups)
	errs := make([]error, groups)
	sem := make(chan struct{}, s.opts.Parallelism)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		lo, hi := g*fanIn, (g+1)*fanIn
		if hi > len(runs) {
			hi = len(runs)
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(g int, group []string) {
			defer wg.Done()
			defer func() { <-sem }()
			out[g], errs[g] = mergeRuns(s.dir, fmt.Sprintf("merge-%06d-%06d", len(runs), g), group, s.opts)
		}(g, runs[lo:hi])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mergeRuns streams the heap merge of the given run files into a single
// new run file and deletes the inputs. The merge loop polls opts.Ctx
// every ctxPollEvery records so a canceled build stops burning I/O
// mid-merge.
func mergeRuns(dir, name string, runs []string, opts Options) (path string, err error) {
	if len(runs) == 1 {
		return runs[0], nil
	}
	var h mergeHeap
	closeAll := func() {
		for _, src := range h {
			src.close()
		}
	}
	for _, rn := range runs {
		src, err := openRunSource(rn, opts.Binary, opts.FS)
		if err != nil {
			closeAll()
			return "", err
		}
		if src.advance() {
			h = append(h, src)
		} else {
			src.close()
			if src.err != nil {
				closeAll()
				return "", src.err
			}
		}
	}
	heap.Init(&h)
	path = filepath.Join(dir, name)
	f, err := opts.FS.Create(path)
	if err != nil {
		closeAll()
		return "", fmt.Errorf("extsort: create merged run: %w", err)
	}
	w := getWriter(f)
	fail := func(err error) (string, error) {
		putWriter(w)
		f.Close()
		closeAll()
		return "", err
	}
	var lenBuf []byte
	var sinceCheck int
	for len(h) > 0 {
		if sinceCheck++; sinceCheck >= ctxPollEvery {
			sinceCheck = 0
			if err := opts.ctxErr(); err != nil {
				return fail(err)
			}
		}
		src := h[0]
		if _, err := writeRecord(w, src.cur, opts.Binary, &lenBuf); err != nil {
			return fail(fmt.Errorf("extsort: write merged run: %w", err))
		}
		if src.advance() {
			heap.Fix(&h, 0)
		} else {
			if src.err != nil {
				return fail(src.err)
			}
			src.close()
			heap.Pop(&h)
		}
	}
	err = w.Flush()
	putWriter(w)
	if err != nil {
		f.Close()
		return "", fmt.Errorf("extsort: flush merged run: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("extsort: close merged run: %w", err)
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

// writeRecord frames one record: uvarint length + payload in binary
// mode, the record + '\n' in text mode. Returns the bytes written.
// *lenBuf is reused across calls for the uvarint scratch.
func writeRecord(w *bufio.Writer, rec string, bin bool, lenBuf *[]byte) (int, error) {
	if !bin {
		n, err := w.WriteString(rec)
		if err == nil {
			err = w.WriteByte('\n')
		}
		return n + 1, err
	}
	b := binary.AppendUvarint((*lenBuf)[:0], uint64(len(rec)))
	*lenBuf = b
	if _, err := w.Write(b); err != nil {
		return 0, err
	}
	n, err := w.WriteString(rec)
	return len(b) + n, err
}

var writerPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, ioBufSize) },
}

func getWriter(w io.Writer) *bufio.Writer {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putWriter(bw *bufio.Writer) {
	bw.Reset(io.Discard)
	writerPool.Put(bw)
}

var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, ioBufSize) },
}

// runSource reads one sorted run file (text or binary framing).
type runSource struct {
	f    faultfs.File
	br   *bufio.Reader
	bin  bool
	buf  []byte // binary-mode payload scratch
	cur  string
	err  error
	done bool
}

func openRunSource(name string, bin bool, fs faultfs.FS) (*runSource, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("extsort: open run: %w", err)
	}
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(f)
	return &runSource{f: f, br: br, bin: bin}, nil
}

func (r *runSource) advance() bool {
	if r.bin {
		return r.advanceBinary()
	}
	line, err := r.br.ReadString('\n')
	if err == nil {
		r.cur = line[:len(line)-1]
		return true
	}
	if err == io.EOF {
		if len(line) > 0 {
			// Final record without trailing newline (not produced by our
			// writers, but tolerated).
			r.cur = line
			return true
		}
	} else {
		r.err = err
	}
	r.done = true
	return false
}

// advanceBinary reads one length-prefixed record.
func (r *runSource) advanceBinary() bool {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err != io.EOF {
			r.err = fmt.Errorf("extsort: read run record length: %w", err)
		}
		r.done = true
		return false
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	buf := r.buf[:n]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		r.err = fmt.Errorf("extsort: read run record: %w", err)
		r.done = true
		return false
	}
	r.cur = string(buf)
	return true
}

func (r *runSource) close() {
	if r.br != nil {
		r.br.Reset(nil)
		readerPool.Put(r.br)
		r.br = nil
	}
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// mergeHeap is a min-heap of run sources ordered by current record.
type mergeHeap []*runSource

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].cur < h[j].cur }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*runSource)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Iterator yields records in sorted order.
type Iterator struct {
	// In-memory path.
	mem []string
	pos int
	// Merge path.
	dir string
	fs  faultfs.FS
	h   mergeHeap
	err error
}

// Next returns the next record. ok is false when the stream is
// exhausted or an error occurred; check Err afterwards.
func (it *Iterator) Next() (rec string, ok bool) {
	if it.err != nil {
		return "", false
	}
	if it.dir == "" {
		if it.pos >= len(it.mem) {
			return "", false
		}
		rec = it.mem[it.pos]
		it.pos++
		return rec, true
	}
	if len(it.h) == 0 {
		return "", false
	}
	src := it.h[0]
	rec = src.cur
	if src.advance() {
		heap.Fix(&it.h, 0)
	} else {
		if src.err != nil {
			it.err = src.err
			return "", false
		}
		src.close()
		heap.Pop(&it.h)
	}
	return rec, true
}

// Err returns the first error encountered while iterating.
func (it *Iterator) Err() error { return it.err }

// Close releases run files and the temporary directory.
func (it *Iterator) Close() error {
	for _, src := range it.h {
		src.close()
	}
	it.h = nil
	if it.dir != "" {
		if err := it.fs.RemoveAll(it.dir); err != nil {
			return fmt.Errorf("extsort: remove temp dir: %w", err)
		}
		it.dir = ""
	}
	return nil
}
