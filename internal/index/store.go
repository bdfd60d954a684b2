// Multi-segment index store: the mutable, LSM-style layer over the
// immutable segment formats. A Store starts as one base segment built
// from the opening corpus; each pushed interval becomes a small delta
// segment (the same delta+varint block format, local interval indices
// starting at 0), and one multi-segment Reader (segView) routes every
// query to the segment covering its interval — segments cover contiguous,
// non-overlapping global interval ranges, so "merging at read time" is
// routing plus concatenation, never a k-way merge. Compaction folds
// every segment into one new base (written to a .partial file and
// renamed over the old base, so a crash leaves only .partial residue)
// once more than CompactAfter deltas accumulate.
package index

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/diskstore"
	"repro/internal/faultfs"
)

// DefaultCompactAfter is the delta-count threshold beyond which a push
// asks for compaction.
const DefaultCompactAfter = 4

// Backend names for OpenStore.
const (
	BackendMem  = "mem"
	BackendDisk = "disk"
)

// storeSeg is one live segment: a reader over local intervals
// [0, n) standing for global intervals [start, start+n).
type storeSeg struct {
	r     Reader
	start int
	n     int
	path  string // "" for mem segments and unlinked files
}

// Store is the mutable multi-segment index. It implements Reader (the
// merged view over every segment) plus Push and Compact. Reads are
// safe concurrently with pushes and compaction; Push calls must be
// serialized by the caller (the Engine holds its push lock).
type Store struct {
	cfg      Config
	backend  string
	basePath string // disk backend: the base segment file
	dir      string // owned temp directory, removed on Close ("" if none)
	fs       faultfs.FS

	mu     sync.RWMutex
	segs   segView
	closed bool
	// baseIO accumulates the I/O counters of segments retired by
	// compaction, so Stats never goes backwards.
	baseIO diskstore.IOStats

	// compactMu serializes compaction (and orders Close after it).
	compactMu sync.Mutex
	deltaSeq  atomic.Int64
}

var _ Reader = (*Store)(nil)

// OpenStore builds the base segment from the collection and returns
// the live store. backend is BackendMem or BackendDisk; path is where
// the disk backend's base segment lives — empty means a private
// temporary directory removed on Close. ctx bounds the build; cfg.Ctx
// bounds the opened segments' retry backoff for the store's lifetime.
func OpenStore(ctx context.Context, c *corpus.Collection, backend, path string, cfg Config) (*Store, error) {
	return OpenStoreTokens(ctx, c, corpus.Tokenizing(c), backend, path, cfg)
}

// OpenStoreTokens is OpenStore over the tokens src gives for each of
// c's intervals, for a caller that shares them with other builds.
func OpenStoreTokens(ctx context.Context, c *corpus.Collection, src corpus.TokenSource, backend, path string, cfg Config) (*Store, error) {
	s := &Store{cfg: cfg, backend: backend, fs: cfg.fs()}
	switch backend {
	case "", BackendMem:
		s.backend, path = BackendMem, ""
	case BackendDisk:
		if path == "" {
			dir, err := s.fs.MkdirTemp("", "blogclusters-idx-")
			if err != nil {
				return nil, fmt.Errorf("index: temp segment dir: %w", err)
			}
			s.dir = dir
			path = filepath.Join(dir, "base.seg")
		}
		s.basePath = path
	default:
		return nil, fmt.Errorf("index: unknown store backend %q (want mem or disk)", backend)
	}
	r, err := s.segment(ctx, c, src, path)
	if err != nil {
		if s.dir != "" {
			s.fs.RemoveAll(s.dir)
		}
		return nil, err
	}
	s.segs = segView{{r: r, start: 0, n: len(c.Intervals), path: path}}
	return s, nil
}

// segment builds c's segment on the store's backend: an in-memory
// *Index, or a segment file at path opened for reading. On error no
// file is left at path.
func (s *Store) segment(ctx context.Context, c *corpus.Collection, src corpus.TokenSource, path string) (Reader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.backend == BackendMem {
		x, err := newIndex(ctx, c, src)
		if err != nil {
			return nil, err
		}
		return x, nil
	}
	if err := buildSegment(ctx, c, src, path, s.cfg); err != nil {
		return nil, err
	}
	d, err := OpenDisk(path, s.cfg)
	if err != nil {
		s.fs.Remove(path)
		return nil, err
	}
	return d, nil
}

// localize returns one interval's corpus with the documents remapped to
// local interval 0, so the single-segment builders produce a correct
// delta segment.
func localize(iv corpus.Interval) *corpus.Collection {
	docs := make([]corpus.Document, len(iv.Docs))
	for i, d := range iv.Docs {
		d.Interval = 0
		docs[i] = d
	}
	return &corpus.Collection{Intervals: []corpus.Interval{{Index: 0, Label: iv.Label, Docs: docs}}}
}

// Push appends one interval as a delta segment; tk is the interval's
// tokens (corpus.Tokenize of it). iv.Index must be exactly
// NumIntervals() — intervals are append-only and contiguous. On error
// the store is unchanged (the disk build removes its .partial file on
// every failure path).
func (s *Store) Push(ctx context.Context, iv corpus.Interval, tk *corpus.Tokens) error {
	s.mu.RLock()
	next := s.segs.NumIntervals()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return fmt.Errorf("index: push on closed store")
	}
	if iv.Index != next {
		return fmt.Errorf("index: pushed interval %d, store expects %d", iv.Index, next)
	}
	src := func(context.Context, int, *corpus.Tokenizer) (*corpus.Tokens, error) { return tk, nil }
	path := ""
	if s.backend == BackendDisk {
		path = fmt.Sprintf("%s.delta%04d", s.basePath, s.deltaSeq.Add(1))
	}
	r, err := s.segment(ctx, localize(iv), src, path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.segs.NumIntervals() != next {
		r.Close()
		if path != "" {
			s.fs.Remove(path)
		}
		return fmt.Errorf("index: store changed under push of interval %d", iv.Index)
	}
	s.segs = append(s.segs, storeSeg{r: r, start: next, n: 1, path: path})
	return nil
}

// NeedsCompaction reports whether the delta count exceeds the policy
// threshold.
func (s *Store) NeedsCompaction() bool {
	after := s.cfg.compactAfter()
	if after < 0 {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.segs)-1 > after
}

// Compact folds every current segment into one new base segment and
// swaps it in; intervals pushed while the fold runs survive as deltas
// on top of the new base. The new base is written to a .partial file
// and renamed over the old base path, so a crash mid-compaction leaves
// the live segments untouched plus inert .partial residue. On error
// the store serves exactly as before.
func (s *Store) Compact(ctx context.Context) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return fmt.Errorf("index: compact on closed store")
	}
	snap := make(segView, len(s.segs))
	copy(snap, s.segs)
	s.mu.RUnlock()
	if len(snap) <= 1 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	covered := snap.NumIntervals()

	merged := storeSeg{start: 0, n: covered}
	if s.backend == BackendMem {
		// Mem segments are immutable and cover contiguous ranges, so the
		// fold shares their posting tables instead of copying them.
		x := &Index{intervals: make([]intervalIndex, 0, covered), docs: make([]int, 0, covered)}
		for _, seg := range snap {
			sx := seg.r.(*Index)
			x.intervals = append(x.intervals, sx.intervals...)
			x.docs = append(x.docs, sx.docs...)
		}
		merged.r = x
	} else {
		tmp := s.basePath + ".compact.partial"
		if err := writeSegmentFromReader(ctx, s.fs, tmp, snap, s.cfg.blockSize()); err != nil {
			s.fs.Remove(tmp)
			return err
		}
		// POSIX rename over the old base: segments already open keep
		// serving from their file handles until the swap closes them.
		if err := s.fs.Rename(tmp, s.basePath); err != nil {
			s.fs.Remove(tmp)
			return fmt.Errorf("index: swap compacted segment: %w", err)
		}
		d, err := OpenDisk(s.basePath, s.cfg)
		if err != nil {
			return err
		}
		merged.r, merged.path = d, s.basePath
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		merged.r.Close()
		return fmt.Errorf("index: compact on closed store")
	}
	newSegs := segView{merged}
	for _, seg := range s.segs {
		if seg.start >= covered {
			newSegs = append(newSegs, seg) // pushed mid-compaction
			continue
		}
		if io, ok := seg.r.(interface{ Stats() diskstore.IOStats }); ok {
			s.baseIO.Add(io.Stats())
		}
		seg.r.Close()
		if seg.path != "" && seg.path != s.basePath {
			s.fs.Remove(seg.path)
		}
	}
	s.segs = newSegs
	s.mu.Unlock()
	return nil
}

// segView is the one multi-segment Reader: segments in interval order,
// covering contiguous global ranges from interval 0. It does no
// locking: a Store read holds mu.RLock across the call so compaction
// cannot close a reader mid-query, and the compactor's snapshot keeps
// its readers open for the fold.
type segView []storeSeg

// find returns the segment covering global interval i and i's local
// index there.
func (v segView) find(i int) (Reader, int, bool) {
	if i >= 0 {
		for _, seg := range v {
			if i < seg.start+seg.n {
				return seg.r, i - seg.start, true
			}
		}
	}
	return nil, 0, false
}

func (v segView) NumIntervals() int {
	if len(v) == 0 {
		return 0
	}
	last := v[len(v)-1]
	return last.start + last.n
}

func (v segView) NumDocs(i int) int {
	if r, li, ok := v.find(i); ok {
		return r.NumDocs(li)
	}
	return 0
}

func (v segView) Search(keywords []string, i int) ([]int64, error) {
	if r, li, ok := v.find(i); ok {
		return r.Search(keywords, li)
	}
	return nil, nil
}

// TimeSeries concatenates each segment's series in interval order.
func (v segView) TimeSeries(w string) ([]int64, error) {
	out := make([]int64, v.NumIntervals())
	for _, seg := range v {
		ts, err := seg.r.TimeSeries(w)
		if err != nil {
			return nil, err
		}
		copy(out[seg.start:seg.start+seg.n], ts)
	}
	return out, nil
}

func (v segView) Vocabulary(i int) ([]string, error) {
	if r, li, ok := v.find(i); ok {
		return r.Vocabulary(li)
	}
	return nil, nil
}

func (v segView) Postings(w string, i int) ([]int64, error) {
	if r, li, ok := v.find(i); ok {
		return r.Postings(w, li)
	}
	return nil, nil
}

func (v segView) Close() error { return nil }

// writeSegmentFromReader writes a segment file whose bytes are
// identical to BuildDisk over the equivalent one-shot corpus: the
// reader's vocabularies and postings are already in (interval, term,
// doc) order, so the fold needs no external sort — it streams straight
// into the same block/dictionary/footer encoder.
func writeSegmentFromReader(ctx context.Context, fs faultfs.FS, path string, r Reader, blockSize int) (err error) {
	sw, err := newSegmentWriter(fs, path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			sw.f.Close()
			fs.Remove(path)
		}
	}()
	if err = sw.write([]byte(segMagic)); err != nil {
		return err
	}
	m := r.NumIntervals()
	dicts := make([][]dictEntry, m)
	var (
		blockBuf []byte
		refs     []blockRef
	)
	for i := 0; i < m; i++ {
		vocab, verr := r.Vocabulary(i)
		if verr != nil {
			return verr
		}
		// One write per interval: its terms' blocks, back to back.
		blockBuf = blockBuf[:0]
		for _, term := range vocab {
			if err = ctx.Err(); err != nil {
				return err
			}
			ids, perr := r.Postings(term, i)
			if perr != nil {
				return perr
			}
			if len(ids) == 0 {
				continue
			}
			var e dictEntry
			e, refs = sw.appendTerm(term, ids, blockSize, refs, &blockBuf)
			dicts[i] = append(dicts[i], e)
		}
		if err = sw.write(blockBuf); err != nil {
			return err
		}
	}
	return sw.finish(dicts, r.NumDocs)
}

// --- the merged Reader: each read is segView's, under mu.RLock ---

// NumIntervals returns the number of intervals across all segments.
func (s *Store) NumIntervals() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.segs.NumIntervals()
}

// NumDocs returns the number of documents in interval i.
func (s *Store) NumDocs(i int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.segs.NumDocs(i)
}

// Search returns the sorted ids of interval-i documents containing all
// keywords.
func (s *Store) Search(keywords []string, i int) ([]int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.segs.Search(keywords, i)
}

// TimeSeries returns A(w) for every interval.
func (s *Store) TimeSeries(w string) ([]int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.segs.TimeSeries(w)
}

// Vocabulary returns the sorted distinct keywords of interval i.
func (s *Store) Vocabulary(i int) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.segs.Vocabulary(i)
}

// Postings returns the sorted document ids containing keyword w in
// interval i.
func (s *Store) Postings(w string, i int) ([]int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.segs.Postings(w, i)
}

// Close closes every segment and removes delta files (and the owned
// temporary directory, when the store created one). Idempotent.
func (s *Store) Close() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, seg := range s.segs {
		if err := seg.r.Close(); err != nil && first == nil {
			first = err
		}
		if seg.path != "" && seg.path != s.basePath && s.dir == "" {
			s.fs.Remove(seg.path)
		}
	}
	s.segs = nil
	if s.dir != "" {
		if err := s.fs.RemoveAll(s.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- observability ---

// Stats aggregates the disk segments' I/O counters (zero for the mem
// backend), including segments already retired by compaction.
func (s *Store) Stats() diskstore.IOStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	io := s.baseIO
	for _, seg := range s.segs {
		if st, ok := seg.r.(interface{ Stats() diskstore.IOStats }); ok {
			io.Add(st.Stats())
		}
	}
	return io
}

// CacheStats aggregates the disk segments' block-cache counters:
// hits, misses and resident bytes (all zero for the mem backend).
func (s *Store) CacheStats() (hits, misses, bytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, seg := range s.segs {
		if d, ok := seg.r.(*DiskIndex); ok {
			h, m, b := d.CacheStats()
			hits, misses, bytes = hits+h, misses+m, bytes+b
		}
	}
	return hits, misses, bytes
}

// ResetStats zeroes the aggregated I/O counters (used between
// experiment phases).
func (s *Store) ResetStats() {
	s.mu.Lock()
	s.baseIO = diskstore.IOStats{}
	segs := make(segView, len(s.segs))
	copy(segs, s.segs)
	s.mu.Unlock()
	for _, seg := range segs {
		if d, ok := seg.r.(*DiskIndex); ok {
			d.ResetStats()
		}
	}
}

// NumSegments returns the live segment count (base plus deltas).
func (s *Store) NumSegments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.segs)
}
