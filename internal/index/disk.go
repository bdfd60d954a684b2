// The disk backend's posting layout (EMBANKS-style): an immutable
// segment file holding every interval's posting lists. The build's
// input is one interval's tokens (corpus.Tokens) per interval, doc ids
// included: a pool of min(GOMAXPROCS, m) workers groups each interval's
// postings in memory (a counting sort by term rank, see postingGroups) and
// encodes its blocks, and one ordered writer appends the intervals'
// blocks in interval order; queries then keep only the dictionaries
// resident besides the segment's own bytes, so a disk segment's posting
// data may be larger than RAM.
//
// Segment file layout (integers are uvarint unless noted):
//
//	header    8 bytes, the magic "BSIX001\n"
//	blocks    per (interval, term), in (interval, term) order: posting
//	          blocks of up to BlockSize doc ids each —
//	            count, first id, then deltas (strictly positive),
//	            CRC32-IEEE of the payload (4 bytes LE)
//	dicts     one term dictionary per interval —
//	            numTerms, then per term (sorted ascending):
//	              len(term), term bytes, docFreq, numBlocks,
//	              per block: off, len, count, first id, last id
//	            CRC32 of the payload (4 bytes LE)
//	footer    numIntervals, per interval: numDocs, dictOff, dictLen;
//	          CRC32 of the payload (4 bytes LE)
//	tail      24 bytes fixed: footerOff (8 LE), footerLen (8 LE),
//	          the magic "BSIXFTR\n"
//
// The dictionaries and footer are small and resident after OpenDisk
// (the skip index); posting blocks stay in the segment and are fetched
// on demand through an LRU cache, so query-time I/O is O(blocks touched),
// measurable via diskstore.IOStats like the Section 4 solvers.
package index

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/par"
)

const (
	segMagic   = "BSIX001\n"
	footMagic  = "BSIXFTR\n"
	segTailLen = 8 + 8 + len(footMagic) // footerOff + footerLen + magic

	// defaultBlockSize is the posting count per on-disk block.
	defaultBlockSize = 128
	// defaultDiskMemBudget bounds the decoded-block LRU cache (8 MiB).
	defaultDiskMemBudget = 8 << 20
)

// blockRef is one skip-index entry: where a posting block lives and
// the doc-id range it covers, so lookups fetch only blocks that can
// contain a candidate.
type blockRef struct {
	off         int64
	length      int32
	count       int32
	first, last int64
}

type dictEntry struct {
	term    string
	docFreq int64
	blocks  []blockRef
}

// BuildDisk tokenizes the collection (corpus.Tokenizer.Interval: each
// document must claim the interval it is filed under) and writes its
// immutable segment file at path (atomically, via a .partial file and a
// rename). Each interval's postings are grouped by term in memory
// (postingGroups: a counting sort by the term's rank in the interval's
// sorted vocabulary) and encoded on a pool of min(GOMAXPROCS, m)
// workers, and the blocks are appended in interval order, so the bytes
// do not depend on the worker count. The build's extra memory is every
// interval's tokens, up to W intervals' grouped postings and encoded
// blocks (W workers), and the dictionaries it writes last; no budget
// bounds it, and it creates no file but the .partial segment. Document
// keywords are deduplicated per document; doc ids must be non-negative
// and keywords must not contain NUL or newline bytes. A misfiled
// document fails the build while the intervals are tokenized, before
// any other rule is checked; a corpus that breaks the other rules in
// several intervals fails with the lowest interval's error, as a
// sequential build would. The .partial file is removed on every error
// path.
func BuildDisk(c *corpus.Collection, path string, cfg Config) error {
	toks, err := tokenize(context.Background(), c)
	if err != nil {
		return err
	}
	return buildSegment(context.Background(), toks, path, cfg)
}

// tokenize tokenizes every interval of c on a pool of min(GOMAXPROCS,
// m) workers, one Tokenizer each.
func tokenize(ctx context.Context, c *corpus.Collection) ([]*corpus.Tokens, error) {
	m := len(c.Intervals)
	workers := max(1, min(runtime.GOMAXPROCS(0), m))
	toks := make([]*corpus.Tokens, m)
	tzs := make([]corpus.Tokenizer, workers)
	if err := par.ForEachWorkerCtx(ctx, m, workers, func(w, i int) (err error) {
		if toks[i], err = tzs[w].Interval(c, i); err != nil {
			return fmt.Errorf("index: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return toks, nil
}

// buildSegment is the one segment build: the segment of one interval
// per entry of toks, at path. The grouping pass polls ctx once per
// interval and every few thousand postings, so an abandoned build
// stops promptly and leaves no partial segment behind.
func buildSegment(ctx context.Context, toks []*corpus.Tokens, path string, cfg Config) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	blockSize := cfg.blockSize()
	fs := cfg.fs()
	tmp := path + ".partial"
	sw, err := newSegmentWriter(fs, tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			sw.f.Close()
			fs.Remove(tmp)
		}
	}()
	if err = sw.write([]byte(segMagic)); err != nil {
		return err
	}

	m := len(toks)
	workers := max(1, min(runtime.GOMAXPROCS(0), m))
	// Every worker's buffers are sized for the largest interval up
	// front, so what a build allocates does not depend on which worker
	// draws which interval.
	words, postings := 0, 0
	var maxID int64
	for _, tk := range toks {
		words, postings = max(words, len(tk.Words)), max(postings, len(tk.IDs))
		for _, id := range tk.DocIDs {
			maxID = max(maxID, id)
		}
	}
	encs := make([]intervalEncoder, workers)
	for w := range encs {
		encs[w] = intervalEncoder{
			g:      newPostingGroups(words, postings),
			blocks: make([]byte, 0, encodedBound(words, postings, blockSize, maxID)),
		}
	}
	dicts := make([][]dictEntry, m)
	ow := newOrderedWriter(sw)
	if err = par.ForEachWorkerCtx(ctx, m, workers, func(w, i int) error {
		enc := &encs[w]
		if err := enc.g.group(ctx, i, toks[i]); err != nil {
			ow.fail(i)
			return err
		}
		var refs []blockRef
		dicts[i], refs = enc.encode(toks[i].Words, blockSize)
		return ow.write(i, enc.blocks, refs)
	}); err != nil {
		return err
	}
	if err = sw.finish(dicts, func(i int) int { return toks[i].NumDocs() }); err != nil {
		return err
	}
	return fs.Rename(tmp, path)
}

// intervalEncoder is one worker's scratch: the grouped postings and
// the encoded blocks of the interval it holds.
type intervalEncoder struct {
	g      *postingGroups
	blocks []byte
}

// encode lays the grouped lists out as posting blocks of up to
// blockSize ids in e.blocks, term by term in rank order (the
// dictionary's), and returns the interval's dictionary entries and
// their skip entries, one array sized exactly. Skip offsets count from
// the start of e.blocks until the writer rebases them.
func (e *intervalEncoder) encode(words []string, blockSize int) ([]dictEntry, []blockRef) {
	nBlocks := 0
	for t := range words {
		nBlocks += (len(e.g.list(t)) + blockSize - 1) / blockSize
	}
	refs := make([]blockRef, 0, nBlocks)
	entries := make([]dictEntry, len(words))
	b := e.blocks[:0]
	for t, w := range words {
		ids := e.g.list(t)
		lo := len(refs)
		for k := 0; k < len(ids); k += blockSize {
			var ref blockRef
			b, ref = appendBlock(b, 0, ids[k:min(k+blockSize, len(ids))])
			refs = append(refs, ref)
		}
		entries[t] = dictEntry{term: w, docFreq: int64(len(ids)), blocks: refs[lo:len(refs):len(refs)]}
	}
	e.blocks = b
	return entries, refs
}

// encodedBound is the most bytes an interval of at most words terms
// and postings postings, with no doc id above maxID, encodes to: each
// posting is one uvarint no longer than maxID's (a block's first id,
// or a delta), and each block adds its count and a CRC. A term's list
// of n ids takes at most n/blockSize+1 blocks.
func encodedBound(words, postings, blockSize int, maxID int64) int {
	blocks := words + postings/blockSize
	return postings*uvarintLen(uint64(maxID)) + blocks*(uvarintLen(uint64(blockSize))+4)
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// orderedWriter appends the pool's intervals to the segment in
// interval order: a worker holding interval i waits until every
// interval below it is written, then writes its own blocks, rebasing
// their skip offsets to where they land. Once an interval fails, the
// intervals above it stop waiting and write nothing; those below it
// still run, so the pool's lowest-index error is the build's.
type orderedWriter struct {
	mu     sync.Mutex
	turn   sync.Cond
	sw     *segmentWriter
	next   int // the interval whose blocks go next
	failed int // the lowest interval that failed, math.MaxInt while none has
}

func newOrderedWriter(sw *segmentWriter) *orderedWriter {
	o := &orderedWriter{sw: sw, failed: math.MaxInt}
	o.turn.L = &o.mu
	return o
}

// fail records that interval i failed.
func (o *orderedWriter) fail(i int) {
	o.mu.Lock()
	o.failed = min(o.failed, i)
	o.mu.Unlock()
	o.turn.Broadcast()
}

// write appends interval i's encoded blocks, whose skip entries are
// refs, once every interval below i is written. It returns nil without
// writing when an interval below i failed.
func (o *orderedWriter) write(i int, blocks []byte, refs []blockRef) error {
	o.mu.Lock()
	defer o.turn.Broadcast()
	defer o.mu.Unlock()
	for o.next != i && o.failed > i {
		o.turn.Wait()
	}
	if o.failed < i {
		return nil
	}
	for k := range refs {
		refs[k].off += o.sw.off
	}
	if err := o.sw.write(blocks); err != nil {
		o.failed = min(o.failed, i)
		return err
	}
	o.next++
	return nil
}

// segmentWriter writes a segment file straight to the file, with no
// buffer of its own: every write is already a whole unit — the magic,
// one interval's posting blocks, one dictionary, the footer, the tail.
type segmentWriter struct {
	f   faultfs.File
	off int64
	buf []byte // encodes each dictionary, then the footer and the tail
}

func newSegmentWriter(fs faultfs.FS, path string) (*segmentWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("index: create segment: %w", err)
	}
	return &segmentWriter{f: f}, nil
}

func (s *segmentWriter) write(p []byte) error {
	n, err := s.f.Write(p)
	s.off += int64(n)
	if err != nil {
		return fmt.Errorf("index: write segment: %w", err)
	}
	return nil
}

// appendBlock encodes one posting block (count, first id, deltas,
// CRC) at the end of b and returns its skip entry, whose offset is
// base plus where the block starts in b.
func appendBlock(b []byte, base int64, ids []int64) ([]byte, blockRef) {
	lo := len(b)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	b = binary.AppendUvarint(b, uint64(ids[0]))
	for k := 1; k < len(ids); k++ {
		b = binary.AppendUvarint(b, uint64(ids[k]-ids[k-1]))
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[lo:]))
	return b, blockRef{
		off:    base + int64(lo),
		length: int32(len(b) - lo),
		count:  int32(len(ids)),
		first:  ids[0],
		last:   ids[len(ids)-1],
	}
}

// appendTerm encodes one term's ascending doc ids as blocks of up to
// blockSize at the end of *buf, whose first byte is written at the
// file's current end, appending their skip entries to refs; the
// returned entry's blocks are the appended tail of refs, capped. The
// caller writes *buf.
func (s *segmentWriter) appendTerm(term string, ids []int64, blockSize int, refs []blockRef, buf *[]byte) (dictEntry, []blockRef) {
	lo := len(refs)
	b := *buf
	for k := 0; k < len(ids); k += blockSize {
		var ref blockRef
		b, ref = appendBlock(b, s.off, ids[k:min(k+blockSize, len(ids))])
		refs = append(refs, ref)
	}
	*buf = b
	return dictEntry{term: term, docFreq: int64(len(ids)), blocks: refs[lo:len(refs):len(refs)]}, refs
}

// writeDict writes one interval's dictionary, encoded in s.buf.
func (s *segmentWriter) writeDict(entries []dictEntry) error {
	b := binary.AppendUvarint(s.buf[:0], uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, uint64(len(e.term)))
		b = append(b, e.term...)
		b = binary.AppendUvarint(b, uint64(e.docFreq))
		b = binary.AppendUvarint(b, uint64(len(e.blocks)))
		for _, ref := range e.blocks {
			b = binary.AppendUvarint(b, uint64(ref.off))
			b = binary.AppendUvarint(b, uint64(ref.length))
			b = binary.AppendUvarint(b, uint64(ref.count))
			b = binary.AppendUvarint(b, uint64(ref.first))
			b = binary.AppendUvarint(b, uint64(ref.last))
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	s.buf = b
	return s.write(b)
}

// finish writes everything that follows the posting blocks — one
// dictionary per interval, the footer (numDocs reports each interval's
// document count), the fixed tail — then syncs and closes.
// All of them are encoded in turn in the one buffer s.buf.
func (s *segmentWriter) finish(dicts [][]dictEntry, numDocs func(i int) int) error {
	// The dictionaries are written back to back: dictionary i spans
	// offs[i] to offs[i+1].
	offs := make([]int64, len(dicts)+1)
	for i, entries := range dicts {
		offs[i] = s.off
		if err := s.writeDict(entries); err != nil {
			return err
		}
	}
	offs[len(dicts)] = s.off
	foot := binary.AppendUvarint(s.buf[:0], uint64(len(dicts)))
	for i := range dicts {
		foot = binary.AppendUvarint(foot, uint64(numDocs(i)))
		foot = binary.AppendUvarint(foot, uint64(offs[i]))
		foot = binary.AppendUvarint(foot, uint64(offs[i+1]-offs[i]))
	}
	footOff := s.off
	foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(foot))
	if err := s.write(foot); err != nil {
		return err
	}
	tail := binary.LittleEndian.AppendUint64(foot[:0], uint64(footOff))
	tail = binary.LittleEndian.AppendUint64(tail, uint64(len(foot)))
	tail = append(tail, footMagic...)
	s.buf = tail
	if err := s.write(tail); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("index: sync segment: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("index: close segment: %w", err)
	}
	return nil
}
