// Disk-backed posting layout (EMBANKS-style): an immutable segment
// file holding every interval's posting lists. The build's input is a
// resident collection, so it groups one interval's postings at a time
// in memory (a counting sort by term, see postingGroups) and writes
// them straight out; queries then keep only the dictionaries resident,
// so a served index's posting data may be larger than RAM.
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
// (the skip index); posting blocks stay on disk and are fetched on
// demand through an LRU cache, so query-time I/O is O(blocks touched),
// measurable via diskstore.IOStats like the Section 4 solvers.
package index

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/corpus"
	"repro/internal/faultfs"
)

const (
	segMagic   = "BSIX001\n"
	footMagic  = "BSIXFTR\n"
	segTailLen = 8 + 8 + len(footMagic) // footerOff + footerLen + magic

	// DefaultBlockSize is the posting count per on-disk block.
	DefaultBlockSize = 128
	// DefaultDiskMemBudget bounds the decoded-block LRU cache (8 MiB).
	DefaultDiskMemBudget = 8 << 20
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

// BuildDisk writes the collection's immutable segment file at path
// (atomically, via a .partial file and a rename). Each interval's
// postings are grouped by term in memory (postingGroups: a counting
// sort by interval-local term id, then the interval's distinct terms
// in bytewise order) and written straight out, so the build's extra
// memory is one interval's postings — about 20 bytes each — plus the
// dictionaries it writes last, on top of the resident collection; no
// budget bounds it, and it creates no file but the .partial segment.
// Document keywords are deduplicated per document, matching New; doc
// ids must be non-negative and keywords must not contain NUL or
// newline bytes.
func BuildDisk(c *corpus.Collection, path string, cfg Config) error {
	return BuildDiskCtx(context.Background(), c, path, cfg)
}

// BuildDiskCtx is BuildDisk with cancellation: the grouping pass polls
// ctx once per interval and every few thousand postings, so an
// abandoned build stops promptly and leaves no partial segment behind
// (the .partial file is removed on every error path, cancellation and
// rejected input included).
func BuildDiskCtx(ctx context.Context, c *corpus.Collection, path string, cfg Config) (err error) {
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

	g := newPostingGroups()
	dicts := make([][]dictEntry, len(c.Intervals))
	var blockBuf []byte
	for i := range c.Intervals {
		if err = g.group(ctx, i, c.Intervals[i].Docs, true); err != nil {
			return err
		}
		order := g.termOrder()
		// Every term's skip entries are a subslice of one array per
		// interval, sized exactly.
		nBlocks := 0
		for _, t := range order {
			nBlocks += (len(g.list(t)) + blockSize - 1) / blockSize
		}
		refs := make([]blockRef, 0, nBlocks)
		entries := make([]dictEntry, 0, len(order))
		for _, t := range order {
			var e dictEntry
			if e, refs, err = sw.writeTerm(g.terms[t], g.list(t), blockSize, refs, &blockBuf); err != nil {
				return err
			}
			entries = append(entries, e)
		}
		dicts[i] = entries
	}
	if err = sw.finish(dicts, func(i int) int { return len(c.Intervals[i].Docs) }); err != nil {
		return err
	}
	return fs.Rename(tmp, path)
}

type segmentWriter struct {
	f   faultfs.File
	w   *bufio.Writer
	off int64
}

func newSegmentWriter(fs faultfs.FS, path string) (*segmentWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("index: create segment: %w", err)
	}
	return &segmentWriter{f: f, w: bufio.NewWriterSize(f, 256<<10)}, nil
}

func (s *segmentWriter) write(p []byte) error {
	n, err := s.w.Write(p)
	s.off += int64(n)
	if err != nil {
		return fmt.Errorf("index: write segment: %w", err)
	}
	return nil
}

// writeBlock encodes one posting block (count, first id, deltas, CRC)
// reusing *buf as scratch and returns its skip entry.
func (s *segmentWriter) writeBlock(ids []int64, buf *[]byte) (blockRef, error) {
	b := (*buf)[:0]
	b = binary.AppendUvarint(b, uint64(len(ids)))
	b = binary.AppendUvarint(b, uint64(ids[0]))
	for k := 1; k < len(ids); k++ {
		b = binary.AppendUvarint(b, uint64(ids[k]-ids[k-1]))
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	*buf = b
	ref := blockRef{
		off:    s.off,
		length: int32(len(b)),
		count:  int32(len(ids)),
		first:  ids[0],
		last:   ids[len(ids)-1],
	}
	return ref, s.write(b)
}

// writeTerm writes one term's ascending doc ids as blocks of up to
// blockSize, appending their skip entries to refs; the returned entry's
// blocks are the appended tail of refs, capped.
func (s *segmentWriter) writeTerm(term string, ids []int64, blockSize int, refs []blockRef, buf *[]byte) (dictEntry, []blockRef, error) {
	lo := len(refs)
	for k := 0; k < len(ids); k += blockSize {
		ref, err := s.writeBlock(ids[k:min(k+blockSize, len(ids))], buf)
		if err != nil {
			return dictEntry{}, refs, err
		}
		refs = append(refs, ref)
	}
	return dictEntry{term: term, docFreq: int64(len(ids)), blocks: refs[lo:len(refs):len(refs)]}, refs, nil
}

func (s *segmentWriter) writeDict(entries []dictEntry) error {
	b := binary.AppendUvarint(nil, uint64(len(entries)))
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
	return s.write(b)
}

// finish writes everything that follows the posting blocks — one
// dictionary per interval, the footer (numDocs reports each interval's
// document count), the fixed tail — then flushes, syncs and closes.
func (s *segmentWriter) finish(dicts [][]dictEntry, numDocs func(i int) int) error {
	foot := binary.AppendUvarint(nil, uint64(len(dicts)))
	for i, entries := range dicts {
		dictOff := s.off
		if err := s.writeDict(entries); err != nil {
			return err
		}
		foot = binary.AppendUvarint(foot, uint64(numDocs(i)))
		foot = binary.AppendUvarint(foot, uint64(dictOff))
		foot = binary.AppendUvarint(foot, uint64(s.off-dictOff))
	}
	footOff := s.off
	foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(foot))
	if err := s.write(foot); err != nil {
		return err
	}
	tail := binary.LittleEndian.AppendUint64(nil, uint64(footOff))
	tail = binary.LittleEndian.AppendUint64(tail, uint64(len(foot)))
	tail = append(tail, footMagic...)
	if err := s.write(tail); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return fmt.Errorf("index: flush segment: %w", err)
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
