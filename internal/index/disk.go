// Disk-backed posting layout (EMBANKS-style): an immutable segment
// file holding every interval's posting lists, built by streaming
// (interval, keyword, docID) tuples through the external sorter so
// corpora larger than RAM index in bounded memory.
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
	"strings"

	"repro/internal/corpus"
	"repro/internal/extsort"
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

// encodePosting renders one (interval, term, doc) tuple as a binary
// record whose bytewise order equals the tuple order: big-endian
// fixed-width integers (byte order is monotonic in the value) and a
// NUL terminator after the term (NUL sorts before every valid term
// byte, so "ab" precedes "abc"): 13 bytes of framing per posting and
// two fixed-width reads on the way back out.
func encodePosting(buf []byte, interval int, term string, doc int64) []byte {
	buf = binary.BigEndian.AppendUint32(buf[:0], uint32(interval))
	buf = append(buf, term...)
	buf = append(buf, 0)
	return binary.BigEndian.AppendUint64(buf, uint64(doc))
}

const postingFixedLen = 4 + 1 + 8 // interval + NUL + doc id

// decodePosting splits a record; term is a view of rec.
func decodePosting(rec []byte) (interval int, term []byte, doc int64, err error) {
	if len(rec) < postingFixedLen || rec[len(rec)-9] != 0 {
		return 0, nil, 0, corruptf("index: malformed posting record %q", rec)
	}
	iv := binary.BigEndian.Uint32(rec)
	id := binary.BigEndian.Uint64(rec[len(rec)-8:])
	return int(iv), rec[4 : len(rec)-9], int64(id), nil
}

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

// BuildDisk streams the collection's (interval, keyword, docID)
// tuples through internal/extsort and writes the immutable segment
// file at path (atomically, via rename). Document keywords are
// deduplicated per document, matching New; doc ids must be
// non-negative and keywords must not contain NUL or newline bytes.
func BuildDisk(c *corpus.Collection, path string, cfg Config) error {
	return BuildDiskCtx(context.Background(), c, path, cfg)
}

// BuildDiskCtx is BuildDisk with cancellation: the tuple-emission and
// segment-write loops poll ctx every few thousand records, and the
// external sorter's merge passes poll it too, so an abandoned build
// stops promptly and leaves no partial segment behind (the .partial
// temp file is removed on every error path, cancellation included).
func BuildDiskCtx(ctx context.Context, c *corpus.Collection, path string, cfg Config) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	blockSize := cfg.blockSize()
	fs := cfg.fs()
	const pollEvery = 4096
	sorter := extsort.NewWithOptions(extsort.Options{
		MemoryBudget: cfg.SortMemoryBudget,
		Ctx:          ctx,
		FS:           fs,
	})
	defer sorter.Discard()
	var scratch []string
	var recBuf []byte
	emitted := 0
	for i := range c.Intervals {
		for _, d := range c.Intervals[i].Docs {
			if d.Interval != i {
				return fmt.Errorf("index: document %d claims interval %d but lives in %d", d.ID, d.Interval, i)
			}
			if d.ID < 0 {
				return fmt.Errorf("index: document id %d is negative; the disk layout requires non-negative ids", d.ID)
			}
			scratch = dedupKeywords(scratch, d.Keywords)
			for _, w := range scratch {
				if strings.ContainsAny(w, "\x00\n") {
					return fmt.Errorf("index: interval %d: keyword %q contains NUL or newline", i, w)
				}
				recBuf = encodePosting(recBuf, i, w, d.ID)
				if err := sorter.AddBytes(recBuf); err != nil {
					return err
				}
				if emitted++; emitted%pollEvery == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
			}
		}
	}
	it, err := sorter.Sort()
	if err != nil {
		return err
	}
	defer it.Close()

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

	m := len(c.Intervals)
	dicts := make([][]dictEntry, m)
	var (
		open     bool
		curIV    int
		curTerm  string
		ids      []int64
		blocks   []blockRef
		df       int64
		blockBuf []byte
		lastDoc  int64
	)
	flushBlock := func() error {
		if len(ids) == 0 {
			return nil
		}
		ref, werr := sw.writeBlock(ids, &blockBuf)
		if werr != nil {
			return werr
		}
		blocks = append(blocks, ref)
		df += int64(len(ids))
		ids = ids[:0]
		return nil
	}
	finishTerm := func() error {
		if !open {
			return nil
		}
		if ferr := flushBlock(); ferr != nil {
			return ferr
		}
		dicts[curIV] = append(dicts[curIV], dictEntry{
			term:    curTerm,
			docFreq: df,
			blocks:  blocks,
		})
		blocks = nil
		df = 0
		return nil
	}
	written := 0
	for {
		if written++; written%pollEvery == 0 {
			if err = ctx.Err(); err != nil {
				return err
			}
		}
		rec, ok := it.Next()
		if !ok {
			break
		}
		iv, term, doc, derr := decodePosting(rec)
		if derr != nil {
			return derr
		}
		// term views the iterator's buffer; curTerm is materialised
		// once per (interval, term).
		if !open || iv != curIV || string(term) != curTerm {
			if err = finishTerm(); err != nil {
				return err
			}
			curIV, curTerm, open = iv, string(term), true
		} else if doc == lastDoc {
			// Equal records are adjacent in the sorted stream.
			return fmt.Errorf("index: interval %d: duplicate document id %d", iv, doc)
		}
		ids = append(ids, doc)
		lastDoc = doc
		if len(ids) >= blockSize {
			if err = flushBlock(); err != nil {
				return err
			}
		}
	}
	if err = it.Err(); err != nil {
		return err
	}
	if err = finishTerm(); err != nil {
		return err
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
