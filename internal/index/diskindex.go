package index

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"

	"repro/internal/diskstore"
	"repro/internal/faultfs"
)

// DiskIndex serves the keyword primitives from an immutable segment
// file written by BuildDisk. The per-interval term dictionaries and
// skip indexes are resident; posting blocks are read on demand through
// a bytes-bounded LRU cache. Safe for concurrent readers.
type DiskIndex struct {
	f     faultfs.File
	size  int64
	docs  []int
	dicts []diskDict
	cache *blockCache
	retry diskstore.RetryPolicy
	rctx  context.Context // bounds retry backoff sleeps

	mu    sync.Mutex
	stats diskstore.IOStats
}

// diskDict is one interval's resident term dictionary: terms sorted
// ascending, entries parallel.
type diskDict struct {
	terms   []string
	entries []diskTerm
}

type diskTerm struct {
	docFreq int64
	blocks  []blockRef
}

var _ Reader = (*DiskIndex)(nil)

// OpenDisk opens a segment file written by BuildDisk, loading the
// footer and every interval dictionary (CRC-verified) into memory. The
// zero Config opens with the defaults.
func OpenDisk(path string, cfg Config) (*DiskIndex, error) {
	fs := cfg.fs()
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: open segment: %w", err)
	}
	d, err := openDisk(f, cfg)
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

func openDisk(f faultfs.File, cfg Config) (*DiskIndex, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("index: stat segment: %w", err)
	}
	size := st.Size()
	if size < int64(len(segMagic)+segTailLen) {
		return nil, corruptf("index: segment too short (%d bytes)", size)
	}
	budget := cfg.MemBudget
	if budget <= 0 {
		budget = defaultDiskMemBudget
	}
	d := &DiskIndex{f: f, size: size, cache: newBlockCache(int64(budget)), retry: cfg.Retry, rctx: cfg.Ctx}

	head, err := d.readSection(0, int64(len(segMagic)))
	if err != nil {
		return nil, err
	}
	if string(head) != segMagic {
		return nil, corruptf("index: bad segment magic %q", head)
	}
	tail, err := d.readSection(size-int64(segTailLen), int64(segTailLen))
	if err != nil {
		return nil, err
	}
	if string(tail[16:]) != footMagic {
		return nil, corruptf("index: bad segment tail magic %q", tail[16:])
	}
	footOff := int64(binary.LittleEndian.Uint64(tail[0:8]))
	footLen := int64(binary.LittleEndian.Uint64(tail[8:16]))
	if footOff < int64(len(segMagic)) || footLen < 4 || footOff+footLen != size-int64(segTailLen) {
		return nil, corruptf("index: corrupt segment tail (footer %d+%d, size %d)", footOff, footLen, size)
	}
	foot, err := d.readChecked(footOff, footLen, "footer")
	if err != nil {
		return nil, err
	}
	fr := &byteReader{b: foot}
	m := int(fr.uvarint())
	if fr.err != nil || m < 0 || int64(m) > footLen {
		return nil, corruptf("index: corrupt footer (numIntervals)")
	}
	d.docs = make([]int, m)
	dictOff := make([]int64, m)
	dictLen := make([]int64, m)
	for i := 0; i < m; i++ {
		d.docs[i] = int(fr.uvarint())
		dictOff[i] = int64(fr.uvarint())
		dictLen[i] = int64(fr.uvarint())
	}
	if fr.err != nil || fr.pos != len(foot) {
		return nil, corruptf("index: corrupt footer")
	}
	d.dicts = make([]diskDict, m)
	for i := 0; i < m; i++ {
		if dictOff[i] < int64(len(segMagic)) || dictLen[i] < 4 || dictOff[i]+dictLen[i] > footOff {
			return nil, corruptf("index: interval %d: dictionary outside segment", i)
		}
		raw, err := d.readChecked(dictOff[i], dictLen[i], fmt.Sprintf("interval %d dictionary", i))
		if err != nil {
			return nil, err
		}
		if err := d.parseDict(i, raw, dictOff[i]); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// parseDict decodes one interval dictionary and validates every skip
// entry against the segment's block region. Its terms are substrings of
// one string and its skip entries subslices of one array, both sized by
// a first pass over the entries (dictSize).
func (d *DiskIndex) parseDict(i int, raw []byte, dictStart int64) error {
	r := &byteReader{b: raw}
	n := int(r.uvarint())
	if r.err != nil || n < 0 || n > len(raw) {
		return corruptf("index: interval %d: corrupt dictionary", i)
	}
	termBytes, nRefs := dictSize(raw[r.pos:], n)
	var terms strings.Builder
	terms.Grow(termBytes)
	refs := make([]blockRef, 0, nRefs)
	dict := diskDict{
		terms:   make([]string, 0, n),
		entries: make([]diskTerm, 0, n),
	}
	for t := 0; t < n; t++ {
		tl := int(r.uvarint())
		lo := terms.Len()
		terms.Write(r.bytes(tl))
		// The builder only appends, so a substring of what it holds
		// stays valid as it grows.
		term := terms.String()[lo:]
		e := diskTerm{docFreq: int64(r.uvarint())}
		nb := int(r.uvarint())
		if r.err != nil || nb < 0 || nb > len(raw) {
			return corruptf("index: interval %d: corrupt dictionary entry %d", i, t)
		}
		first := len(refs)
		var total int64
		for b := 0; b < nb; b++ {
			ref := blockRef{
				off:    int64(r.uvarint()),
				length: int32(r.uvarint()),
				count:  int32(r.uvarint()),
				first:  int64(r.uvarint()),
				last:   int64(r.uvarint()),
			}
			if r.err != nil || ref.length < 5 || ref.count < 1 ||
				ref.off < int64(len(segMagic)) || ref.off+int64(ref.length) > dictStart ||
				ref.first > ref.last {
				return corruptf("index: interval %d term %q: bad skip entry %d", i, term, b)
			}
			if b > 0 && ref.first <= refs[len(refs)-1].last {
				return corruptf("index: interval %d term %q: skip entries out of order", i, term)
			}
			refs = append(refs, ref)
			total += int64(ref.count)
		}
		e.blocks = refs[first:len(refs):len(refs)]
		if total != e.docFreq {
			return corruptf("index: interval %d term %q: docFreq %d != %d postings in blocks", i, term, e.docFreq, total)
		}
		if len(dict.terms) > 0 && term <= dict.terms[len(dict.terms)-1] {
			return corruptf("index: interval %d: dictionary terms out of order at %q", i, term)
		}
		dict.terms = append(dict.terms, term)
		dict.entries = append(dict.entries, e)
	}
	if r.err != nil || r.pos != len(raw) {
		return corruptf("index: interval %d: corrupt dictionary", i)
	}
	d.dicts[i] = dict
	return nil
}

// dictSize returns how many term bytes and skip entries the n
// dictionary entries encoded in b hold. It checks nothing: on a corrupt
// dictionary it returns what it read before the damage, capped by b's
// length, and parseDict's checks report the corruption.
func dictSize(b []byte, n int) (termBytes, refs int) {
	r := &byteReader{b: b}
	for t := 0; t < n && r.err == nil; t++ {
		tl := int(r.uvarint())
		r.bytes(tl)
		r.uvarint() // docFreq
		nb := r.uvarint()
		if r.err != nil || nb > uint64(len(b)) {
			break
		}
		for k := uint64(0); k < 5*nb && r.err == nil; k++ {
			r.uvarint()
		}
		if r.err == nil {
			termBytes += tl
			refs += int(nb)
		}
	}
	// Every skip entry takes at least five bytes.
	return min(termBytes, len(b)), min(refs, len(b)/5)
}

// readSection reads [off, off+n) counting one sequential read.
// Transient faults are retried under the index's RetryPolicy.
func (d *DiskIndex) readSection(off, n int64) ([]byte, error) {
	buf := make([]byte, n)
	retries, err := d.retry.Do(d.rctx, func() error {
		_, rerr := d.f.ReadAt(buf, off)
		return rerr
	})
	d.mu.Lock()
	d.stats.RetriedReads += int64(retries)
	if err == nil {
		d.stats.SequentialReads++
		d.stats.BytesRead += n
	}
	d.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("index: read segment at %d: %w", off, err)
	}
	return buf, nil
}

// readChecked reads a CRC-trailed section and verifies it, returning
// the payload without the checksum.
func (d *DiskIndex) readChecked(off, n int64, what string) ([]byte, error) {
	raw, err := d.readSection(off, n)
	if err != nil {
		return nil, err
	}
	payload := raw[:n-4]
	stored := binary.LittleEndian.Uint32(raw[n-4:])
	if crc32.ChecksumIEEE(payload) != stored {
		d.mu.Lock()
		d.stats.CorruptReads++
		d.mu.Unlock()
		return nil, corruptf("index: %s: checksum mismatch", what)
	}
	return payload, nil
}

// lookup returns the resident entry for (w, i), or nil.
func (d *DiskIndex) lookup(w string, i int) *diskTerm {
	if i < 0 || i >= len(d.dicts) {
		return nil
	}
	dict := &d.dicts[i]
	j := sort.SearchStrings(dict.terms, w)
	if j < len(dict.terms) && dict.terms[j] == w {
		return &dict.entries[j]
	}
	return nil
}

// fetchBlock returns the decoded postings of one block, reading and
// CRC-verifying it on cache miss (one random read). Transient read
// faults are retried; a block that fails validation is counted as a
// corrupt read and returned as ErrCorrupt, never retried.
func (d *DiskIndex) fetchBlock(ref blockRef) ([]int64, error) {
	if ids, ok := d.cache.get(ref.off); ok {
		return ids, nil
	}
	buf := make([]byte, ref.length)
	retries, err := d.retry.Do(d.rctx, func() error {
		_, rerr := d.f.ReadAt(buf, ref.off)
		return rerr
	})
	d.mu.Lock()
	d.stats.RetriedReads += int64(retries)
	if err == nil {
		d.stats.RandomReads++
		d.stats.BytesRead += int64(ref.length)
	}
	d.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("index: read block at %d: %w", ref.off, err)
	}
	ids, err := decodeBlock(buf, ref)
	if err != nil {
		d.mu.Lock()
		d.stats.CorruptReads++
		d.mu.Unlock()
		return nil, err
	}
	d.cache.put(ref.off, ids)
	return ids, nil
}

// decodeBlock verifies and expands one posting block against its skip
// entry, so a corrupt block or a stale skip entry cannot yield silent
// wrong results.
func decodeBlock(raw []byte, ref blockRef) ([]int64, error) {
	if len(raw) < 5 {
		return nil, corruptf("index: block at %d: too short", ref.off)
	}
	payload := raw[:len(raw)-4]
	stored := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(payload) != stored {
		return nil, corruptf("index: block at %d: checksum mismatch", ref.off)
	}
	r := &byteReader{b: payload}
	count := int(r.uvarint())
	if r.err != nil || count != int(ref.count) {
		return nil, corruptf("index: block at %d: count %d does not match skip entry %d", ref.off, count, ref.count)
	}
	ids := make([]int64, count)
	ids[0] = int64(r.uvarint())
	for k := 1; k < count; k++ {
		delta := int64(r.uvarint())
		if delta <= 0 {
			return nil, corruptf("index: block at %d: non-increasing posting", ref.off)
		}
		ids[k] = ids[k-1] + delta
	}
	if r.err != nil || r.pos != len(payload) {
		return nil, corruptf("index: block at %d: malformed payload", ref.off)
	}
	if ids[0] != ref.first || ids[count-1] != ref.last {
		return nil, corruptf("index: block at %d: postings disagree with skip entry", ref.off)
	}
	return ids, nil
}

// readAll decodes every block of a term into one fresh slice.
func (d *DiskIndex) readAll(e *diskTerm) ([]int64, error) {
	out := make([]int64, 0, e.docFreq)
	for _, ref := range e.blocks {
		ids, err := d.fetchBlock(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, ids...)
	}
	return out, nil
}

// NumIntervals returns the number of indexed intervals.
func (d *DiskIndex) NumIntervals() int { return len(d.dicts) }

// NumDocs returns the number of documents in interval i.
func (d *DiskIndex) NumDocs(i int) int {
	if i < 0 || i >= len(d.docs) {
		return 0
	}
	return d.docs[i]
}

// Search returns the sorted ids of interval-i documents containing all
// keywords. The rarest list is decoded whole; every other list is
// probed through its skip index, so only blocks whose doc-id range
// overlaps a surviving candidate are read — O(blocks touched) random
// reads, not O(postings).
func (d *DiskIndex) Search(keywords []string, i int) ([]int64, error) {
	if len(keywords) == 0 {
		return nil, nil
	}
	entries := make([]*diskTerm, len(keywords))
	for j, w := range keywords {
		e := d.lookup(w, i)
		if e == nil {
			return nil, nil
		}
		entries[j] = e
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].docFreq < entries[b].docFreq })
	acc, err := d.readAll(entries[0])
	if err != nil {
		return nil, err
	}
	for _, e := range entries[1:] {
		acc, err = d.intersectEntry(acc, e)
		if err != nil {
			return nil, err
		}
		if len(acc) == 0 {
			return nil, nil
		}
	}
	if len(acc) == 0 {
		return nil, nil
	}
	return acc, nil
}

// intersectEntry filters acc (sorted, owned by the caller) down to the
// ids also present in e, fetching only the blocks whose range overlaps
// a candidate.
func (d *DiskIndex) intersectEntry(acc []int64, e *diskTerm) ([]int64, error) {
	out := acc[:0]
	bi := 0
	var (
		cur    []int64
		curIdx = -1
	)
	for _, v := range acc {
		for bi < len(e.blocks) && e.blocks[bi].last < v {
			bi++
		}
		if bi == len(e.blocks) {
			break
		}
		ref := e.blocks[bi]
		if v < ref.first {
			continue
		}
		if curIdx != bi {
			ids, err := d.fetchBlock(ref)
			if err != nil {
				return nil, err
			}
			cur, curIdx = ids, bi
		}
		k := sort.Search(len(cur), func(j int) bool { return cur[j] >= v })
		if k < len(cur) && cur[k] == v {
			out = append(out, v)
		}
	}
	return out, nil
}

// TimeSeries returns A(w) for every interval, straight from the
// resident dictionaries — no I/O.
func (d *DiskIndex) TimeSeries(w string) ([]int64, error) {
	out := make([]int64, len(d.dicts))
	for i := range d.dicts {
		if e := d.lookup(w, i); e != nil {
			out[i] = e.docFreq
		}
	}
	return out, nil
}

// Vocabulary returns the sorted distinct keywords of interval i.
func (d *DiskIndex) Vocabulary(i int) ([]string, error) {
	if i < 0 || i >= len(d.dicts) {
		return nil, nil
	}
	out := make([]string, len(d.dicts[i].terms))
	copy(out, d.dicts[i].terms)
	return out, nil
}

// Postings returns the sorted document ids containing keyword w in
// interval i (a fresh slice).
func (d *DiskIndex) Postings(w string, i int) ([]int64, error) {
	e := d.lookup(w, i)
	if e == nil {
		return nil, nil
	}
	return d.readAll(e)
}

// Stats returns a snapshot of the I/O counters: random reads are
// block fetches, sequential reads are the open-time footer and
// dictionary loads.
func (d *DiskIndex) Stats() diskstore.IOStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the I/O counters (used between experiment phases).
func (d *DiskIndex) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = diskstore.IOStats{}
}

// CacheStats reports the block cache's hit/miss counters and resident
// bytes.
func (d *DiskIndex) CacheStats() (hits, misses, bytes int64) {
	return d.cache.counters()
}

// Close closes the segment file.
func (d *DiskIndex) Close() error { return d.f.Close() }

// byteReader decodes uvarint-framed sections, latching the first
// error.
type byteReader struct {
	b   []byte
	pos int
	err error
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.err = fmt.Errorf("index: truncated uvarint at %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *byteReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.pos {
		r.err = fmt.Errorf("index: truncated bytes at %d", r.pos)
		return nil
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out
}
