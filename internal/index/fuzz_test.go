package index

import (
	"context"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/corpus"
)

// fuzzCorpus derives a deterministic small collection from raw fuzz
// bytes: byte 0 picks the interval count and block size, and the rest
// stream out as (interval, keyword...) document descriptors over a
// 16-word vocabulary. Bits 2-3 of byte 0 pick how doc ids are drawn:
// 0 numbers documents in arrival order, 1 in reverse, and 2 or 3 by a
// permutation seeded from all of data, so a term's ids need not arrive
// ascending. Ids are always a permutation of 0..n-1, so the collection
// is valid for both backends.
func fuzzCorpus(data []byte) (*corpus.Collection, int) {
	if len(data) == 0 {
		data = []byte{0}
	}
	m := 1 + int(data[0])%4
	blockSize := 1 + int(data[0]>>4)%8
	byInterval := make([][]corpus.Document, m)
	vocab := [16]string{
		"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7",
		"k8", "k9", "ka", "kb", "kc", "kd", "ke", "kf",
	}
	id := int64(0)
	pos := 1
	for pos < len(data) {
		b := data[pos]
		pos++
		iv := int(b) % m
		nk := 1 + int(b>>4)%4
		var kws []string
		for j := 0; j < nk && pos < len(data); j++ {
			kws = append(kws, vocab[data[pos]%16])
			pos++
		}
		if len(kws) == 0 {
			break
		}
		byInterval[iv] = append(byInterval[iv], corpus.Document{ID: id, Interval: iv, Keywords: kws})
		id++
	}
	perm := make([]int64, id)
	for j := range perm {
		perm[j] = int64(j)
	}
	switch (data[0] >> 2) & 3 {
	case 0:
	case 1:
		slices.Reverse(perm)
	default:
		h := fnv.New64a()
		h.Write(data)
		rand.New(rand.NewSource(int64(h.Sum64()))).Shuffle(len(perm), func(a, b int) {
			perm[a], perm[b] = perm[b], perm[a]
		})
	}
	col := &corpus.Collection{Intervals: make([]corpus.Interval, m)}
	for i := 0; i < m; i++ {
		for j := range byInterval[i] {
			byInterval[i][j].ID = perm[byInterval[i][j].ID]
		}
		col.Intervals[i] = corpus.Interval{Index: i, Docs: byInterval[i]}
	}
	return col, blockSize
}

// FuzzDiskIndexRoundTrip builds both backends from fuzz-derived
// corpora and asserts every primitive agrees — the round-trip
// invariant of the segment format, run for ~60s each night by the
// fuzz-smoke CI job. It also grows a disk Store through the segment
// router: opened on a prefix the last byte picks (its high nibble mod
// m+1), pushed the remaining intervals, and compacted when the last
// byte's low bit is set; the store must agree with the one-shot index,
// out-of-range intervals included.
func FuzzDiskIndexRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x13, 0x21, 0x05, 0x30, 0x07, 0x09, 0xff, 0x00, 0x41})
	f.Add([]byte{0x72, 0x11, 0x11, 0x11, 0x12, 0x13, 0x24, 0x35, 0x46, 0x57, 0x68})
	// One interval, block size 2, shuffled ids: each term's ids arrive
	// out of order.
	f.Add([]byte{0x1c, 0x10, 0x00, 0x01, 0x10, 0x00, 0x02, 0x10, 0x00, 0x01, 0x10, 0x01, 0x02, 0x10, 0x00, 0x02, 0x20, 0x00, 0x01, 0x02})
	// Four intervals; the Store opens on one, takes three pushes and
	// compacts.
	f.Add([]byte{0x13, 0x21, 0x05, 0x30, 0x07, 0x09, 0xff, 0x00, 0x13, 0x22, 0x01, 0x11})
	f.Fuzz(func(t *testing.T, data []byte) {
		col, blockSize := fuzzCorpus(data)
		x, err := New(col)
		if err != nil {
			t.Fatalf("New rejected a fuzz corpus: %v", err)
		}
		path := filepath.Join(t.TempDir(), "seg")
		if err := BuildDisk(col, path, Config{BlockSize: blockSize}); err != nil {
			t.Fatalf("BuildDisk: %v", err)
		}
		d, err := OpenDisk(path, Config{MemBudget: 4 << 10})
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		defer d.Close()
		var last byte
		if len(data) > 0 {
			last = data[len(data)-1]
		}
		seed := int64(len(data))
		if len(data) > 0 {
			seed = int64(data[0])<<8 | int64(last)
		}
		assertReadersAgree(t, x, d, rand.New(rand.NewSource(seed)))

		ctx := context.Background()
		m := len(col.Intervals)
		base := int(last>>4) % (m + 1)
		s, err := OpenStore(ctx, prefix(col, base), BackendDisk, filepath.Join(t.TempDir(), "store.seg"),
			Config{BlockSize: blockSize, MemBudget: 4 << 10, CompactAfter: -1})
		if err != nil {
			t.Fatalf("OpenStore on %d of %d intervals: %v", base, m, err)
		}
		defer s.Close()
		for k := base; k < m; k++ {
			if err := s.Push(ctx, col.Intervals[k], corpus.Tokenize(col.Intervals[k:k+1])); err != nil {
				t.Fatalf("Push(%d): %v", k, err)
			}
		}
		if last&1 != 0 {
			if err := s.Compact(ctx); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
		assertReadersAgree(t, x, s, rand.New(rand.NewSource(seed)))
	})
}
