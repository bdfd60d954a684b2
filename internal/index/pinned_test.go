package index

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
)

// scrambledCorpus has doc ids out of order inside every interval
// (a stride permutation in interval 0, descending in 1, interleaved
// in 2), documents that repeat keywords, and terms that are prefixes of
// one another or carry non-ASCII bytes, so term order and per-term id
// order both have to be established by the build, not inherited.
func scrambledCorpus() *corpus.Collection {
	vocab := []string{"ab", "abc", "a", "b", "zeta", "über", "kw", "kw2", "k", "x"}
	const perInterval = 40
	col := &corpus.Collection{Intervals: make([]corpus.Interval, 3)}
	for i := range col.Intervals {
		docs := make([]corpus.Document, perInterval)
		for j := range docs {
			var id int64
			switch i {
			case 0:
				id = int64((j * 17) % perInterval * 3)
			case 1:
				id = int64(1000 + perInterval - j)
			default:
				id = int64(2000 + (j%2)*perInterval + j/2)
			}
			nk := 2 + j%4
			kws := make([]string, 0, nk+1)
			for s := 1; s <= nk; s++ {
				kws = append(kws, vocab[(j*s+i)%len(vocab)])
			}
			kws = append(kws, kws[0]) // a repeated keyword
			docs[j] = corpus.Document{ID: id, Interval: i, Keywords: kws}
		}
		col.Intervals[i] = corpus.Interval{Index: i, Docs: docs}
	}
	return col
}

// TestSegmentBytesPinned pins the SHA-256 of whole segment files, so
// any change to how BuildDisk groups, orders or encodes postings shows
// up as a changed digest rather than only as a reader disagreement.
// The sort memory budget must not matter: 0 and 1 KiB give the same
// bytes.
func TestSegmentBytesPinned(t *testing.T) {
	seeds := [][]byte{
		{},
		{0x13, 0x21, 0x05, 0x30, 0x07, 0x09, 0xff, 0x00, 0x41},
		{0x72, 0x11, 0x11, 0x11, 0x12, 0x13, 0x24, 0x35, 0x46, 0x57, 0x68},
	}
	newsWeek, err := corpus.Generate(corpus.NewsWeek(2007, 60))
	if err != nil {
		t.Fatal(err)
	}
	corpora := []struct {
		name string
		col  *corpus.Collection
	}{
		{"fuzz-seed-0", nil},
		{"fuzz-seed-1", nil},
		{"fuzz-seed-2", nil},
		{"newsweek-60", newsWeek},
		{"scrambled", scrambledCorpus()},
	}
	for i, s := range seeds {
		corpora[i].col, _ = fuzzCorpus(s)
	}
	// want[name] holds the digest at block sizes 1, 4 and 128.
	want := map[string][3]string{
		"fuzz-seed-0": {
			"09b9c9e4026856882cbb0d9710c4f6b1be9d879173b823ad911d23f731f957c4",
			"09b9c9e4026856882cbb0d9710c4f6b1be9d879173b823ad911d23f731f957c4",
			"09b9c9e4026856882cbb0d9710c4f6b1be9d879173b823ad911d23f731f957c4",
		},
		"fuzz-seed-1": {
			"35f31d778d5c81756f859fa6c462e4979e3ea9d0978aabadcdb28c99888d4962",
			"35f31d778d5c81756f859fa6c462e4979e3ea9d0978aabadcdb28c99888d4962",
			"35f31d778d5c81756f859fa6c462e4979e3ea9d0978aabadcdb28c99888d4962",
		},
		"fuzz-seed-2": {
			"f06e86a1af6218a1c2bc6546d33a9022954c98258977fdc1e964ee991ec21677",
			"f06e86a1af6218a1c2bc6546d33a9022954c98258977fdc1e964ee991ec21677",
			"f06e86a1af6218a1c2bc6546d33a9022954c98258977fdc1e964ee991ec21677",
		},
		"newsweek-60": {
			"a8213a69376c8b4fdfa88761e990c1e98d69d0450cbc2d000506194736462798",
			"0236a096aa1771e656d45679eab3ee6891ca32180834fe3d7560a7b9dd6b8dd9",
			"3b9d5c58b724118931a8d7f4eb7c0e854bb44afaf4e7499a6e7a884ca1a115b0",
		},
		"scrambled": {
			"2ba1f2f90828d6fc67899a48f655fd123178ca4a275c611e39387e53e6973a66",
			"2456bb3bba09eec2a0c7cbd34d2e74c12859214215d5a1a3cdc0d65c7998f601",
			"d0207e1b2d26dcda5a334f82bf39b87a03148f3a0fdd1503e089f1758fb927e7",
		},
	}
	dir := t.TempDir()
	for _, c := range corpora {
		for bi, bs := range []int{1, 4, 128} {
			for _, budget := range []int{0, 1 << 10} {
				path := filepath.Join(dir, "seg")
				if err := BuildDisk(c.col, path, Config{BlockSize: bs, SortMemoryBudget: budget}); err != nil {
					t.Fatalf("%s block %d budget %d: %v", c.name, bs, budget, err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(raw)
				if got := hex.EncodeToString(sum[:]); got != want[c.name][bi] {
					t.Errorf("%s block %d budget %d: segment sha256 %s, want %s", c.name, bs, budget, got, want[c.name][bi])
				}
			}
		}
	}
}
