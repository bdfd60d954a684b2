package corpus

import (
	"fmt"
	"slices"
)

// Tokens is the interned form of a run of documents — one interval's,
// or a range of intervals' in order: every keyword occurrence as its
// rank in the run's sorted vocabulary, and every document's id. It
// holds no pointer but the vocabulary's strings, so the builds that
// read it (the keyword graph, the posting index) scan flat arrays
// instead of hashing strings, and it is all an Engine keeps of an
// interval's documents.
//
// Ranks are dense, start at 0 and follow bytewise string order, so
// they are exactly the keyword ids of the Section 3 graph and the term
// order of a segment dictionary. A keyword a document lists twice is
// kept twice: each consumer keeps its own rule for it.
type Tokens struct {
	// Words is the run's distinct keywords, bytewise ascending.
	Words []string
	// IDs is every keyword occurrence, document by document, as its
	// rank in Words.
	IDs []int32
	// Off has one entry per document plus one: document d's ranks are
	// IDs[Off[d]:Off[d+1]].
	Off []int32
	// DocIDs is every document's id, in document order.
	DocIDs []int64
}

// NumDocs returns the number of documents tokenized.
func (t *Tokens) NumDocs() int { return len(t.Off) - 1 }

// Doc returns the ranks of document d's keywords, in document order.
func (t *Tokens) Doc(d int) []int32 { return t.IDs[t.Off[d]:t.Off[d+1]] }

// Tokenizer interns documents into Tokens. Its map is kept between
// calls, so a worker that tokenizes interval after interval reuses one
// table instead of growing a new one each time. The zero value is
// ready to use; a Tokenizer is not safe for concurrent use.
type Tokenizer struct {
	rank   map[string]int32 // word → arrival number
	toRank []int32          // arrival number → rank
}

// Tokenize interns the documents of ivs, in order. A run must hold
// fewer than 2^31 keyword occurrences.
func (tz *Tokenizer) Tokenize(ivs []Interval) *Tokens {
	docs, postings := 0, 0
	for _, iv := range ivs {
		docs += len(iv.Docs)
		for _, d := range iv.Docs {
			postings += len(d.Keywords)
		}
	}
	if tz.rank == nil {
		// At most one 1 024-slot table up front (the runtime fills a
		// table to 7/8): most interval vocabularies fit, and a larger
		// one grows it once.
		tz.rank = make(map[string]int32, min(postings, 1024*7/8))
	}
	rank := tz.rank
	clear(rank)
	t := &Tokens{IDs: make([]int32, 0, postings), Off: make([]int32, 1, docs+1), DocIDs: make([]int64, 0, docs)}
	// One map pass numbers the words by first arrival; one sort of the
	// vocabulary then maps those numbers to ranks.
	for _, iv := range ivs {
		for _, d := range iv.Docs {
			for _, w := range d.Keywords {
				id, ok := rank[w]
				if !ok {
					id = int32(len(rank))
					rank[w] = id
				}
				t.IDs = append(t.IDs, id)
			}
			t.Off = append(t.Off, int32(len(t.IDs)))
			t.DocIDs = append(t.DocIDs, d.ID)
		}
	}
	t.Words = make([]string, 0, len(rank))
	for w := range rank {
		t.Words = append(t.Words, w)
	}
	slices.Sort(t.Words)
	toRank := slices.Grow(tz.toRank[:0], len(t.Words))[:len(t.Words)]
	tz.toRank = toRank
	for r, w := range t.Words {
		toRank[rank[w]] = int32(r)
	}
	for i, a := range t.IDs {
		t.IDs[i] = toRank[a]
	}
	return t
}

// Tokenize interns the documents of ivs, in order, with a fresh
// Tokenizer.
func Tokenize(ivs []Interval) *Tokens { return new(Tokenizer).Tokenize(ivs) }

// Interval tokenizes interval i of c alone, after checking that each
// of its documents claims interval i: a misfiled document would be
// counted in the wrong interval. The error names the first document
// that does not, with no package prefix, for the caller to word.
func (tz *Tokenizer) Interval(c *Collection, i int) (*Tokens, error) {
	for _, d := range c.Intervals[i].Docs {
		if d.Interval != i {
			return nil, fmt.Errorf("document %d claims interval %d but lives in %d", d.ID, d.Interval, i)
		}
	}
	return tz.Tokenize(c.Intervals[i : i+1]), nil
}
