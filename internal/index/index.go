// Package index implements the keyword index underlying BlogScope, the
// host system of the paper (Sections 1 and 3): per-interval inverted
// posting lists over a temporally ordered document stream.
//
// The index answers the primitives the rest of the pipeline and the
// search features need (Reader):
//
//   - posting lists: A(u), how many documents of an interval contain
//     keyword u, is the length of u's list;
//   - boolean keyword search within an interval (A(u,v) is the length
//     of the search for u and v);
//   - per-keyword time series across intervals (the input to burst
//     detection, internal/burst).
//
// Postings are sorted document-id slices; intersections run in
// O(|shorter| + |longer|) with a galloping fallback for very skewed
// pairs.
package index

import (
	"context"
	"sort"

	"repro/internal/corpus"
)

// Index is an inverted keyword index over a collection's intervals.
// Build one with New; it is immutable and safe for concurrent readers
// afterwards.
type Index struct {
	intervals []intervalIndex
	// docs counts documents per interval.
	docs []int
}

var _ Reader = (*Index)(nil)

type intervalIndex struct {
	postings map[string][]int64 // keyword → sorted doc ids
}

// New indexes every interval of the collection. Document keywords are
// treated as sets (duplicates within a document are counted once),
// matching the binary per-document semantics of Section 3. Each
// interval's posting lists are exact-size subslices of one array,
// grouped by postingGroups.
func New(c *corpus.Collection) (*Index, error) {
	return newIndex(context.Background(), c, corpus.Tokenizing(c))
}

// newIndex is the one in-memory build: c's index from the tokens src
// gives for each of c's intervals, one interval at a time.
func newIndex(ctx context.Context, c *corpus.Collection, src corpus.TokenSource) (*Index, error) {
	idx := &Index{
		intervals: make([]intervalIndex, len(c.Intervals)),
		docs:      make([]int, len(c.Intervals)),
	}
	var (
		tz corpus.Tokenizer
		g  postingGroups
	)
	for i, iv := range c.Intervals {
		idx.docs[i] = len(iv.Docs)
		tk, err := src(ctx, i, &tz)
		if err != nil {
			return nil, err
		}
		g.ids = nil // the map below keeps this interval's array
		if err := g.group(ctx, i, iv.Docs, tk, false); err != nil {
			return nil, err
		}
		postings := make(map[string][]int64, len(tk.Words))
		for t, w := range tk.Words {
			postings[w] = g.list(t)
		}
		idx.intervals[i].postings = postings
	}
	return idx, nil
}

// NumIntervals returns the number of indexed intervals.
func (x *Index) NumIntervals() int { return len(x.intervals) }

// NumDocs returns the number of documents in interval i.
func (x *Index) NumDocs(i int) int {
	if i < 0 || i >= len(x.docs) {
		return 0
	}
	return x.docs[i]
}

// Postings returns the sorted document ids containing keyword w in
// interval i. The returned slice is shared; callers must not modify it.
func (x *Index) Postings(w string, i int) ([]int64, error) {
	if i < 0 || i >= len(x.intervals) {
		return nil, nil
	}
	return x.intervals[i].postings[w], nil
}

// Search returns the sorted ids of interval-i documents containing ALL
// the given keywords (boolean AND). An empty keyword list matches
// nothing.
func (x *Index) Search(keywords []string, i int) ([]int64, error) {
	if len(keywords) == 0 || i < 0 || i >= len(x.intervals) {
		return nil, nil
	}
	// Intersect rarest-first so intermediate results shrink fastest.
	lists := make([][]int64, len(keywords))
	for j, w := range keywords {
		lists[j] = x.intervals[i].postings[w]
		if len(lists[j]) == 0 {
			return nil, nil
		}
	}
	sort.Slice(lists, func(a, b int) bool { return len(lists[a]) < len(lists[b]) })
	acc := lists[0]
	for _, l := range lists[1:] {
		acc = intersect(acc, l)
		if len(acc) == 0 {
			return nil, nil
		}
	}
	// acc may alias a posting list; copy before returning.
	out := make([]int64, len(acc))
	copy(out, acc)
	return out, nil
}

// TimeSeries returns A(w) for every interval — the document-frequency
// trajectory burst detection consumes.
func (x *Index) TimeSeries(w string) ([]int64, error) {
	out := make([]int64, len(x.intervals))
	for i := range x.intervals {
		out[i] = int64(len(x.intervals[i].postings[w]))
	}
	return out, nil
}

// Vocabulary returns the sorted distinct keywords of interval i.
func (x *Index) Vocabulary(i int) ([]string, error) {
	if i < 0 || i >= len(x.intervals) {
		return nil, nil
	}
	words := make([]string, 0, len(x.intervals[i].postings))
	for w := range x.intervals[i].postings {
		words = append(words, w)
	}
	sort.Strings(words)
	return words, nil
}

// Close is a no-op: an *Index holds no backend resources.
func (x *Index) Close() error { return nil }

// intersect returns the sorted intersection of two sorted id slices.
// When one list is much shorter, it gallops (doubling binary search)
// through the longer one.
func intersect(a, b []int64) []int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return nil
	}
	var out []int64
	if len(b) >= 16*len(a) {
		// Galloping: binary-search each element of the short list.
		lo := 0
		for _, v := range a {
			i := lo + sort.Search(len(b)-lo, func(j int) bool { return b[lo+j] >= v })
			if i < len(b) && b[i] == v {
				out = append(out, v)
				lo = i + 1
			} else {
				lo = i
			}
			if lo >= len(b) {
				break
			}
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
