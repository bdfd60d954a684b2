package index

import (
	"slices"

	"repro/internal/corpus"
)

// refIndex is the tests' reference index: every (term, interval)'s
// sorted doc ids, built straight from the documents with none of the
// package's own code, so the segment, its build and its readers are
// held to the corpus itself. It implements Reader.
type refIndex struct {
	lists []map[string][]int64 // per interval: term → ascending doc ids
	docs  []int
}

var _ Reader = (*refIndex)(nil)

// refIndexOf indexes c. A keyword repeated within a document posts
// once.
func refIndexOf(c *corpus.Collection) *refIndex {
	x := &refIndex{lists: make([]map[string][]int64, len(c.Intervals)), docs: make([]int, len(c.Intervals))}
	for i, iv := range c.Intervals {
		x.docs[i] = len(iv.Docs)
		x.lists[i] = map[string][]int64{}
		for _, d := range iv.Docs {
			for _, w := range slices.Compact(slices.Sorted(slices.Values(d.Keywords))) {
				x.lists[i][w] = append(x.lists[i][w], d.ID)
			}
		}
		for _, ids := range x.lists[i] {
			slices.Sort(ids)
		}
	}
	return x
}

func (x *refIndex) NumIntervals() int { return len(x.lists) }

func (x *refIndex) NumDocs(i int) int {
	if i < 0 || i >= len(x.docs) {
		return 0
	}
	return x.docs[i]
}

func (x *refIndex) Postings(w string, i int) ([]int64, error) {
	if i < 0 || i >= len(x.lists) {
		return nil, nil
	}
	return x.lists[i][w], nil
}

// Search keeps the first keyword's ids that every other keyword's list
// holds too.
func (x *refIndex) Search(keywords []string, i int) ([]int64, error) {
	if len(keywords) == 0 || i < 0 || i >= len(x.lists) {
		return nil, nil
	}
	var out []int64
	for _, id := range x.lists[i][keywords[0]] {
		all := true
		for _, w := range keywords[1:] {
			_, found := slices.BinarySearch(x.lists[i][w], id)
			all = all && found
		}
		if all {
			out = append(out, id)
		}
	}
	return out, nil
}

func (x *refIndex) TimeSeries(w string) ([]int64, error) {
	out := make([]int64, len(x.lists))
	for i := range x.lists {
		out[i] = int64(len(x.lists[i][w]))
	}
	return out, nil
}

func (x *refIndex) Vocabulary(i int) ([]string, error) {
	if i < 0 || i >= len(x.lists) {
		return nil, nil
	}
	words := make([]string, 0, len(x.lists[i]))
	for w := range x.lists[i] {
		words = append(words, w)
	}
	slices.Sort(words)
	return words, nil
}

func (x *refIndex) Close() error { return nil }
