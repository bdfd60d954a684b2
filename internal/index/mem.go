package index

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/corpus"
)

// MemIndex is the mem backend: each interval's tokens and the posting
// groups the one grouping routine (postingGroups) computes from them,
// kept as they come out of it instead of encoded. A term is its rank
// in the tokens' sorted Words and its postings are a row of the
// grouped ids; nothing is decoded or cached. Push appends an interval;
// reads are safe concurrently with it, and Push calls must be
// serialized by the caller (the Engine holds its push lock).
type MemIndex struct {
	mu  sync.RWMutex
	ivs []memInterval
}

// memInterval is one interval's grouped postings: term t (its rank in
// tk.Words) holds ids[start[t]:start[t+1]], ascending.
type memInterval struct {
	tk    *corpus.Tokens
	start []int32
	ids   []int64
}

var _ Live = (*MemIndex)(nil)

// newMemIndex pushes one interval per entry of toks, so the lowest
// interval that breaks the input rules names the error.
func newMemIndex(ctx context.Context, toks []*corpus.Tokens) (Live, error) {
	x := &MemIndex{ivs: make([]memInterval, 0, len(toks))}
	for i, tk := range toks {
		if err := x.Push(ctx, i, tk); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// Push groups tk, the tokens of interval, and appends it. interval
// must be exactly NumIntervals(); on error the index is unchanged.
func (x *MemIndex) Push(ctx context.Context, interval int, tk *corpus.Tokens) error {
	var g postingGroups
	if err := g.group(ctx, interval, tk); err != nil {
		return err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if interval != len(x.ivs) {
		return fmt.Errorf("index: pushed interval %d, store expects %d", interval, len(x.ivs))
	}
	x.ivs = append(x.ivs, memInterval{tk: tk, start: g.start, ids: g.ids})
	return nil
}

// interval returns interval i's record, which never changes once
// pushed, or nil when i is out of range.
func (x *MemIndex) interval(i int) *memInterval {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if i < 0 || i >= len(x.ivs) {
		return nil
	}
	return &x.ivs[i]
}

// row returns term w's ascending doc ids, capped so an append cannot
// reach the next row; nil when iv is nil or does not hold w.
func (iv *memInterval) row(w string) []int64 {
	if iv == nil {
		return nil
	}
	t, ok := slices.BinarySearch(iv.tk.Words, w)
	if !ok {
		return nil
	}
	lo, hi := iv.start[t], iv.start[t+1]
	return iv.ids[lo:hi:hi]
}

// NumIntervals returns the number of indexed intervals.
func (x *MemIndex) NumIntervals() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.ivs)
}

// NumDocs returns the number of documents in interval i.
func (x *MemIndex) NumDocs(i int) int {
	if iv := x.interval(i); iv != nil {
		return iv.tk.NumDocs()
	}
	return 0
}

// Postings returns the sorted document ids containing keyword w in
// interval i: the index's own row, not a copy.
func (x *MemIndex) Postings(w string, i int) ([]int64, error) {
	return x.interval(i).row(w), nil
}

// Search returns the sorted ids of interval-i documents containing all
// keywords: the rarest row, copied once, narrowed by every other row.
func (x *MemIndex) Search(keywords []string, i int) ([]int64, error) {
	iv := x.interval(i)
	var rarest []int64
	at := 0
	for j, w := range keywords {
		r := iv.row(w)
		if len(r) == 0 {
			return nil, nil
		}
		if j == 0 || len(r) < len(rarest) {
			rarest, at = r, j
		}
	}
	acc := slices.Clone(rarest)
	for j, w := range keywords {
		if j != at {
			acc = intersectSorted(acc, iv.row(w))
		}
	}
	if len(acc) == 0 {
		return nil, nil
	}
	return acc, nil
}

// intersectSorted keeps the ids of acc that row holds too, in place.
// Both are ascending, so each id is searched for only in the part of
// row above the previous one.
func intersectSorted(acc, row []int64) []int64 {
	out := acc[:0]
	for _, v := range acc {
		k, found := slices.BinarySearch(row, v)
		if found {
			out = append(out, v)
		}
		row = row[k:]
	}
	return out
}

// TimeSeries returns A(w) for every interval: its row length in each.
func (x *MemIndex) TimeSeries(w string) ([]int64, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make([]int64, len(x.ivs))
	for i := range x.ivs {
		out[i] = int64(len(x.ivs[i].row(w)))
	}
	return out, nil
}

// Vocabulary returns the sorted distinct keywords of interval i: its
// tokens' Words, which the caller must not modify.
func (x *MemIndex) Vocabulary(i int) ([]string, error) {
	if iv := x.interval(i); iv != nil {
		return slices.Clip(iv.tk.Words), nil
	}
	return nil, nil
}

// Close does nothing: a MemIndex holds no file.
func (x *MemIndex) Close() error { return nil }
