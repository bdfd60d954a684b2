package index

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/corpus"
)

// postingGroups groups one interval's postings by term without a
// comparison sort over postings — the one build routine behind both
// New and the disk build. It reads the interval's tokens, so a term is
// its rank in the interval's sorted vocabulary and no string is
// hashed: one pass over the documents checks them and counts each
// term's postings, a second places every doc id with a counting sort
// by rank. The sort is stable, so a term's ids keep their arrival
// order — document order in every corpus the generator and the Engine
// produce — and a list is sorted only if that order was not already
// ascending. Ranks follow bytewise term order, the segment
// dictionary's, so the grouped lists come out in the order the disk
// layout writes them.
//
// Extra memory is one interval's grouped doc ids, 8 bytes each, plus
// three ints per vocabulary word; every buffer is reused from one
// interval to the next.
type postingGroups struct {
	// seen[t] marks the last document that posted term t, the
	// per-document keyword dedup: ordinal+1 in the counting pass, its
	// negation in the placing pass.
	seen  []int32
	start []int   // term t's ids are ids[start[t]:start[t+1]]
	next  []int   // the placing pass's write cursor per term
	ids   []int64 // doc ids grouped by term, ascending within a term
}

// newPostingGroups returns groups whose buffers hold an interval of up
// to words terms and postings postings without growing.
func newPostingGroups(words, postings int) *postingGroups {
	return &postingGroups{
		seen:  make([]int32, 0, words),
		start: make([]int, 0, words+1),
		next:  make([]int, 0, words),
		ids:   make([]int64, 0, postings),
	}
}

// group groups interval i's postings: docs are its documents and tk
// their tokens. Document keywords are sets: a keyword repeated within
// one document posts once. strict applies the disk layout's rules on
// top of the checks both backends share (every document filed under
// interval i, no doc id twice under one term): doc ids must be
// non-negative and terms free of NUL and newline bytes. The checks run
// document by document, as the documents are read, so the first bad
// document names the error. ctx is polled once per interval and every
// pollEvery postings. g.ids is reused when its capacity suffices; New
// sets it to nil first so each interval's lists land in a fresh
// exact-size array that its map keeps.
func (g *postingGroups) group(ctx context.Context, i int, docs []corpus.Document, tk *corpus.Tokens, strict bool) error {
	const pollEvery = 4096
	if err := ctx.Err(); err != nil {
		return err
	}
	nt := len(tk.Words)
	g.seen = resize(g.seen, nt)
	g.start = resize(g.start, nt+1)
	badWords := false
	if strict {
		for _, w := range tk.Words {
			badWords = badWords || strings.ContainsAny(w, "\x00\n")
		}
	}

	// Count each term's postings, checking every document on the way.
	n := 0
	for di := range docs {
		d := &docs[di]
		if d.Interval != i {
			return fmt.Errorf("index: document %d claims interval %d but lives in %d", d.ID, d.Interval, i)
		}
		if strict && d.ID < 0 {
			return fmt.Errorf("index: document id %d is negative; the disk layout requires non-negative ids", d.ID)
		}
		mark := int32(di + 1)
		for _, t := range tk.Doc(di) {
			if g.seen[t] == mark {
				continue
			}
			if badWords && g.seen[t] == 0 && strings.ContainsAny(tk.Words[t], "\x00\n") {
				return fmt.Errorf("index: interval %d: keyword %q contains NUL or newline", i, tk.Words[t])
			}
			g.seen[t] = mark
			g.start[t+1]++
			if n++; n%pollEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
	}

	// Counting sort by rank: prefix sums turn the per-term counts in
	// start into offsets, and one stable pass places every doc id.
	for t := 1; t < len(g.start); t++ {
		g.start[t] += g.start[t-1]
	}
	g.next = append(g.next[:0], g.start[:nt]...)
	if cap(g.ids) < n {
		g.ids = make([]int64, n)
	}
	g.ids = g.ids[:n]
	for di := range docs {
		mark, id := -int32(di+1), docs[di].ID
		for _, t := range tk.Doc(di) {
			if g.seen[t] == mark {
				continue
			}
			g.seen[t] = mark
			g.ids[g.next[t]] = id
			g.next[t]++
		}
	}
	for t := range nt {
		list := g.list(t)
		if !slices.IsSorted(list) {
			slices.Sort(list)
		}
		// Document ids must be unique within an interval, or A(u)
		// counts would double-count.
		if _, dup := firstDuplicate(list); dup {
			return g.duplicateError(i, tk)
		}
	}
	return nil
}

// duplicateError reports the duplicate doc id of the term that arrived
// first among those with one, so the error does not depend on term
// order.
func (g *postingGroups) duplicateError(i int, tk *corpus.Tokens) error {
	checked := make([]bool, len(tk.Words))
	for _, t := range tk.IDs {
		if checked[t] {
			continue
		}
		checked[t] = true
		if id, dup := firstDuplicate(g.list(int(t))); dup {
			return fmt.Errorf("index: interval %d: duplicate document id %d", i, id)
		}
	}
	panic("index: duplicateError called without a duplicate")
}

// firstDuplicate returns the first id the ascending list holds twice.
func firstDuplicate(list []int64) (int64, bool) {
	for j := 1; j < len(list); j++ {
		if list[j] == list[j-1] {
			return list[j], true
		}
	}
	return 0, false
}

// list returns term t's ascending doc ids, capped so an append cannot
// reach the next term's list.
func (g *postingGroups) list(t int) []int64 {
	lo, hi := g.start[t], g.start[t+1]
	return g.ids[lo:hi:hi]
}

// resize returns s with length n and every element zero, reusing its
// array when it is large enough.
func resize[T int | int32](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
