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
// New and BuildDiskCtx. Each distinct term is interned once into a
// dense interval-local id; every posting is recorded as (term id, doc
// id) in arrival order; a counting sort by term id then lays each
// term's doc ids out contiguously in ids. The sort is stable, so a
// term's ids keep their arrival order — document order in every
// corpus the generator and the Engine produce — and a list is sorted
// only if that order was not already ascending. The only comparisons
// left are over the interval's distinct terms (termOrder, disk only).
//
// Extra memory is one interval's postings at a time, about 20 bytes
// each (term id, doc id, grouped id), plus its vocabulary; every buffer
// is reused from one interval to the next.
type postingGroups struct {
	termID map[string]int32 // term → interval-local id; cleared per interval
	terms  []string         // id → term, in first-arrival order
	// seen[t] is the ordinal+1 of the last document that posted term t
	// (the per-document keyword dedup); once collection ends it is
	// reused as the counting sort's write cursor.
	seen  []int
	tids  []int32 // per posting, in arrival order: term id
	docs  []int64 // per posting, in arrival order: doc id
	start []int   // term t's ids are ids[start[t]:start[t+1]]
	ids   []int64 // doc ids grouped by term id, ascending within a term
	order []int32 // term ids in lexicographic term order (termOrder)
}

func newPostingGroups() *postingGroups {
	return &postingGroups{termID: make(map[string]int32)}
}

// group collects interval i's postings from docs and groups them by
// term. Document keywords are sets: a keyword repeated within one
// document posts once. strict applies the disk layout's rules on top of
// the checks both backends share (every document filed under interval
// i, no doc id twice under one term): doc ids must be non-negative and
// terms free of NUL and newline bytes. ctx is polled once per interval
// and every pollEvery postings. g.ids is reused when its capacity
// suffices; New sets it to nil first so each interval's lists land in
// a fresh exact-size array that its map keeps.
func (g *postingGroups) group(ctx context.Context, i int, docs []corpus.Document, strict bool) error {
	const pollEvery = 4096
	if err := ctx.Err(); err != nil {
		return err
	}
	clear(g.termID)
	g.terms, g.seen = g.terms[:0], g.seen[:0]
	g.tids, g.docs = g.tids[:0], g.docs[:0]
	g.start = append(g.start[:0], 0)
	for di := range docs {
		d := &docs[di]
		if d.Interval != i {
			return fmt.Errorf("index: document %d claims interval %d but lives in %d", d.ID, d.Interval, i)
		}
		if strict && d.ID < 0 {
			return fmt.Errorf("index: document id %d is negative; the disk layout requires non-negative ids", d.ID)
		}
		for _, w := range d.Keywords {
			t, ok := g.termID[w]
			if !ok {
				if strict && strings.ContainsAny(w, "\x00\n") {
					return fmt.Errorf("index: interval %d: keyword %q contains NUL or newline", i, w)
				}
				t = int32(len(g.terms))
				g.termID[w] = t
				g.terms = append(g.terms, w)
				g.seen = append(g.seen, 0)
				g.start = append(g.start, 0)
			}
			if g.seen[t] == di+1 {
				continue
			}
			g.seen[t] = di + 1
			g.start[t+1]++
			g.tids = append(g.tids, t)
			g.docs = append(g.docs, d.ID)
			if len(g.tids)%pollEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
	}

	// Counting sort by term id: prefix sums turn the per-term counts in
	// start into offsets, and one stable pass places every doc id.
	for t := 1; t < len(g.start); t++ {
		g.start[t] += g.start[t-1]
	}
	next := g.seen
	copy(next, g.start)
	n := len(g.tids)
	if cap(g.ids) < n {
		g.ids = make([]int64, n)
	}
	g.ids = g.ids[:n]
	for p, t := range g.tids {
		g.ids[next[t]] = g.docs[p]
		next[t]++
	}
	for t := range g.terms {
		list := g.list(int32(t))
		if !slices.IsSorted(list) {
			slices.Sort(list)
		}
		// Document ids must be unique within an interval, or A(u)
		// counts would double-count.
		for j := 1; j < len(list); j++ {
			if list[j] == list[j-1] {
				return fmt.Errorf("index: interval %d: duplicate document id %d", i, list[j])
			}
		}
	}
	return nil
}

// list returns term t's ascending doc ids, capped so an append cannot
// reach the next term's list.
func (g *postingGroups) list(t int32) []int64 {
	lo, hi := g.start[t], g.start[t+1]
	return g.ids[lo:hi:hi]
}

// termOrder returns the interval's term ids sorted by term, bytewise
// ascending — the segment layout's dictionary order.
func (g *postingGroups) termOrder() []int32 {
	g.order = g.order[:0]
	for t := range g.terms {
		g.order = append(g.order, int32(t))
	}
	slices.SortFunc(g.order, func(a, b int32) int { return strings.Compare(g.terms[a], g.terms[b]) })
	return g.order
}
