package core

import (
	"context"
	"fmt"

	"repro/internal/clustergraph"
	"repro/internal/topk"
)

// ErrSeekBudget is returned (wrapped) when a TA run exceeds MaxSeeks.
var ErrSeekBudget = fmt.Errorf("core: TA random-seek budget exhausted")

// solveTA solves the stable-clusters problem for full paths (l must be
// m−1, per Section 4.4) by adapting the threshold algorithm: one
// weight-descending edge list per interval pair, consumed round-robin;
// every seen edge is expanded — via random seeks — into all full paths
// containing it; the run stops when the current k-th best weight
// reaches the virtual-tuple bound (the sum of the top unseen weights of
// all lists).
//
// Section 4.4's startwts/endwts tables are the suffix bound's U(v) and
// its forward twin P(v) (bound.go), both swept before the first round.
// An expansion drops every edge, and every prefix or suffix branch,
// whose full paths cannot reach the bound's floor. Every prefix and
// suffix of a final top-k path reaches it, and anything dropped ranks
// below the final k-th path, so the heap holds the unbounded run's top k
// whenever it holds k paths: the same rounds run, the same edges are
// expanded and the same weights summed.
func solveTA(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	l, err := req.resolveL(g)
	if err != nil {
		return nil, err
	}
	if l != g.NumIntervals()-1 {
		return nil, fmt.Errorf("%w: TA finds full paths only (l = m-1 = %d), got l = %d", ErrInvalidRequest, g.NumIntervals()-1, l)
	}
	r := &taRun{
		g:        g,
		k:        req.K,
		maxSeeks: req.MaxSeeks,
		ctx:      ctx,
		global:   topk.NewK(req.K),
	}
	r.bound = newSuffixBound(g, req, l, &r.stats)
	r.bound.sweepPrefixes(&r.stats)
	if err := r.run(); err != nil {
		return nil, err
	}
	return &Result{Paths: r.global.Items(), Stats: r.stats}, nil
}

type taEdge struct {
	from, to int64
	weight   float64
}

// taBefore is the order an edge list is consumed in: weight descending,
// then from, then to.
func taBefore(a, b taEdge) bool {
	if a.weight != b.weight {
		return a.weight > b.weight
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.to < b.to
}

// edgeList is one interval pair's edges, a heap under taBefore: the
// round-robin reads only a few heads of each list, so a list is
// heapified in O(E) and popped on demand instead of sorted.
type edgeList []taEdge

func (h edgeList) down(j int) {
	for {
		c := 2*j + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && taBefore(h[c+1], h[c]) {
			c++
		}
		if !taBefore(h[c], h[j]) {
			return
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
}

// pop removes and returns the head.
func (h *edgeList) pop() taEdge {
	old := *h
	e, n := old[0], len(old)-1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return e
}

type taRun struct {
	g        *clustergraph.Graph
	k        int
	maxSeeks int64
	ctx      context.Context
	global   *topk.K
	bound    suffixBound
	stats    Stats

	// For the edge being expanded: the floor its full paths must reach,
	// and the most the far side of the branch being grown can add — the
	// edge and U of its end while prefixes grow, the edge and the best
	// prefix found while suffixes do.
	floor, beyond float64

	// The full prefixes and suffixes of the edge being expanded, as
	// chains in a slab that is emptied for the next edge: prefixes grow
	// at the front (chains run first node → last), suffixes at the end.
	slab     slab
	prefixes []ref
	suffixes []ref
	nodes    []int64 // scratch for global offers
}

// buildLists collects one edge list per interval pair (i, j), j−i ≤ g+1,
// each in one pre-sized slice of a shared backing array.
func (r *taRun) buildLists() []edgeList {
	g := r.g
	// The list of pair (i, i+d) is lists[i*(gap+1)+d−1]; pairs that run
	// past the last interval stay empty.
	span := g.Gap() + 1
	sizes := make([]int, g.NumIntervals()*span)
	edges := 0
	for i := 0; i < g.NumIntervals(); i++ {
		for _, u := range g.NodesAt(i) {
			for _, h := range g.Children(u) {
				sizes[i*span+h.Length-1]++
				edges++
			}
		}
	}
	all := make([]taEdge, edges)
	lists := make([]edgeList, len(sizes))
	at := 0
	for li, n := range sizes {
		lists[li] = all[at : at : at+n]
		at += n
	}
	for i := 0; i < g.NumIntervals(); i++ {
		for _, u := range g.NodesAt(i) {
			for _, h := range g.Children(u) {
				li := i*span + h.Length - 1
				lists[li] = append(lists[li], taEdge{from: u, to: h.Peer, weight: h.Weight})
			}
		}
	}
	for _, list := range lists {
		for j := len(list)/2 - 1; j >= 0; j-- {
			list.down(j)
		}
	}
	return lists
}

func (r *taRun) run() error {
	lists := r.buildLists()
	m := r.g.NumIntervals()

	for {
		if err := ctxErr(r.ctx); err != nil {
			return err
		}
		// Virtual tuple: the sum of the best unseen weight of every
		// list. Any entirely-unseen path is composed of unseen edges, a
		// subset of the lists, so (weights being positive) the full sum
		// is a safe upper bound.
		virtual := 0.0
		exhausted := true
		for _, list := range lists {
			if len(list) > 0 {
				virtual += list[0].weight
				exhausted = false
			}
		}
		if exhausted {
			return nil
		}
		if r.global.Len() == r.k && r.global.Threshold() >= virtual {
			return nil // the stopping rule
		}
		// Round-robin: consume the head of each non-empty list.
		for li := range lists {
			if len(lists[li]) == 0 {
				continue
			}
			if err := r.expand(lists[li].pop(), m); err != nil {
				return err
			}
		}
	}
}

// expand performs the random seeks that enumerate every full path
// containing edge e that can reach the bound's floor, and checks each
// against the top-k heap. A path is a prefix ref, the edge and a suffix
// ref until the heap's floor lets it in.
func (r *taRun) expand(e taEdge, m int) error {
	r.floor = r.bound.floor(r.global.Threshold())
	if r.bound.fromStart(e.from)+e.weight+r.bound.toEnd(e.to) < r.floor {
		r.stats.Pruned++
		return nil
	}
	r.slab.reset()
	r.beyond = e.weight + r.bound.toEnd(e.to)
	if err := r.pathsEnding(e.from); err != nil {
		return err
	}
	if len(r.prefixes) == 0 {
		return nil // no full prefix, or none that can reach the floor
	}
	r.beyond = r.bestWeight(r.prefixes) + e.weight
	if err := r.pathsStarting(e.to); err != nil {
		return err
	}
	for _, p := range r.prefixes {
		upToEdge := r.weight(p) + e.weight
		for _, s := range r.suffixes {
			weight := upToEdge + r.weight(s)
			r.stats.HeapConsiders++
			if weight >= r.global.Threshold() {
				r.nodes = r.slab.appendReversed(r.slab.appendChain(r.nodes[:0], p), s)
				offerGlobal(r.global, r.nodes, weight, m-1)
			}
		}
	}
	return nil
}

// weight returns the weight of prefix or suffix p; the bare end point
// of the expanded edge weighs nothing.
func (r *taRun) weight(p ref) float64 {
	if p < 0 {
		return 0
	}
	return r.slab.at(p).weight
}

// pathsEnding enumerates into r.prefixes the full prefixes ending at
// node c — paths from interval 0 — that can reach the floor.
func (r *taRun) pathsEnding(c int64) error {
	r.prefixes = r.prefixes[:0]
	if r.g.Interval(c) == 0 {
		r.prefixes = append(r.prefixes, bare(c))
		return nil
	}
	return r.growPrefixes(bare(c))
}

// growPrefixes extends path p backwards along every parent edge of its
// first node until interval 0 is reached, dropping a parent whose
// heaviest prefix cannot carry the path to the floor. Each adjacency
// examination is a random seek. TA chains carry no lengths: every path
// assembled from them is a full one.
func (r *taRun) growPrefixes(p ref) error {
	if err := r.seek(); err != nil {
		return err
	}
	for _, h := range r.g.Parents(r.slab.head(p)) {
		w := r.weight(p) + h.Weight
		if w+r.bound.fromStart(h.Peer)+r.beyond < r.floor {
			r.stats.Pruned++
			continue
		}
		q := r.slab.add(r.slab.grow(h.Peer, p, w, 0))
		if r.g.Interval(h.Peer) == 0 {
			r.prefixes = append(r.prefixes, q)
		} else if err := r.growPrefixes(q); err != nil {
			return err
		}
	}
	return nil
}

// pathsStarting enumerates into r.suffixes the full suffixes starting at
// node c — paths to the last interval — that can reach the floor.
func (r *taRun) pathsStarting(c int64) error {
	r.suffixes = r.suffixes[:0]
	if r.g.Interval(c) == r.g.NumIntervals()-1 {
		r.suffixes = append(r.suffixes, bare(c))
		return nil
	}
	return r.growSuffixes(bare(c))
}

// growSuffixes extends path p forwards along every child edge of its
// last node until the last interval is reached, dropping a child whose
// heaviest suffix cannot carry the path to the floor.
func (r *taRun) growSuffixes(p ref) error {
	if err := r.seek(); err != nil {
		return err
	}
	for _, h := range r.g.Children(r.slab.head(p)) {
		w := r.weight(p) + h.Weight
		if w+r.bound.toEnd(h.Peer)+r.beyond < r.floor {
			r.stats.Pruned++
			continue
		}
		q := r.slab.add(r.slab.grow(h.Peer, p, w, 0))
		if r.g.Interval(h.Peer) == r.g.NumIntervals()-1 {
			r.suffixes = append(r.suffixes, q)
		} else if err := r.growSuffixes(q); err != nil {
			return err
		}
	}
	return nil
}

// bestWeight returns the largest weight among paths.
func (r *taRun) bestWeight(paths []ref) float64 {
	best := r.weight(paths[0])
	for _, p := range paths[1:] {
		best = max(best, r.weight(p))
	}
	return best
}

// seek accounts one random seek and enforces the budget. Seeks also
// carry the cancellation poll: a single round can expand into
// exponentially many seeks, so the per-round check alone is not prompt.
func (r *taRun) seek() error {
	r.stats.RandomSeeks++
	if r.maxSeeks > 0 && r.stats.RandomSeeks > r.maxSeeks {
		return fmt.Errorf("%w (limit %d)", ErrSeekBudget, r.maxSeeks)
	}
	if r.stats.RandomSeeks%4096 == 0 {
		if err := ctxErr(r.ctx); err != nil {
			return err
		}
	}
	return nil
}
