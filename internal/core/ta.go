package core

import (
	"context"
	"fmt"

	"repro/internal/clustergraph"
	"repro/internal/topk"
)

// solveTA solves the stable-clusters problem for full paths (l must be
// m−1, per Section 4.4) by adapting the threshold algorithm: one
// weight-descending edge list per interval pair, consumed round-robin;
// every seen edge is expanded — via random seeks — into all full paths
// containing it; the run stops when the current k-th best weight
// reaches the virtual-tuple bound (the sum of the top unseen weights of
// all lists). The edge lists (sorted ahead of time, as Section 4.4
// assumes) and its startwts/endwts tables (the suffix bound's U(v) and
// its forward twin P(v), bound.go) come from the graph's solve index:
// a solve walks a cursor down each list, and counts the edges it
// consumes as EdgeReads.
//
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
		g:      g,
		k:      req.K,
		ctx:    ctx,
		global: topk.NewK(req.K),
	}
	r.bound = newSuffixBound(g, req, l, nil)
	r.bound.withPrefixes()
	if err := r.run(); err != nil {
		return nil, err
	}
	return &Result{Paths: r.global.Items(), Stats: r.stats}, nil
}

type taRun struct {
	g      *clustergraph.Graph
	k      int
	ctx    context.Context
	global *topk.K
	bound  suffixBound
	stats  Stats

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

func (r *taRun) run() error {
	lists := r.g.PairEdges()
	// The round-robin consumes each list in its sorted order; next[li]
	// is the head of list li, the first edge not yet consumed.
	next := make([]int, len(lists))
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
		for li, list := range lists {
			if next[li] < len(list) {
				virtual += list[next[li]].Weight
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
		for li, list := range lists {
			if next[li] == len(list) {
				continue
			}
			e := list[next[li]]
			next[li]++
			r.stats.EdgeReads++
			if err := r.expand(e, m); err != nil {
				return err
			}
		}
	}
}

// expand performs the random seeks that enumerate every full path
// containing edge e that can reach the bound's floor, and checks each
// against the top-k heap. A path is a prefix ref, the edge and a suffix
// ref until the heap's floor lets it in.
func (r *taRun) expand(e clustergraph.Edge, m int) error {
	r.floor = r.bound.floor(r.global.Threshold())
	if r.bound.fromStart(e.From)+e.Weight+r.bound.toEnd(e.To) < r.floor {
		r.stats.Pruned++
		return nil
	}
	r.slab.reset()
	r.beyond = e.Weight + r.bound.toEnd(e.To)
	if err := r.pathsEnding(e.From); err != nil {
		return err
	}
	if len(r.prefixes) == 0 {
		return nil // no full prefix, or none that can reach the floor
	}
	r.beyond = r.bestWeight(r.prefixes) + e.Weight
	if err := r.pathsStarting(e.To); err != nil {
		return err
	}
	for _, p := range r.prefixes {
		upToEdge := r.weight(p) + e.Weight
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

// seek accounts one random seek. Seeks also carry the cancellation
// poll: a single round can expand into exponentially many seeks, so the
// per-round check alone is not prompt.
func (r *taRun) seek() error {
	r.stats.RandomSeeks++
	if r.stats.RandomSeeks%4096 == 0 {
		if err := ctxErr(r.ctx); err != nil {
			return err
		}
	}
	return nil
}
