package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

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
func solveTA(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	l, err := req.resolveL(g)
	if err != nil {
		return nil, err
	}
	if l != g.NumIntervals()-1 {
		return nil, fmt.Errorf("%w: TA finds full paths only (l = m-1 = %d), got l = %d", ErrInvalidRequest, g.NumIntervals()-1, l)
	}
	n := g.NumNodes()
	r := &taRun{
		g:        g,
		k:        req.K,
		useBound: !req.disableBoundHashTables,
		maxSeeks: req.MaxSeeks,
		ctx:      ctx,
		global:   topk.NewK(req.K),
		startwts: make([]float64, n),
		endwts:   make([]float64, n),
	}
	for id := range r.startwts {
		r.startwts[id], r.endwts[id] = math.NaN(), math.NaN()
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	return &Result{Paths: r.global.Items(), Stats: r.stats}, nil
}

type taEdge struct {
	from, to int64
	weight   float64
	length   int
}

type taRun struct {
	g        *clustergraph.Graph
	k        int
	useBound bool
	maxSeeks int64
	ctx      context.Context
	global   *topk.K
	stats    Stats

	// startwts[c] is the weight of the best full-suffix starting at c
	// (reaching the last interval); endwts[c] the best full-prefix
	// ending at c (from interval 0). NaN until node c has been
	// expanded: the tables fill lazily, exactly as Section 4.4
	// describes.
	startwts []float64
	endwts   []float64

	// The full prefixes and suffixes of the edge being expanded, as
	// chains in a slab that is emptied for the next edge: prefixes grow
	// at the front (chains run first node → last), suffixes at the end.
	slab     slab
	prefixes []ref
	suffixes []ref
	nodes    []int64 // scratch for global offers
}

// buildLists materializes one weight-descending edge list per interval
// pair (i, j), j−i ≤ g+1.
func (r *taRun) buildLists() [][]taEdge {
	g := r.g
	// The list of pair (i, i+d) is lists[i*(gap+1)+d−1]; pairs that run
	// past the last interval stay empty.
	lists := make([][]taEdge, g.NumIntervals()*(g.Gap()+1))
	for i := 0; i < g.NumIntervals(); i++ {
		for _, u := range g.NodesAt(i) {
			for _, h := range g.Children(u) {
				li := i*(g.Gap()+1) + h.Length - 1
				lists[li] = append(lists[li], taEdge{from: u, to: h.Peer, weight: h.Weight, length: h.Length})
			}
		}
	}
	for _, list := range lists {
		slices.SortFunc(list, func(a, b taEdge) int {
			return cmp.Or(cmp.Compare(b.weight, a.weight), cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
		})
	}
	return lists
}

func (r *taRun) run() error {
	lists := r.buildLists()
	pos := make([]int, len(lists))
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
			if pos[li] < len(list) {
				virtual += list[pos[li]].weight
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
			if pos[li] >= len(lists[li]) {
				continue
			}
			e := lists[li][pos[li]]
			pos[li]++
			if err := r.expand(e, m); err != nil {
				return err
			}
		}
	}
}

// expand performs the random seeks that enumerate every full path
// containing edge e and checks each against the top-k heap. A path is a
// prefix ref, the edge and a suffix ref until the heap's floor lets it
// in.
func (r *taRun) expand(e taEdge, m int) error {
	if r.useBound {
		sw, ew := r.startwts[e.to], r.endwts[e.from]
		if !math.IsNaN(sw) && !math.IsNaN(ew) {
			// Both bounds known: skip the expansion when even the best
			// combination cannot qualify.
			if r.global.Len() == r.k && ew+e.weight+sw < r.global.Threshold() {
				r.stats.Pruned++
				return nil
			}
		}
	}
	r.slab.reset()
	if err := r.pathsEnding(e.from); err != nil {
		return err
	}
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

// pathsEnding enumerates into r.prefixes all full prefixes: paths from
// interval 0 ending at node c. Each adjacency examination is a random
// seek.
func (r *taRun) pathsEnding(c int64) error {
	r.prefixes = r.prefixes[:0]
	if r.g.Interval(c) == 0 {
		r.prefixes = append(r.prefixes, bare(c))
		return nil
	}
	if err := r.growPrefixes(bare(c)); err != nil {
		return err
	}
	if r.useBound && len(r.prefixes) > 0 {
		r.endwts[c] = r.bestWeight(r.prefixes)
	}
	return nil
}

// growPrefixes extends path p backwards along every parent edge of its
// first node until interval 0 is reached. TA chains carry no lengths:
// every path assembled from them is a full one.
func (r *taRun) growPrefixes(p ref) error {
	if err := r.seek(); err != nil {
		return err
	}
	for _, h := range r.g.Parents(r.slab.head(p)) {
		q := r.slab.add(r.slab.grow(h.Peer, p, r.weight(p)+h.Weight, 0))
		if r.g.Interval(h.Peer) == 0 {
			r.prefixes = append(r.prefixes, q)
		} else if err := r.growPrefixes(q); err != nil {
			return err
		}
	}
	return nil
}

// pathsStarting enumerates into r.suffixes all full suffixes: paths
// from node c to the last interval.
func (r *taRun) pathsStarting(c int64) error {
	r.suffixes = r.suffixes[:0]
	if r.g.Interval(c) == r.g.NumIntervals()-1 {
		r.suffixes = append(r.suffixes, bare(c))
		return nil
	}
	if err := r.growSuffixes(bare(c)); err != nil {
		return err
	}
	if r.useBound && len(r.suffixes) > 0 {
		r.startwts[c] = r.bestWeight(r.suffixes)
	}
	return nil
}

// growSuffixes extends path p forwards along every child edge of its
// last node until the last interval is reached.
func (r *taRun) growSuffixes(p ref) error {
	if err := r.seek(); err != nil {
		return err
	}
	for _, h := range r.g.Children(r.slab.head(p)) {
		q := r.slab.add(r.slab.grow(h.Peer, p, r.weight(p)+h.Weight, 0))
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
