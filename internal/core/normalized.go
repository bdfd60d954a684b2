package core

import (
	"context"
	"math"

	"repro/internal/clustergraph"
	"repro/internal/topk"
)

// solveNormalized solves Problem 2 — the top-k paths of temporal length
// at least LMin with the highest stability, weight/length — by
// Dinkelbach's parametric method for ratio objectives instead of the
// candidate lists of Section 4.5. For a ratio λ, stability(π) ≥ λ
// exactly when score_λ(π) = Σ over π's hops of (w − λ·span) ≥ 0, and
// that score is additive: at a fixed λ the top-k paths by score come out
// of BFS's k-best DP over the state (node, min(length, lmin)), one pass
// in the order BFS runs. If λ is the k-th largest stability λ*, fewer
// than k paths score above zero and the rest of the top k tie at zero,
// where the node order decides as it does between equal stabilities:
// the top-k by score at λ* are the top-k by stability.
//
// λ* is reached from below. The first λ is F/lmin, where F is the
// suffix bound's floor: k real paths of length exactly lmin clear it,
// so it is at most λ* (newRatioRun). Without such k paths it is the
// least hop stability, which every path clears: a path's stability is
// the span-weighted mean of its hops'. Each pass leaves a top-k whose
// paths all clear λ, so the least stability among them lies between λ
// and λ*; it becomes the next λ, and the first pass that does not raise
// it was run at λ*. A pass that finds fewer than k paths has found
// every qualifying one.
//
// The Weight field of returned paths holds the stability score.
func solveNormalized(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	lmin, err := req.resolveLMin(g)
	if err != nil {
		return nil, err
	}
	r := newRatioRun(g, req.K, lmin)
	for {
		if err := r.pass(ctx); err != nil {
			return nil, err
		}
		w, l, n := r.least()
		if n < req.K || w/float64(l) <= r.w/float64(r.l) {
			break
		}
		r.w, r.l = w, l
	}
	return &Result{Paths: r.answer(), Stats: r.stats}, nil
}

const (
	// scoreGrid is the unit of a heap key, 2^-30: keys are scores rounded
	// to a fixed grid so that paths whose stabilities are the same
	// rational, summed in different orders (2/3 = (1/3 + 1)/2), tie and
	// fall to the node order as they do in the oracle.
	scoreGrid = 0x1p30
	// boundSlack, in grid units, keeps the suffix-bound drop clear of the
	// rounding of keys and bounds.
	boundSlack = 0x1p10
)

// ratioRun carries one normalized solve. λ is kept as the pair w/l —
// the weight and the length of a real path — so a hop scores
// w_hop·l − w·span, exact wherever the weights are.
type ratioRun struct {
	g    *clustergraph.Graph
	lmin int
	w    float64
	l    int

	// A slab and per-node heaps as BFS keeps them, reused by every pass:
	// heap id*lmin + c−1 holds the top-k paths ending at node id whose
	// length, capped at lmin, is c, ranked by key. A heap entry's weight
	// is its key, the slab record's the path's raw weight summed forward
	// from its first node. top holds the top-k of length ≥ lmin.
	slab  slab
	heaps *pathHeaps
	top   *pathHeaps
	// bound[id] bounds, in grid units, the score any suffix adds to a
	// path ending at id; floor is the key an offer plus its bound must
	// reach, less boundSlack.
	bound []float64
	floor float64
	stats Stats
}

// newRatioRun sets up a solve at its first λ: F/lmin, where F is the
// floor the suffix bound seeds (seedFloor), the k-th largest U_lmin(s)
// over start nodes s. The F values are the weights of k real paths of
// length exactly lmin with distinct first nodes, so F/lmin ≤ λ* and k
// paths clear it. F is summed last hop first and a pass first hop
// first; the few ulps between them fall far inside the key grid and
// boundSlack, so F is used as it is. Where fewer than k nodes start
// such a path (F = −Inf), λ starts at the least hop stability, which
// every path clears (0/0 on a graph without edges, where one pass finds
// nothing); F/lmin, a span-weighted mean of hop stabilities, is never
// below it, so that scan is skipped when F is finite.
func newRatioRun(g *clustergraph.Graph, k, lmin int) *ratioRun {
	r := &ratioRun{g: g, lmin: lmin, bound: make([]float64, g.NumNodes())}
	r.heaps = newPathHeaps(&r.slab, k, g.NumNodes()*lmin)
	r.heaps.reuse = true
	r.top = newPathHeaps(&r.slab, k, 1)
	r.top.reuse = true
	if _, _, f := seedFloor(g, k, lmin); !math.IsInf(f, -1) {
		r.w, r.l = f, lmin
		return r
	}
	for id := range g.NumNodes() {
		for _, h := range g.Children(int64(id)) {
			if r.l == 0 || h.Weight/float64(h.Length) < r.w/float64(r.l) {
				r.w, r.l = h.Weight, h.Length
			}
		}
	}
	return r
}

// hop is the score, in grid units, that an edge of weight w and span
// adds at the current λ.
func (r *ratioRun) hop(w float64, span int) float64 {
	return (w*float64(r.l) - r.w*float64(span)) * scoreGrid
}

// key is the heap key of a path of raw weight w and the given length.
func (r *ratioRun) key(w float64, length int) float64 {
	return math.Round((w*float64(r.l) - r.w*float64(length)) * scoreGrid)
}

// pass runs the k-best DP once at the current λ.
func (r *ratioRun) pass(ctx context.Context) error {
	r.stats.Passes++
	r.heaps.release(0, len(r.heaps.heaps))
	r.top.release(0, 1)
	r.slab.reset()
	r.sweepBounds()
	r.floor = -boundSlack
	for i := 0; i < r.g.NumIntervals(); i++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		for j := max(i-r.g.Gap()-1, 0); j < i; j++ {
			r.stats.NodeReads += int64(len(r.g.NodesAt(j)))
		}
		for _, id := range r.g.NodesAt(i) {
			for _, ph := range r.g.Parents(id) {
				r.stats.EdgeReads++
				r.extend(id, ph)
			}
			r.stats.NodeWrites++
		}
		if old := i - r.g.Gap() - 1; old >= 0 {
			for _, id := range r.g.NodesAt(old) {
				r.heaps.release(int(id)*r.lmin, (int(id)+1)*r.lmin)
			}
		}
		r.stats.PeakStatePaths = max(r.stats.PeakStatePaths, int64(r.heaps.held))
	}
	return nil
}

// sweepBounds sets bound[id] = max(0, max over id's out-edges of hop
// score + bound[child]), last interval first: the best any suffix from
// id can add, the empty one included.
func (r *ratioRun) sweepBounds() {
	for i := r.g.NumIntervals() - 1; i >= 0; i-- {
		for _, id := range r.g.NodesAt(i) {
			u := 0.0
			for _, h := range r.g.Children(id) {
				u = max(u, r.hop(h.Weight, h.Length)+r.bound[h.Peer])
			}
			r.stats.EdgeReads += int64(len(r.g.Children(id)))
			r.bound[id] = u
		}
	}
}

// extend offers node id the edge from ph.Peer alone and every path the
// parent's heaps hold, grown across it.
//
// An offer whose key plus bound[id] is below the floor is dropped: no
// path through it can reach the final top k. That is sound because the
// final top-k all score at least zero — at the first λ every path does,
// and at a later one the previous pass's top-k do — and at least the
// k-th key of any k paths seen so far. Before a parent path's record is
// read, its key plus the hop's score stands in for the extension's key:
// the two differ by less than a grid unit, which boundSlack absorbs.
func (r *ratioRun) extend(id int64, ph clustergraph.Half) {
	r.offer(id, bare(ph.Peer), bareFP(ph.Peer), ph.Weight, ph.Length, r.key(ph.Weight, ph.Length))
	cut := r.floor - r.bound[id] - r.hop(ph.Weight, ph.Length)
	for hi := int(ph.Peer) * r.lmin; hi < (int(ph.Peer)+1)*r.lmin; hi++ {
		for j := 0; j < r.heaps.size(hi); j++ {
			e := r.heaps.at(hi, j)
			if e.weight < cut {
				r.stats.Pruned++
				continue
			}
			rec := r.slab.at(e.ref)
			w, length := rec.weight+ph.Weight, int(rec.length)+ph.Length
			r.offer(id, e.ref, e.fp, w, length, r.key(w, length))
		}
	}
}

// offer places the path growing link (fingerprint fp) by node id, of raw
// weight w and the given length and key, in its (node, capped length)
// heap and, when it qualifies, in the top-k.
func (r *ratioRun) offer(id int64, link ref, fp uint64, w float64, length int, key float64) {
	if key+r.bound[id] < r.floor {
		r.stats.Pruned++
		return
	}
	r.stats.HeapConsiders++
	r.heaps.rank(int(id)*r.lmin+min(length, r.lmin)-1, id, link, fp, key, w, length)
	if length < r.lmin {
		return
	}
	r.stats.HeapConsiders++
	r.top.rank(0, id, link, fp, key, w, length)
	if r.top.size(0) == r.top.k {
		r.floor = max(0, r.top.at(0, 0).weight) - boundSlack
	}
}

// least returns the raw weight and length of the least stable path in
// the top-k, and how many paths the top-k holds.
func (r *ratioRun) least() (w float64, l, n int) {
	n = r.top.size(0)
	for j := range n {
		rec := r.slab.at(r.top.at(0, j).ref)
		if l == 0 || rec.weight/float64(rec.length) < w/float64(l) {
			w, l = rec.weight, int(rec.length)
		}
	}
	return w, l, n
}

// answer ranks the top-k by stability, raw weight over length, exactly
// as the oracle computes it.
func (r *ratioRun) answer() []topk.Path {
	out := topk.NewK(r.top.k)
	for _, e := range r.top.entries(r.top.heaps[0]) {
		rec := r.slab.at(e.ref)
		out.Consider(topk.Path{
			Nodes:  r.top.refNodes(make([]int64, 0, rec.hops), e.ref),
			Length: int(rec.length),
			Weight: rec.weight / float64(rec.length),
		})
	}
	return out.Items()
}
