package clustergraph

import (
	"cmp"
	"math"
	"slices"
)

// The solve index: what the stable-cluster solvers (internal/core) read
// of a graph that depends on the graph alone — not on k, not on the
// solver, and for the suffix table not on l below its depth. Each part
// is built on its first request, under the graph's lock, and published
// as an immutable slice that every later solve shares; a caller keeps
// the slice it was handed. A graph from ExtendCtx starts with an empty
// index, so no solve on it reads a part swept over the old generation.
//
// Memory per graph: N·(D+1) float64s for the suffix table of depth D
// (D ≤ m−1), N each for the full-path U and the prefix P, one Edge per
// edge for the sorted lists, and one int64 per start node for each
// length l a start order was asked for.

// Edge is one edge of the graph, From in the earlier interval.
type Edge struct {
	From, To int64
	Weight   float64
}

// SuffixWeights returns the table of U_r(v), the weight of the heaviest
// path of temporal length exactly r that starts at v (−Inf when there
// is none, U_0 = 0), at u[v*stride+r] for every r ≤ depth. The table
// holds the deepest depth asked so far (stride−1 ≥ depth): U_r(v) does
// not depend on the depth it was swept to, so a shallower request reads
// the deeper table and a deeper one replaces it. The sweep runs last
// interval first in O(E·depth).
func (g *Graph) SuffixWeights(depth int) (u []float64, stride int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.suffixLocked(depth)
}

// suffixLocked is SuffixWeights with g.mu held.
func (g *Graph) suffixLocked(depth int) (u []float64, stride int) {
	if g.suffix == nil || depth > g.suffixDepth {
		g.suffix, g.suffixDepth = g.sweepSuffixes(depth), depth
	}
	return g.suffix, g.suffixDepth + 1
}

func (g *Graph) sweepSuffixes(depth int) []float64 {
	span := depth + 1
	u := make([]float64, g.NumNodes()*span)
	for i := g.m - 1; i >= 0; i-- {
		room := min(depth, g.m-1-i)
		for _, v := range g.intervals[i] {
			uv := u[int(v)*span : (int(v)+1)*span]
			for r := 1; r <= depth; r++ {
				uv[r] = math.Inf(-1)
			}
			for _, h := range g.children[v] {
				uc := u[int(h.Peer)*span:]
				for r := h.Length; r <= room; r++ {
					uv[r] = max(uv[r], h.Weight+uc[r-h.Length])
				}
			}
		}
	}
	return u
}

// ToEndWeights returns U(v), the weight of the heaviest path from v to
// the last interval (−Inf when there is none, 0 on the last interval),
// at index v: U_{m−1−i}(v) for v in interval i, one value per node. It
// is swept last interval first in O(E).
func (g *Graph) ToEndWeights() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.toEndLocked()
}

// toEndLocked is ToEndWeights with g.mu held.
func (g *Graph) toEndLocked() []float64 {
	if g.toEnd == nil {
		u := make([]float64, g.NumNodes())
		for i := g.m - 1; i >= 0; i-- {
			for _, v := range g.intervals[i] {
				best := math.Inf(-1)
				if i == g.m-1 {
					best = 0
				}
				for _, h := range g.children[v] {
					best = max(best, h.Weight+u[h.Peer])
				}
				u[v] = best
			}
		}
		g.toEnd = u
	}
	return g.toEnd
}

// FromStartWeights returns P(v), the weight of the heaviest path from
// interval 0 to v (−Inf when there is none, 0 on interval 0), at index
// v: the forward twin of ToEndWeights, swept first interval first in
// O(E).
func (g *Graph) FromStartWeights() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fromStart == nil {
		p := make([]float64, g.NumNodes())
		for i := 0; i < g.m; i++ {
			for _, v := range g.intervals[i] {
				best := math.Inf(-1)
				if i == 0 {
					best = 0
				}
				for _, h := range g.parents[v] {
					best = max(best, p[h.Peer]+h.Weight)
				}
				p[v] = best
			}
		}
		g.fromStart = p
	}
	return g.fromStart
}

// StartOrder returns, for each interval i ≤ m−1−l, the nodes of
// interval i that start a path of temporal length exactly l (U_l
// finite), heaviest U_l first, ties by ascending id: lists[i]. U_l is
// SuffixWeights' value, and for l = m−1 ToEndWeights' on interval 0.
// So the nodes of interval i whose U_l reaches a floor are a prefix of
// lists[i]. The lists share one backing array; they are built on the
// first request for l in O(N log N), sorting (U, id) pairs.
func (g *Graph) StartOrder(l int) [][]int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.starts == nil {
		g.starts = make([][][]int64, g.m)
	}
	if g.starts[l] == nil {
		g.starts[l] = g.sortStarts(l)
	}
	return g.starts[l]
}

func (g *Graph) sortStarts(l int) [][]int64 {
	type start struct {
		u  float64
		id int64
	}
	var u []float64
	stride := 1
	if l == g.m-1 {
		u = g.toEndLocked()
	} else {
		u, stride = g.suffixLocked(l)
		u = u[l:]
	}
	n := 0
	for i := 0; i <= g.m-1-l; i++ {
		n += len(g.intervals[i])
	}
	pairs := make([]start, 0, n)
	for i := 0; i <= g.m-1-l; i++ {
		for _, v := range g.intervals[i] {
			if uv := u[int(v)*stride]; !math.IsInf(uv, -1) {
				pairs = append(pairs, start{uv, v})
			}
		}
	}
	all := make([]int64, len(pairs))
	lists := make([][]int64, g.m-l)
	at := 0
	for i := range lists {
		end := at
		for end < len(pairs) && g.interval[pairs[end].id] == i {
			end++
		}
		run := pairs[at:end]
		slices.SortFunc(run, func(a, b start) int {
			// U is never NaN. Spelled out, this runs 1.7× as fast as
			// cmp.Or(cmp.Compare(b.u, a.u), cmp.Compare(a.id, b.id)).
			switch {
			case a.u > b.u || a.u == b.u && a.id < b.id:
				return -1
			case a.id == b.id:
				return 0
			}
			return 1
		})
		for j, p := range run {
			all[at+j] = p.id
		}
		lists[i] = all[at:end:end]
		at = end
	}
	return lists
}

// PairEdges returns the edges grouped by interval pair, the lists of
// Section 4.4's threshold algorithm: the pair (i, i+d), 1 ≤ d ≤ gap+1,
// is lists[i*(gap+1)+d−1], sorted by weight descending, then From, then
// To — a strict total order, as an edge joins a pair of nodes at most
// once. Pairs that run past the last interval are empty. The lists
// share one backing array of E entries.
func (g *Graph) PairEdges() [][]Edge {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pairEdges == nil {
		span := g.gap + 1
		sizes := make([]int, g.m*span)
		for i := 0; i < g.m; i++ {
			for _, u := range g.intervals[i] {
				for _, h := range g.children[u] {
					sizes[i*span+h.Length-1]++
				}
			}
		}
		all := make([]Edge, g.edges)
		lists := make([][]Edge, len(sizes))
		at := 0
		for li, n := range sizes {
			lists[li] = all[at : at : at+n]
			at += n
		}
		for i := 0; i < g.m; i++ {
			for _, u := range g.intervals[i] {
				for _, h := range g.children[u] {
					li := i*span + h.Length - 1
					lists[li] = append(lists[li], Edge{From: u, To: h.Peer, Weight: h.Weight})
				}
			}
		}
		for _, list := range lists {
			slices.SortFunc(list, heaviestFirst)
		}
		g.pairEdges = lists
	}
	return g.pairEdges
}

// heaviestFirst is the PairEdges order.
func heaviestFirst(a, b Edge) int {
	return cmp.Or(cmp.Compare(b.Weight, a.Weight), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}
