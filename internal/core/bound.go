package core

import (
	"math"

	"repro/internal/clustergraph"
)

// suffixBound is the exact suffix bound BFS, DFS and TA prune with. It
// reads U_r(v), the weight of the heaviest path of temporal length
// exactly r that starts at v (−Inf when there is none, U_0 = 0), from
// the graph's solve index (clustergraph/solveindex.go), which sweeps it
// once per graph and shares it with every solve. For full paths (l =
// m−1) a prefix ending at v can only go on to the last interval, so one
// value per node is read: U_{m−1−i}(v), the heaviest path from v to the
// last interval. None of it depends on the request, so a solve's Stats
// do not count the sweeps' edge reads, and a solve on a warm graph
// counts exactly what one on a fresh graph does.
//
// Per solve it seeds a floor F, the k-th largest U_l(s) over the nodes s
// a sought path can start at, from the index's start order, which lists
// each interval's start nodes heaviest U_l first: F is the k-th largest
// of the first k of each list, O(m·k). Those are the weights of k real
// paths with distinct first nodes, so the k-th answer weighs at least F,
// as it weighs at least the k-th weight any solver has seen so far. A
// path through a prefix of weight w ending at v, of length x, weighs at
// most w + U_{l−x}(v); when that is below both lower bounds, no final
// top-k path has the prefix. The test allows a relative slack of 1e-9:
// U sums a path last hop first, the solvers first hop first, and the two
// may differ in the last bits.
type suffixBound struct {
	g      *clustergraph.Graph
	full   bool
	u      []float64 // U_r(v) at v*stride+r; for full paths U(v) at v
	stride int
	starts [][]int64 // the graph's start order for length l
	p      []float64 // P(v), full paths only, once withPrefixes has run
	f      float64   // the seeded floor F
	on     bool      // false: the unbounded reference (disableSuffixBound)
}

// newSuffixBound reads g's suffix weights for paths of length l and
// seeds the floor for a top-k of size k, in scratch when its capacity
// holds min(k, N) weights.
func newSuffixBound(g *clustergraph.Graph, req Request, l int, scratch []float64) suffixBound {
	b := suffixBound{g: g, full: l == g.NumIntervals()-1, f: math.Inf(-1), on: !req.disableSuffixBound}
	if b.on {
		b.seed(req.K, l, scratch)
	}
	return b
}

// seed reads the graph's suffix weights and start order for paths of
// temporal length l and sets the floor F: the k-th largest U_l(s) over
// the nodes s that start such a path, −Inf when fewer than k do. Only
// the first k start nodes of each interval can be among the k largest.
func (b *suffixBound) seed(k, l int, scratch []float64) {
	if b.full {
		b.u = b.g.ToEndWeights()
	} else {
		b.u, b.stride = b.g.SuffixWeights(l)
	}
	b.starts = b.g.StartOrder(l)
	top := scratch[:0]
	if n := min(k, b.g.NumNodes()); cap(top) < n {
		top = make([]float64, 0, n)
	}
	for _, list := range b.starts {
		for _, s := range list[:min(k, len(list))] {
			top = keepLargest(top, k, b.rest(s, l))
		}
	}
	b.f = math.Inf(-1)
	if len(top) == k {
		b.f = top[0]
	}
}

// rest returns U_r(v).
func (b *suffixBound) rest(v int64, r int) float64 {
	if b.full {
		if r != b.g.NumIntervals()-1-b.g.Interval(v) {
			return math.Inf(-1)
		}
		return b.u[v]
	}
	return b.u[int(v)*b.stride+r]
}

// withPrefixes adds, for TA, the forward twin of the full-path weights:
// P(v), the weight of the heaviest path from interval 0 to v (−Inf when
// there is none, 0 on interval 0), from the same index. A full path
// through the edge (u, v) of weight w then weighs at most
// P(u) + w + U(v).
func (b *suffixBound) withPrefixes() {
	if b.on {
		b.p = b.g.FromStartWeights()
	}
}

// toEnd returns U(v) of a full-path bound: +Inf for the reference, so
// that no bound built from it falls below a floor.
func (b *suffixBound) toEnd(v int64) float64 {
	if !b.on {
		return math.Inf(1)
	}
	return b.u[v]
}

// fromStart returns P(v), +Inf for the reference as toEnd does.
func (b *suffixBound) fromStart(v int64) float64 {
	if !b.on {
		return math.Inf(1)
	}
	return b.p[v]
}

// floor returns what a path's bound must reach, given the k-th weight
// seen so far (−Inf while fewer than k are known): the larger of that
// and F, less the slack. The reference uses the threshold as it is.
func (b *suffixBound) floor(threshold float64) float64 {
	if !b.on {
		return threshold
	}
	t := max(b.f, threshold)
	return t - 1e-9*max(1, math.Abs(t))
}

// need returns the least weight a path ending at v must have for some
// continuation of temporal length r to reach floor: +Inf when v starts
// no such continuation, −Inf for the reference, which drops nothing.
func (b *suffixBound) need(v int64, r int, floor float64) float64 {
	if !b.on {
		return math.Inf(-1)
	}
	u := b.rest(v, r)
	if math.IsInf(u, -1) {
		return math.Inf(1)
	}
	return floor - u
}

// keepLargest offers v to h, a min-heap holding the (up to) k largest
// values offered so far, and returns it.
func keepLargest(h []float64, k int, v float64) []float64 {
	if len(h) < k {
		h = append(h, v)
		for j := len(h) - 1; j > 0 && h[(j-1)/2] > h[j]; j = (j - 1) / 2 {
			h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
		}
		return h
	}
	if v <= h[0] {
		return h
	}
	h[0] = v
	for j := 0; ; {
		c := 2*j + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[j] <= h[c] {
			break
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
	return h
}
