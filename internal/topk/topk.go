// Package topk provides weighted cluster-graph paths and fixed-capacity
// top-k heaps.
//
// These are the h^x_ij per-node heaps and the global heap H of
// Algorithm 2, the bestpaths structures of Algorithm 3, and the
// intermediate result buffer of the TA adaptation (Section 4.4). A heap
// retains the k highest-weight paths seen; "checking a path against a
// heap" (the paper's phrase) is Consider.
package topk

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Path is a path in the cluster graph. Nodes are cluster-node ids in
// temporal order; Length is the temporal length (sum of edge lengths,
// where an edge spanning a gap counts its full interval distance);
// Weight is the aggregated affinity along the path.
type Path struct {
	Nodes  []int64 `json:"nodes"`
	Length int     `json:"length"`
	Weight float64 `json:"weight"`
}

// Append returns a new path extending p by one edge to node, with edge
// length edgeLen and edge weight w. p is not modified; the node slice is
// copied so heap entries never alias caller state.
func (p Path) Append(node int64, edgeLen int, w float64) Path {
	nodes := make([]int64, len(p.Nodes), len(p.Nodes)+1)
	copy(nodes, p.Nodes)
	return Path{
		Nodes:  append(nodes, node),
		Length: p.Length + edgeLen,
		Weight: p.Weight + w,
	}
}

// Stability is weight normalized by length (Section 4.5). Zero-length
// paths have zero stability.
func (p Path) Stability() float64 {
	if p.Length == 0 {
		return 0
	}
	return p.Weight / float64(p.Length)
}

// String renders the path for logs and goldens, e.g. "c1→c5→c9 (w=1.50, l=2)".
func (p Path) String() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteString("→")
		}
		fmt.Fprintf(&b, "c%d", n)
	}
	fmt.Fprintf(&b, " (w=%.3f, l=%d)", p.Weight, p.Length)
	return b.String()
}

// Better reports whether a should outrank b in a top-k result: higher
// weight wins; ties break toward the lexicographically smaller node
// sequence so results are deterministic.
func Better(a, b Path) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	return lexLess(a.Nodes, b.Nodes)
}

func lexLess(a, b []int64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// K is a fixed-capacity collection of the k best paths seen so far,
// implemented as a min-heap keyed by Better so the worst retained path
// is evictable in O(log k). The zero value is unusable; call NewK.
type K struct {
	k     int
	items pathHeap
}

// NewK returns an empty top-k collector. k must be positive.
func NewK(k int) *K {
	if k <= 0 {
		panic(fmt.Sprintf("topk: k must be positive, got %d", k))
	}
	return &K{k: k, items: make(pathHeap, 0, k)}
}

// Consider offers p; it is retained iff it ranks among the k best seen
// and is not already present. Duplicate suppression matters because the
// DFS algorithm can rediscover a path after visited flags are unmarked
// (Section 4.3) and a duplicate must not occupy two of the k slots.
// When the duplicate outranks the retained copy (rediscoveries may
// carry weights differing in the last ulp; see indexOf), the retained
// copy is replaced, so the surviving representative — and therefore the
// final ordering — does not depend on the order paths were offered.
// Reports whether p was retained (replacement counts as retained).
func (t *K) Consider(p Path) bool {
	if i := t.indexOf(p); i >= 0 {
		if !Better(p, t.items[i]) {
			return false
		}
		t.items[i] = p
		heap.Fix(&t.items, i)
		return true
	}
	if t.items.Len() < t.k {
		heap.Push(&t.items, p)
		return true
	}
	if Better(p, t.items[0]) {
		t.items[0] = p
		heap.Fix(&t.items, 0)
		return true
	}
	return false
}

// indexOf returns the heap index of the retained path with the same
// node sequence, or -1. The node sequence alone identifies a path — two
// discoveries of it may carry weights differing in the last ulp when
// algorithms sum edge weights in different orders (TA assembles
// prefix+edge+suffix, DFS prepends, BFS appends), so weights must not
// participate in the identity check. Linear in k, which is small.
func (t *K) indexOf(p Path) int {
	for j, q := range t.items {
		if len(q.Nodes) != len(p.Nodes) {
			continue
		}
		same := true
		for i := range q.Nodes {
			if q.Nodes[i] != p.Nodes[i] {
				same = false
				break
			}
		}
		if same {
			return j
		}
	}
	return -1
}

// Len returns the number of retained paths (≤ k).
func (t *K) Len() int { return t.items.Len() }

// Cap returns k.
func (t *K) Cap() int { return t.k }

// Threshold returns the weight of the worst retained path when the
// collector is full, and -Inf otherwise. Pruning rules (CanPrune in
// Algorithm 3, the TA stopping rule) compare candidate upper bounds
// against this value; while the collector is not full nothing may be
// pruned, hence -Inf.
func (t *K) Threshold() float64 {
	if t.items.Len() < t.k {
		return math.Inf(-1)
	}
	return t.items[0].Weight
}

// Floor returns the worst retained path and true when the collector is
// full: a path that is not Better than it cannot be retained. Callers
// that build paths lazily probe the floor before materializing one.
func (t *K) Floor() (Path, bool) {
	if t.items.Len() < t.k {
		return Path{}, false
	}
	return t.items[0], true
}

// Items returns the retained paths, best first. The collector is not
// modified.
func (t *K) Items() []Path {
	out := make([]Path, len(t.items))
	copy(out, t.items)
	slices.SortFunc(out, Compare)
	return out
}

// Compare orders paths best first under Better, for slices.SortFunc.
func Compare(a, b Path) int {
	if Better(a, b) {
		return -1
	}
	if Better(b, a) {
		return 1
	}
	return 0
}

// Weights returns the retained weights, best first.
func (t *K) Weights() []float64 {
	items := t.Items()
	ws := make([]float64, len(items))
	for i, p := range items {
		ws[i] = p.Weight
	}
	return ws
}

// pathHeap is a min-heap under Better (the root is the *worst* path).
type pathHeap []Path

func (h pathHeap) Len() int            { return len(h) }
func (h pathHeap) Less(i, j int) bool  { return Better(h[j], h[i]) }
func (h pathHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pathHeap) Push(x interface{}) { *h = append(*h, x.(Path)) }
func (h *pathHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
