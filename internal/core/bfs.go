package core

import (
	"context"
	"math"
	"slices"

	"repro/internal/clustergraph"
)

// solveBFS solves the kl-stable-clusters problem with Algorithm 2,
// driven forward: process intervals left to right and annotate every
// node cij with heaps h^x_ij of the top-k subpaths of each length x ≤ l
// ending there. Every parent of a node sits in an earlier interval, so
// a node's heaps are complete once the intervals before its own are
// pushed; it then pushes them across its child edges and releases them.
// The global heap H accumulates the top-k paths of length exactly l.
// An offer that the suffix bound (bound.go) shows cannot reach the top
// k is dropped before any heap sees it: every prefix of a final top-k
// path survives, and a heap offered a subset of its offers still keeps
// each one it would have ranked in its top k.
func solveBFS(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	l, err := req.resolveL(g)
	if err != nil {
		return nil, err
	}
	w := takeWorkspace()
	defer w.release()
	r := newBFSRun(w, g, req, l, l)
	if err := r.run(ctx, l, 1); err != nil {
		return nil, err
	}
	return &Result{Paths: r.top.items(0), Stats: r.stats}, nil
}

// bfsRun carries the state of BFS executions, one length at a time.
type bfsRun struct {
	// The workspace's slab holds the paths; its heaps index the h^x of
	// the node in slot s at s*perNode + x−1, where a node gets its slot
	// on its first admission. In full-path mode perNode is 1: a node's
	// one heap holds x = interval(node). top is the global heap H,
	// ranked by weight/per. cand is the scratch for an interval's
	// candidates.
	*workspace

	g        *clustergraph.Graph
	req      Request
	l        int
	per      float64 // the global heap ranks a path by weight/per
	fullPath bool

	perNode int
	bound   suffixBound
	floor   float64 // bound.floor of per times the global threshold
	stats   Stats
}

// newBFSRun sets up runs in w for the lengths lo..hi: the slot table
// and the heap spans are sized once, for the longest.
func newBFSRun(w *workspace, g *clustergraph.Graph, req Request, lo, hi int) *bfsRun {
	r := &bfsRun{workspace: w, g: g, req: req}
	// Slots for 2k(l+1) nodes, doubled whenever a solve touches more. A
	// solve touches at most 0.96·k(l+1) nodes on synthetic 10 × {100,
	// 1 000, 4 000} graphs (k 1, 5 and 40; l 1, 3, 6 and 9), and up to
	// 29·k(l+1) on the recurring corpora at k 40 and l 1.
	slots := max(min(2*req.K*(hi+1), g.NumNodes()), 1)
	r.slots.resize(slots)
	if cap(r.cand) < slots {
		r.cand = make([]int64, 0, slots)
	}
	perNode := 1
	for l := lo; l <= hi; l++ {
		if l < g.NumIntervals()-1 || req.disableFullPathFastPath {
			perNode = l
		}
	}
	r.slab.reset()
	r.heaps.reset(&r.slab, req.K, 0)
	r.heaps.reserve(slots * perNode)
	r.heaps.reuse = true
	r.top.reset(&r.slab, req.K, 1)
	r.top.reuse = true
	return r
}

// run pushes every interval for paths of length l, offering the global
// heap each one ranked by its weight/per.
func (r *bfsRun) run(ctx context.Context, l int, per float64) error {
	r.start(l, per)
	for i := range r.g.NumIntervals() {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		r.pushInterval(i)
	}
	return nil
}

// start arms r for paths of length l. A run ends with every node heap
// released, so only the slot table is cleared; the slab keeps the
// global heap's paths, and Stats go on counting.
func (r *bfsRun) start(l int, per float64) {
	r.l, r.per = l, per
	r.fullPath = l == r.g.NumIntervals()-1 && !r.req.disableFullPathFastPath
	r.perNode = l
	if r.fullPath {
		r.perNode = 1
	}
	r.slots.reset()
	r.bound = newSuffixBound(r.g, r.req, l, r.seeds(r.req.K))
	r.setFloor()
}

// setFloor sets the floor from the global heap's k-th rank: a path of
// length l must weigh that times per to enter it.
func (r *bfsRun) setFloor() {
	t := math.Inf(-1)
	if r.top.size(0) == r.top.k {
		t = r.top.at(0, 0).weight * r.per
	}
	r.floor = r.bound.floor(t)
}

// pushInterval pushes every live node of interval i across its child
// edges (Algorithm 2 lines 7–14, turned around) and releases its heaps.
// Nodes are pushed in ascending id, so each heap still takes its offers
// in ascending parent id; a node that is not live has nothing to push
// and reads no edge.
func (r *bfsRun) pushInterval(i int) {
	// "Read Gi' in memory": the read cost the paper accounts is one
	// node-state read per node of the g+1 intervals before i.
	for j := max(i-r.g.Gap()-1, 0); j < i; j++ {
		r.stats.NodeReads += int64(len(r.g.NodesAt(j)))
	}
	// "save cij along with h^x_ij to disk" (line 17), for every node.
	r.stats.NodeWrites += int64(len(r.g.NodesAt(i)))
	for _, id := range r.candidates(i) {
		if r.live(id) {
			for _, ch := range r.g.Children(id) {
				r.stats.EdgeReads++
				r.extend(id, ch)
			}
			if lo, hi, ok := r.heapRange(id); ok {
				r.heaps.release(lo, hi)
			}
		}
	}
	r.stats.PeakStatePaths = max(r.stats.PeakStatePaths, int64(r.heaps.held))
}

// candidates returns, in ascending id, the nodes of interval i that may
// be live at their turn: those holding a heap, and the start nodes whose
// U_l reaches the floor now, a prefix of the graph's start order. Any
// other node fails live() when its turn comes: its heaps are final
// before interval i is pushed, since every edge spans at least one
// interval, and the floor only rises. So pushing the live candidates in
// ascending id makes exactly the pushes a scan of every node would. The
// reference (disableSuffixBound) pushes every node.
func (r *bfsRun) candidates(i int) []int64 {
	if !r.bound.on {
		return r.g.NodesAt(i)
	}
	c := r.cand[:0]
	for _, id := range r.slots.ids {
		if r.g.Interval(id) == i {
			c = append(c, id)
		}
	}
	if i < len(r.bound.starts) {
		for _, id := range r.bound.starts[i] {
			if r.bound.rest(id, r.l) < r.floor {
				break
			}
			c = append(c, id)
		}
	}
	slices.Sort(c)
	r.cand = slices.Compact(c)
	return r.cand
}

// live reports whether node id has anything to push: a heap holding a
// path, or a path of length l that can start at it and reach the floor
// (U_l(id) ≥ floor; for full paths U_l is −Inf off interval 0). A node
// that fails both would see need() drop every bare edge it offers,
// since the floor already carries the bound's slack. The reference
// (disableSuffixBound) pushes every node.
func (r *bfsRun) live(id int64) bool {
	if !r.bound.on {
		return true
	}
	if u := r.bound.rest(id, r.l); !math.IsInf(u, -1) && u >= r.floor {
		return true
	}
	if lo, hi, ok := r.heapRange(id); ok {
		for h := lo; h < hi; h++ {
			if r.heaps.size(h) > 0 {
				return true
			}
		}
	}
	return false
}

// heapRange returns the heaps lo..hi−1 of node id, ok false while it has
// none: no offer has reached it yet.
func (r *bfsRun) heapRange(id int64) (lo, hi int, ok bool) {
	s, ok := r.slots.find(id)
	return s * r.perNode, (s + 1) * r.perNode, ok
}

// extend offers node id's heaps to child ch.Peer across the edge. The
// heaps are read in place; a candidate is a weight, a length and a link
// until a heap admits it. Each entry is held to the suffix bound's cut
// at the child before anything else is read; one that misses it counts
// as Pruned.
func (r *bfsRun) extend(id int64, ch clustergraph.Half) {
	child := ch.Peer
	// The edge alone is a path of length ch.Length (the implicit h^0 =
	// {empty path} case). In full-path mode only prefixes that started
	// at interval 0 can grow into full paths, so the edge counts only
	// from there; everything a heap then holds started there too. This
	// is the paper's "one heap per node suffices" optimization —
	// temporal lengths make length(p) == interval(child) automatic.
	if (!r.fullPath || r.g.Interval(id) == 0) && ch.Length <= r.l {
		if ch.Weight < r.bound.need(child, r.l-ch.Length, r.floor) {
			r.stats.Pruned++
		} else {
			r.offer(child, bare(id), bareFP(id), ch.Weight, ch.Length)
		}
	}
	lo, _, ok := r.heapRange(id)
	for x := 1; ok && x <= r.perNode; x++ {
		length := x + ch.Length
		if r.fullPath {
			length = r.g.Interval(child)
		}
		if length > r.l {
			break
		}
		hi := lo + x - 1
		if r.heaps.size(hi) == 0 {
			continue
		}
		cut := r.bound.need(child, r.l-length, r.floor) - ch.Weight
		for j := 0; j < r.heaps.size(hi); j++ {
			e := r.heaps.at(hi, j)
			if e.weight < cut {
				r.stats.Pruned++
				continue
			}
			r.offer(child, e.ref, e.fp, e.weight+ch.Weight, length)
		}
	}
}

// offer places the path growing link (fingerprint linkFP) by node id
// into the appropriate h^x heap and, when it has length exactly l, into
// the global heap.
func (r *bfsRun) offer(id int64, link ref, linkFP uint64, weight float64, length int) {
	hi := r.slots.slot(id) * r.perNode
	r.heaps.reserve(cap(r.slots.ids) * r.perNode)
	if !r.fullPath {
		hi += length - 1
	}
	r.stats.HeapConsiders++
	r.heaps.consider(hi, id, link, linkFP, weight, length)
	if length == r.l {
		r.stats.HeapConsiders++
		r.top.consider(0, id, link, linkFP, weight/r.per, length)
		r.setFloor()
	}
}
