package core

import (
	"context"

	"repro/internal/clustergraph"
	"repro/internal/topk"
)

// solveBFS solves the kl-stable-clusters problem with Algorithm 2:
// process intervals left to right, keeping the nodes of the previous
// g+1 intervals (with their heaps) in memory, and annotate every node
// cij with heaps h^x_ij of the top-k subpaths of each length x ≤ l
// ending there. The global heap H accumulates the top-k paths of length
// exactly l. An offer that the suffix bound (bound.go) shows cannot
// reach the top k is dropped before any heap sees it: every prefix of a
// final top-k path survives, and a heap offered a subset of its offers
// still keeps each one it would have ranked in its top k.
func solveBFS(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	l, err := req.resolveL(g)
	if err != nil {
		return nil, err
	}
	r := newBFSRun(g, req, l)
	for i := 0; i < g.NumIntervals(); i++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		r.processInterval(i)
	}
	return &Result{Paths: r.global.Items(), Stats: r.stats}, nil
}

// bfsRun carries the state of one BFS execution.
type bfsRun struct {
	g        *clustergraph.Graph
	l        int
	fullPath bool

	// Paths live in slab; heaps indexes the h^x of node id at
	// id*perNode + x−1. In full-path mode perNode is 1: a node's one
	// heap holds x = interval(node).
	slab    slab
	heaps   *pathHeaps
	perNode int
	global  *topk.K
	bound   suffixBound
	floor   float64 // bound.floor of the global threshold
	stats   Stats

	nodes []int64 // scratch for global offers
}

func newBFSRun(g *clustergraph.Graph, req Request, l int) *bfsRun {
	r := &bfsRun{
		g:        g,
		l:        l,
		fullPath: l == g.NumIntervals()-1 && !req.disableFullPathFastPath,
		perNode:  l,
		global:   topk.NewK(req.K),
	}
	if r.fullPath {
		r.perNode = 1
	}
	r.bound = newSuffixBound(g, req, l, &r.stats)
	r.floor = r.bound.floor(r.global.Threshold())
	r.heaps = newPathHeaps(&r.slab, req.K, g.NumNodes()*r.perNode)
	r.heaps.reuse = true
	return r
}

// processInterval computes heaps for every node of interval i, using
// the heaps of the previous g+1 intervals, then evicts intervals that
// fall out of the window (Algorithm 2 lines 2–18). The cluster graph
// links a node only to nodes at most g+1 intervals before it, so every
// parent is in the window.
func (r *bfsRun) processInterval(i int) {
	// "Read Gi' in memory": the window nodes were computed in earlier
	// iterations and retained; the read cost the paper accounts is one
	// node-state read per window node per interval processed.
	for j := max(i-r.g.Gap()-1, 0); j < i; j++ {
		r.stats.NodeReads += int64(len(r.g.NodesAt(j)))
	}
	for _, id := range r.g.NodesAt(i) {
		for _, ph := range r.g.Parents(id) {
			r.stats.EdgeReads++
			r.extend(id, ph)
		}
		// "save cij along with h^x_ij to disk" (line 17).
		r.stats.NodeWrites++
	}
	r.evict(i)
	r.stats.PeakStatePaths = max(r.stats.PeakStatePaths, int64(r.heaps.held))
}

// extend merges parent ph's heaps into node id's heaps across the edge
// (Algorithm 2 lines 7–14). The parent's heaps are read in place; a
// candidate is a weight, a length and a link until a heap admits it.
// Each parent entry is held to the suffix bound's cut before anything
// else is read; one that misses it counts as Pruned.
func (r *bfsRun) extend(id int64, ph clustergraph.Half) {
	peer := int(ph.Peer)
	// The edge alone is a path of length ph.Length (the implicit h^0 =
	// {empty path} case). In full-path mode only prefixes that started
	// at interval 0 can grow into full paths, so the edge counts only
	// from there; everything a heap then holds started there too. This
	// is the paper's "one heap per node suffices" optimization —
	// temporal lengths make length(p) == interval(id) automatic.
	if (!r.fullPath || r.g.Interval(ph.Peer) == 0) && ph.Length <= r.l {
		if ph.Weight < r.bound.need(id, r.l-ph.Length, r.floor) {
			r.stats.Pruned++
		} else {
			r.offer(id, bare(ph.Peer), bareFP(ph.Peer), ph.Weight, ph.Length)
		}
	}
	for x := 1; x <= r.perNode; x++ {
		length := x + ph.Length
		if r.fullPath {
			length = r.g.Interval(id)
		}
		if length > r.l {
			break
		}
		hi := peer*r.perNode + x - 1
		if r.heaps.size(hi) == 0 {
			continue
		}
		cut := r.bound.need(id, r.l-length, r.floor) - ph.Weight
		for j := 0; j < r.heaps.size(hi); j++ {
			e := r.heaps.at(hi, j)
			if e.weight < cut {
				r.stats.Pruned++
				continue
			}
			r.offer(id, e.ref, e.fp, e.weight+ph.Weight, length)
		}
	}
}

// offer places the path growing link (fingerprint linkFP) by node id
// into the appropriate h^x heap and, when it has length exactly l, into
// the global heap.
func (r *bfsRun) offer(id int64, link ref, linkFP uint64, weight float64, length int) {
	hi := int(id) * r.perNode
	if !r.fullPath {
		hi += length - 1
	}
	r.stats.HeapConsiders++
	r.heaps.consider(hi, id, link, linkFP, weight, length)
	if length == r.l {
		r.stats.HeapConsiders++
		if weight >= r.global.Threshold() {
			r.nodes = r.heaps.nodes(r.nodes[:0], id, link)
			offerGlobal(r.global, r.nodes, weight, length)
			r.floor = r.bound.floor(r.global.Threshold())
		}
	}
}

// evict drops heaps of nodes that can no longer be parents ("Gi−g−1 is
// discarded").
func (r *bfsRun) evict(i int) {
	old := i - r.g.Gap() - 1
	if old < 0 {
		return
	}
	for _, id := range r.g.NodesAt(old) {
		r.heaps.release(int(id)*r.perNode, (int(id)+1)*r.perNode)
	}
}
