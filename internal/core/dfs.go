package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/clustergraph"
	"repro/internal/topk"
)

// sourceID is the virtual source node pushed first (Section 4.3 "start
// by pushing the source node"). Its edges have weight and length zero.
const sourceID int64 = -1

// solveDFS solves the kl-stable-clusters problem with Algorithm 3: a
// depth-first traversal that annotates every node with maxweight (the
// best known prefix weight per prefix length, used for pruning) and
// bestpaths (top-k paths of each length starting at the node, built
// while backtracking). The paper reads a node's state from storage on
// each push and writes it back on each pop, so that memory holds only
// the stack; here every node's state stays in memory and Stats counts
// those reads and writes.
//
// Two deliberate deviations from the pseudocode. CanPrune bounds the
// rest of a path by the exact suffix bound (bound.go) instead of the
// paper's one unit of weight per remaining interval, and holds it to the
// bound's seeded floor as well as the current top-k threshold; the bound
// holds for any weights, so the paper's (0,1] precondition is gone. And
// CanPrune also considers prefix length x = 0 (with maxweight 0) whenever
// a sought path could *start* at the candidate node. The paper's x-range
// starts at 1, which can discard subtrees that are unreachable through
// any worthwhile prefix yet still host high-weight paths starting inside
// them; the extra case keeps the algorithm exact for subpath queries
// (verified against brute force in the tests).
func solveDFS(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	l, err := req.resolveL(g)
	if err != nil {
		return nil, err
	}
	w := takeWorkspace()
	defer w.release()
	r := newDFSRun(ctx, w, g, req, l)
	if err := r.run(); err != nil {
		return nil, err
	}
	return &Result{Paths: r.global.Items(), Stats: r.stats}, nil
}

// dfsRun carries the state of one DFS execution. Per-node state — what
// Algorithm 3 keeps on disk — lives in the workspace's slices indexed
// by node id:
//
//   - visited, and everPushed, which distinguishes first explorations
//     from re-explorations after visited-flag unmarking
//     (Stats.Repushes);
//   - maxweight of (id, x) at id*(l+1)+x; -Inf while no prefix of
//     length x is known. x = 0 is always 0: the empty prefix exists,
//     i.e. a path may start at the node, which seeds the conservative
//     x=0 case of CanPrune. On full paths every prefix starts at
//     interval 0, so only x = interval(id) is ever finite or read, and
//     maxweight keeps that one entry at id;
//   - bestpaths of (id, y) in heap id*l+y−1 of heaps (bestHeap), as slab
//     chains that run first node → last. On full paths only y =
//     m−1−interval(id) is ever filled, and it is heap id. perNode is
//     the number of heaps a node has: l, or 1 on full paths.
//
// nodes is the scratch for global offers.
type dfsRun struct {
	*workspace

	g        *clustergraph.Graph
	l        int
	fullPath bool
	prune    bool
	ctx      context.Context

	perNode int
	global  *topk.K
	bound   suffixBound
	stats   Stats
}

func newDFSRun(ctx context.Context, w *workspace, g *clustergraph.Graph, req Request, l int) *dfsRun {
	n := g.NumNodes()
	r := &dfsRun{
		workspace: w,
		g:         g,
		l:         l,
		fullPath:  l == g.NumIntervals()-1,
		prune:     !req.disablePruning,
		ctx:       ctx,
		global:    topk.NewK(req.K),
		perNode:   l,
	}
	r.visited = zeroed(r.visited, n)
	r.everPushed = zeroed(r.everPushed, n)
	if r.prune {
		r.bound = newSuffixBound(g, req, l, r.seeds(req.K))
	}
	if r.fullPath {
		r.perNode = 1
		r.maxweight = zeroed(r.maxweight, n)
		for i := range r.maxweight {
			r.maxweight[i] = math.Inf(-1)
		}
		for _, id := range g.NodesAt(0) {
			r.maxweight[id] = 0
		}
	} else {
		r.maxweight = zeroed(r.maxweight, n*(l+1))
		for i := 0; i < len(r.maxweight); i += l + 1 {
			for x := 1; x <= l; x++ {
				r.maxweight[i+x] = math.Inf(-1)
			}
		}
	}
	r.slab.reset()
	r.heaps.reset(&r.slab, req.K, n*r.perNode)
	r.heaps.prepended = true
	return r
}

// dfsFrame is one stack entry: a node plus its remaining children list.
type dfsFrame struct {
	node     int64
	children []clustergraph.Half
	next     int
}

// sourceChildren builds the virtual source's child list: interval-0
// nodes for full-path queries, every node otherwise (a subpath may
// start anywhere).
func (r *dfsRun) sourceChildren() []clustergraph.Half {
	last := r.g.NumIntervals() - 1
	if r.fullPath {
		last = 0
	}
	n := 0
	for i := 0; i <= last; i++ {
		n += len(r.g.NodesAt(i))
	}
	hs := r.source[:0]
	if cap(hs) < n {
		hs = make([]clustergraph.Half, 0, n)
	}
	for i := 0; i <= last; i++ {
		for _, id := range r.g.NodesAt(i) {
			hs = append(hs, clustergraph.Half{Peer: id})
		}
	}
	r.source = hs
	return hs
}

// maxSteps bounds the traversal against pathological re-exploration
// loops; reaching it indicates a bug, not a big input.
func (r *dfsRun) maxSteps() int64 {
	v := int64(r.g.NumNodes()) + 1
	e := int64(r.g.NumEdges()) + int64(r.g.NumNodes()) + 1
	return 1000 * v * e
}

func (r *dfsRun) run() error {
	stack := append(r.stack[:0], dfsFrame{node: sourceID, children: r.sourceChildren()})
	defer func() { r.stack = stack[:0] }()
	var steps int64
	limit := r.maxSteps()
	const pollEvery = 4096
	for len(stack) > 0 {
		if steps++; steps > limit {
			return fmt.Errorf("core: DFS exceeded %d steps; suspected re-exploration loop", limit)
		}
		// Poll on the first step too: a small solve may take no more.
		if steps%pollEvery == 1 {
			if err := ctxErr(r.ctx); err != nil {
				return err
			}
		}
		f := &stack[len(stack)-1]
		if f.next < len(f.children) {
			edge := f.children[f.next]
			f.next++
			r.stats.EdgeReads++
			child := edge.Peer
			// Line 8: read the child's state.
			r.stats.NodeReads++
			if r.visited[child] {
				// Line 10: update bestpaths(c) using the child's info.
				if f.node != sourceID {
					r.combine(f.node, edge)
				}
				continue
			}
			r.visited[child] = true
			if r.everPushed[child] {
				r.stats.Repushes++
			}
			r.everPushed[child] = true
			r.updateMaxweight(f.node, edge)
			if r.prune && r.canPrune(child) {
				r.stats.Pruned++
				// Postpone the subtree: unmark every stacked node (the
				// all-descendants-considered guarantee is broken for
				// them) and shelve the child.
				r.visited[child] = false
				for _, fr := range stack {
					if fr.node != sourceID {
						r.visited[fr.node] = false
					}
				}
				// Line 20: write the child's state back.
				r.stats.NodeWrites++
				continue
			}
			// The graph keeps children weight-descending: the paper's
			// best-first order.
			stack = append(stack, dfsFrame{node: child, children: r.g.Children(child)})
			r.trackPeak(stack)
		} else {
			// All children considered: pop, write back (line 24),
			// propagate to parent.
			stack = stack[:len(stack)-1]
			if f.node == sourceID {
				continue
			}
			if len(stack) > 0 {
				if p := &stack[len(stack)-1]; p.node != sourceID {
					// The edge parent→f.node is the one just consumed.
					r.combine(p.node, p.children[p.next-1])
				}
			}
			r.stats.NodeWrites++
		}
	}
	return nil
}

// prefix returns maxweight(id, x).
func (r *dfsRun) prefix(id int64, x int) float64 {
	if r.fullPath {
		return r.maxweight[id]
	}
	return r.maxweight[int(id)*(r.l+1)+x]
}

// bestHeap returns the heap of bestpaths(id, y).
func (r *dfsRun) bestHeap(id int64, y int) int {
	if r.fullPath {
		return int(id)
	}
	return int(id)*r.l + y - 1
}

// updateMaxweight propagates the parent's prefix weights across the
// edge (Algorithm 3 line 16): maxweight(c',x) =
// max(maxweight(c',x), maxweight(c, x−len) + w).
func (r *dfsRun) updateMaxweight(parent int64, edge clustergraph.Half) {
	if parent == sourceID {
		return // the empty prefix is already seeded at x = 0
	}
	if r.fullPath {
		// The parent's one prefix length plus the edge's is the child's.
		r.maxweight[edge.Peer] = max(r.maxweight[edge.Peer], r.maxweight[parent]+edge.Weight)
		return
	}
	from := r.maxweight[int(parent)*(r.l+1):]
	to := r.maxweight[int(edge.Peer)*(r.l+1):]
	for x := 0; x+edge.Length <= r.l; x++ {
		// An unknown prefix (-Inf) stays unknown across the edge.
		to[x+edge.Length] = max(to[x+edge.Length], from[x]+edge.Weight)
	}
}

// canPrune implements CanPrune (Algorithm 3): the node may be shelved
// when, for every feasible prefix length x, even the best known prefix
// extended by the heaviest suffix of length l−x cannot reach the floor.
// Feasible x additionally includes 0 when a sought path can start at the
// node (see the deviation note on solveDFS).
func (r *dfsRun) canPrune(id int64) bool {
	i := r.g.Interval(id)
	m := r.g.NumIntervals()
	// Feasible prefix lengths x of a length-l path meeting this node:
	// the suffix l−x must fit in the remaining intervals and the prefix
	// within the elapsed ones. Unlike the paper's range, x = l is
	// included: at a node in the final position of a sought path the
	// whole path is the prefix and the bound degenerates to
	// maxweight(c', l) — exactly how the paper's own Table 2 trace
	// treats the interval-3 nodes.
	xmin := max(r.l-(m-1-i), 0)
	xmax := min(r.l, i)
	if xmin > xmax {
		// No length-l path can touch this node in any position.
		return true
	}
	floor := r.bound.floor(r.global.Threshold())
	if math.IsInf(floor, -1) {
		return false
	}
	for x := xmin; x <= xmax; x++ {
		// No prefix of this length known yet: -Inf, never >= floor.
		if r.prefix(id, x)+r.suffix(id, r.l-x) >= floor {
			return false
		}
	}
	return true
}

// suffix bounds the weight of a path of temporal length rem starting at
// id: U_rem(id), or, in the reference Algorithm 3, rem — one unit per
// interval, which bounds it only for weights in (0,1].
func (r *dfsRun) suffix(id int64, rem int) float64 {
	if r.bound.on {
		return r.bound.rest(id, rem)
	}
	return float64(rem)
}

// combine folds a finished child's bestpaths into the parent's
// (Algorithm 3 lines 10 and 26): every path starting at the child
// extends, via the edge, to a path starting at the parent; the edge by
// itself is also such a path. The child's heaps are read in place.
func (r *dfsRun) combine(parent int64, edge clustergraph.Half) {
	// For full paths only suffixes that end at the last interval
	// matter; the child's heaps hold nothing else, so the bare edge is
	// the one candidate to check.
	if !r.fullPath || r.g.Interval(edge.Peer) == r.g.NumIntervals()-1 {
		r.addBest(parent, bare(edge.Peer), bareFP(edge.Peer), edge.Weight, edge.Length)
	}
	ylo, yhi := 1, r.l-edge.Length
	if r.fullPath {
		// The one length a suffix from the child to the last interval
		// has; 0 on the last interval, whose heap is empty.
		ylo = r.l - r.g.Interval(edge.Peer)
		yhi = ylo
	}
	for y := max(ylo, 1); y <= yhi; y++ {
		hi := r.bestHeap(edge.Peer, y)
		for j := 0; j < r.heaps.size(hi); j++ {
			e := r.heaps.at(hi, j)
			r.addBest(parent, e.ref, e.fp, e.weight+edge.Weight, y+edge.Length)
		}
	}
}

// addBest offers the path that starts at node and continues along link
// (fingerprint linkFP) to the node's bestpaths heap for its length and,
// when the length is exactly l, to the global heap.
func (r *dfsRun) addBest(node int64, link ref, linkFP uint64, weight float64, length int) {
	if length > r.l {
		return
	}
	r.stats.HeapConsiders++
	r.heaps.consider(r.bestHeap(node, length), node, link, linkFP, weight, length)
	if length == r.l && (!r.fullPath || r.g.Interval(node) == 0) {
		r.stats.HeapConsiders++
		if weight >= r.global.Threshold() {
			r.nodes = r.heaps.nodes(r.nodes[:0], node, link)
			offerGlobal(r.global, r.nodes, weight, length)
		}
	}
}

// trackPeak records the paths held by stack-resident states (the DFS
// memory footprint).
func (r *dfsRun) trackPeak(stack []dfsFrame) {
	var n int64
	for _, fr := range stack {
		if fr.node == sourceID {
			continue
		}
		for hi := int(fr.node) * r.perNode; hi < int(fr.node+1)*r.perNode; hi++ {
			n += int64(r.heaps.size(hi))
		}
	}
	r.stats.PeakStatePaths = max(r.stats.PeakStatePaths, n)
}
