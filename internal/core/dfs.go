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
// while backtracking). Each node push reads the node's state from
// storage and each pop writes it back, so memory holds only the stack —
// the low-memory/high-I/O trade-off the paper measures against BFS.
//
// Pruning assumes edge weights lie in (0,1] (Section 4.3); DFS returns
// an error for graphs with larger weights unless pruning is disabled.
//
// One deliberate deviation from the pseudocode: CanPrune also considers
// prefix length x = 0 (with maxweight 0) whenever a sought path could
// *start* at the candidate node. The paper's x-range starts at 1, which
// can discard subtrees that are unreachable through any worthwhile
// prefix yet still host high-weight paths starting inside them; the
// extra case keeps the algorithm exact for subpath queries (verified
// against brute force in the tests).
func solveDFS(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	l, err := req.resolveL(g)
	if err != nil {
		return nil, err
	}
	if !req.DisablePruning && g.MaxWeight() > 1 {
		return nil, fmt.Errorf("core: DFS pruning requires edge weights in (0,1]; graph max weight is %g (normalize the graph or disable pruning)", g.MaxWeight())
	}
	r := &dfsRun{
		g:        g,
		k:        req.K,
		l:        l,
		fullPath: l == g.NumIntervals()-1,
		prune:    !req.DisablePruning,
		worst:    req.WorstFirstChildren,
		store:    newStoreBackend(req.Store),
		ctx:      ctx,
		states:   make(map[int64]*dfsState),
		global:   topk.NewK(req.K),
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	return &Result{Paths: r.global.Items(), Stats: r.stats}, nil
}

type dfsRun struct {
	g        *clustergraph.Graph
	k, l     int
	fullPath bool
	prune    bool
	worst    bool
	store    *storeBackend
	ctx      context.Context

	// states holds node state: all nodes when running purely in memory,
	// or only stack-resident nodes when a store is attached.
	states map[int64]*dfsState
	global *topk.K
	stats  Stats
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
	var hs []clustergraph.Half
	add := func(id int64) { hs = append(hs, clustergraph.Half{Peer: id, Weight: 0, Length: 0}) }
	if r.fullPath {
		for _, id := range r.g.NodesAt(0) {
			add(id)
		}
		return hs
	}
	for i := 0; i < r.g.NumIntervals(); i++ {
		for _, id := range r.g.NodesAt(i) {
			add(id)
		}
	}
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
	stack := []dfsFrame{{node: sourceID, children: r.sourceChildren()}}
	var steps int64
	limit := r.maxSteps()
	const pollEvery = 4096
	for len(stack) > 0 {
		if steps++; steps > limit {
			return fmt.Errorf("core: DFS exceeded %d steps; suspected re-exploration loop", limit)
		}
		if steps%pollEvery == 0 {
			if err := ctxErr(r.ctx); err != nil {
				return err
			}
		}
		f := &stack[len(stack)-1]
		if f.next < len(f.children) {
			edge := f.children[f.next]
			f.next++
			r.stats.EdgeReads++
			child, err := r.loadState(edge.Peer)
			if err != nil {
				return err
			}
			if child.visited {
				// Line 10: update bestpaths(c) using the child's info.
				if f.node != sourceID {
					r.combine(f.node, edge, child)
				}
				r.releaseIfUnstacked(edge.Peer, stack)
				continue
			}
			child.visited = true
			if child.everPushed {
				r.stats.Repushes++
			}
			child.everPushed = true
			r.updateMaxweight(f.node, edge, child)
			if r.prune && r.canPrune(edge.Peer, child) {
				r.stats.Pruned++
				// Postpone the subtree: unmark every stacked node (the
				// all-descendants-considered guarantee is broken for
				// them) and shelve the child.
				child.visited = false
				for _, fr := range stack {
					if fr.node != sourceID {
						r.states[fr.node].visited = false
					}
				}
				if err := r.saveState(edge.Peer); err != nil {
					return err
				}
				continue
			}
			stack = append(stack, dfsFrame{node: edge.Peer, children: r.childList(edge.Peer)})
			r.trackPeak(stack)
		} else {
			// All children considered: pop, save, propagate to parent.
			stack = stack[:len(stack)-1]
			if f.node == sourceID {
				continue
			}
			state := r.states[f.node]
			if len(stack) > 0 {
				if p := &stack[len(stack)-1]; p.node != sourceID {
					// Find the edge parent→f.node (the one just consumed).
					edge := p.children[p.next-1]
					r.combine(p.node, edge, state)
				}
			}
			if err := r.saveState(f.node); err != nil {
				return err
			}
		}
	}
	return nil
}

// childList returns the node's children in the configured order. The
// graph stores them weight-descending (the paper's heuristic);
// WorstFirstChildren reverses for the ablation study.
func (r *dfsRun) childList(id int64) []clustergraph.Half {
	hs := r.g.Children(id)
	if !r.worst {
		return hs
	}
	rev := make([]clustergraph.Half, len(hs))
	for i, h := range hs {
		rev[len(hs)-1-i] = h
	}
	return rev
}

// loadState fetches (or creates) node state, reading from the store
// when one is attached (Algorithm 3 line 8).
func (r *dfsRun) loadState(id int64) (*dfsState, error) {
	r.stats.NodeReads++
	if s, ok := r.states[id]; ok {
		return s, nil
	}
	if r.store != nil {
		b, ok, err := r.store.load(id)
		if err != nil {
			return nil, err
		}
		if ok {
			s, err := decodeDFSState(b, r.k)
			if err != nil {
				return nil, err
			}
			r.states[id] = s
			return s, nil
		}
	}
	s := newDFSState()
	r.states[id] = s
	return s, nil
}

// saveState persists node state (lines 20, 24) and, when a store is
// attached, evicts it from memory so RAM holds only the stack.
func (r *dfsRun) saveState(id int64) error {
	r.stats.NodeWrites++
	if r.store == nil {
		return nil
	}
	s := r.states[id]
	if err := r.store.save(id, encodeDFSState(s)); err != nil {
		return err
	}
	delete(r.states, id)
	return nil
}

// releaseIfUnstacked drops an already-visited child's state from memory
// after a combine, when store-backed and the node is not on the stack.
func (r *dfsRun) releaseIfUnstacked(id int64, stack []dfsFrame) {
	if r.store == nil {
		return
	}
	for _, fr := range stack {
		if fr.node == id {
			return
		}
	}
	// The state was only needed for the combine; it is already on disk
	// (it was saved when the node was popped).
	delete(r.states, id)
}

// updateMaxweight propagates the parent's prefix weights across the
// edge (Algorithm 3 line 16): maxweight(c',x) =
// max(maxweight(c',x), maxweight(c, x−len) + w).
func (r *dfsRun) updateMaxweight(parent int64, edge clustergraph.Half, child *dfsState) {
	if parent == sourceID {
		return // the empty prefix is already seeded at x = 0
	}
	ps := r.states[parent]
	for x, w := range ps.maxweight {
		nx := x + edge.Length
		if nx > r.l {
			continue
		}
		nw := w + edge.Weight
		if cur, ok := child.maxweight[nx]; !ok || nw > cur {
			child.maxweight[nx] = nw
		}
	}
}

// canPrune implements CanPrune (Algorithm 3): the node may be shelved
// when, for every feasible prefix length x, even the best known prefix
// extended by a maximum-weight suffix cannot beat the current top-k
// threshold. Feasible x additionally includes 0 when a sought path can
// start at the node (see the deviation note on solveDFS).
func (r *dfsRun) canPrune(id int64, s *dfsState) bool {
	minK := r.global.Threshold()
	i := r.g.Interval(id)
	m := r.g.NumIntervals()
	// Feasible prefix lengths x of a length-l path meeting this node:
	// the suffix l−x must fit in the remaining intervals and the prefix
	// within the elapsed ones. Unlike the paper's range, x = l is
	// included: at a node in the final position of a sought path the
	// whole path is the prefix and the bound degenerates to
	// maxweight(c', l) — exactly how the paper's own Table 2 trace
	// treats the interval-3 nodes.
	xmin := r.l - (m - 1 - i)
	if xmin < 0 {
		xmin = 0
	}
	xmax := r.l
	if i < xmax {
		xmax = i
	}
	if xmin > xmax {
		// No length-l path can touch this node in any position.
		return true
	}
	if math.IsInf(minK, -1) {
		return false
	}
	for x := xmin; x <= xmax; x++ {
		mw, ok := s.maxweight[x]
		if !ok {
			continue // no prefix of this length known yet
		}
		if mw+float64(r.l-x) >= minK {
			return false
		}
	}
	return true
}

// combine folds a finished child's bestpaths into the parent's
// (Algorithm 3 lines 10 and 26): every path starting at the child
// extends, via the edge, to a path starting at the parent; the edge by
// itself is also such a path.
func (r *dfsRun) combine(parent int64, edge clustergraph.Half, child *dfsState) {
	ps := r.states[parent]
	r.addBest(ps, topk.Path{
		Nodes:  []int64{parent, edge.Peer},
		Length: edge.Length,
		Weight: edge.Weight,
	})
	for y, h := range child.best {
		ny := y + edge.Length
		if ny > r.l {
			continue
		}
		for _, p := range h.Items() {
			r.addBest(ps, prepend(parent, edge.Length, edge.Weight, p))
		}
	}
}

// addBest inserts a path into the owner's bestpaths heap for its length
// and, when the length is exactly l, offers it to the global heap.
func (r *dfsRun) addBest(s *dfsState, p topk.Path) {
	if p.Length > r.l {
		return
	}
	if r.fullPath {
		// Only suffixes that can complete a full path matter: the path
		// must end at the last interval.
		last := p.Nodes[len(p.Nodes)-1]
		if r.g.Interval(last) != r.g.NumIntervals()-1 {
			return
		}
	}
	h, ok := s.best[p.Length]
	if !ok {
		h = topk.NewK(r.k)
		s.best[p.Length] = h
	}
	r.stats.HeapConsiders++
	h.Consider(p)
	if p.Length == r.l {
		first := p.Nodes[0]
		if !r.fullPath || r.g.Interval(first) == 0 {
			r.stats.HeapConsiders++
			r.global.Consider(p)
		}
	}
}

// prepend extends p backwards by one edge from node.
func prepend(node int64, edgeLen int, w float64, p topk.Path) topk.Path {
	nodes := make([]int64, 0, len(p.Nodes)+1)
	nodes = append(nodes, node)
	nodes = append(nodes, p.Nodes...)
	return topk.Path{Nodes: nodes, Length: p.Length + edgeLen, Weight: p.Weight + w}
}

// trackPeak records the paths held by stack-resident states (the DFS
// memory footprint).
func (r *dfsRun) trackPeak(stack []dfsFrame) {
	var n int64
	for _, fr := range stack {
		if fr.node == sourceID {
			continue
		}
		if s, ok := r.states[fr.node]; ok {
			n += s.pathCount()
		}
	}
	if n > r.stats.PeakStatePaths {
		r.stats.PeakStatePaths = n
	}
}
