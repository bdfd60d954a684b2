package core

import (
	"context"
	"fmt"

	"repro/internal/clustergraph"
	"repro/internal/topk"
)

// solveBFS solves the kl-stable-clusters problem with Algorithm 2:
// process intervals left to right, keeping the nodes of the previous
// g+1 intervals (with their heaps) in memory, and annotate every node
// cij with heaps h^x_ij of the top-k subpaths of each length x ≤ l
// ending there. The global heap H accumulates the top-k paths of length
// exactly l.
func solveBFS(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	l, err := req.resolveL(g)
	if err != nil {
		return nil, err
	}
	if req.MaxWindowNodes < 0 {
		return nil, fmt.Errorf("%w: MaxWindowNodes must be >= 0, got %d", ErrInvalidRequest, req.MaxWindowNodes)
	}
	r := &bfsRun{
		g:        g,
		k:        req.K,
		l:        l,
		fullPath: l == g.NumIntervals()-1 && !req.DisableFullPathFastPath,
		window:   req.MaxWindowNodes,
		store:    newStoreBackend(req.Store),
		heaps:    make(map[int64]map[int]*topk.K),
		global:   topk.NewK(req.K),
	}
	for i := 0; i < g.NumIntervals(); i++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if err := r.processInterval(i); err != nil {
			return nil, err
		}
	}
	return &Result{Paths: r.global.Items(), Stats: r.stats}, nil
}

// bfsRun carries the state of one BFS execution. It is shared with the
// online (streaming) version, which feeds intervals as they arrive.
type bfsRun struct {
	g        *clustergraph.Graph
	k, l     int
	fullPath bool
	window   int // MaxWindowNodes; 0 = unlimited
	store    *storeBackend

	// heaps maps node id → (path length → heap). In full-path mode each
	// node has exactly one entry, at x = interval(node).
	heaps  map[int64]map[int]*topk.K
	global *topk.K
	stats  Stats
}

// processInterval computes heaps for every node of interval i, using
// the heaps of the previous g+1 intervals, then evicts intervals that
// fall out of the window (Algorithm 2 lines 2–18).
func (r *bfsRun) processInterval(i int) error {
	nodes := r.g.NodesAt(i)
	// "Read Gi' in memory": the window nodes were computed in earlier
	// iterations and retained; the read cost the paper accounts is one
	// node-state read per window node per interval processed (a single
	// sequential pass when memory suffices). With a window cap, the
	// current interval's nodes are re-scanned once per block
	// (block-nested loops), multiplying reads of Gi.
	windowNodes := r.windowNodeIDs(i)
	blocks := r.splitBlocks(windowNodes)
	r.stats.NodeReads += int64(len(windowNodes)) // window scan
	if len(blocks) > 1 {
		// Each extra block re-reads interval i's nodes.
		r.stats.NodeReads += int64((len(blocks) - 1) * len(nodes))
	}

	for _, id := range nodes {
		r.heaps[id] = make(map[int]*topk.K)
	}
	for _, block := range blocks {
		inBlock := make(map[int64]bool, len(block))
		for _, id := range block {
			inBlock[id] = true
		}
		for _, id := range nodes {
			for _, ph := range r.g.Parents(id) {
				if !inBlock[ph.Peer] {
					continue
				}
				r.stats.EdgeReads++
				r.extend(id, ph)
			}
		}
	}
	// "save cij along with h^x_ij to disk" (line 17).
	for _, id := range nodes {
		r.stats.NodeWrites++
		if r.store != nil {
			if err := r.store.save(id, encodePaths(heapsToPaths(r.heaps[id]))); err != nil {
				return err
			}
		}
	}
	r.evict(i)
	r.trackPeak()
	return nil
}

// extend merges parent ph's heaps into node id's heaps across the edge
// (Algorithm 2 lines 7–14).
func (r *bfsRun) extend(id int64, ph clustergraph.Half) {
	edgeLen := ph.Length
	parentHeaps := r.heaps[ph.Peer]
	// The edge alone is a path of length edgeLen (the implicit h^0 =
	// {empty path} case).
	r.offer(id, topk.Path{Nodes: []int64{ph.Peer}}.Append(id, edgeLen, ph.Weight))
	for x, h := range parentHeaps {
		if x+edgeLen > r.l {
			continue
		}
		for _, pi := range h.Items() {
			r.offer(id, pi.Append(id, edgeLen, ph.Weight))
		}
	}
}

// offer places path p (ending at node id) into the appropriate h^x heap
// and, when it has length exactly l, into the global heap.
func (r *bfsRun) offer(id int64, p topk.Path) {
	if p.Length > r.l {
		return
	}
	if r.fullPath && r.g.Interval(p.Nodes[0]) != 0 {
		// Full-path mode: only prefixes that started at interval 0 can
		// grow into full paths; everything else is dead weight. This is
		// the paper's "one heap per node suffices" optimization —
		// temporal lengths make length(p) == interval(id) automatic.
		return
	}
	hs := r.heaps[id]
	h, ok := hs[p.Length]
	if !ok {
		h = topk.NewK(r.k)
		hs[p.Length] = h
	}
	r.stats.HeapConsiders++
	h.Consider(p)
	if p.Length == r.l {
		r.stats.HeapConsiders++
		r.global.Consider(p)
	}
}

// windowNodeIDs lists the node ids of intervals [i-g-1, i-1] — the
// parents reachable from interval i.
func (r *bfsRun) windowNodeIDs(i int) []int64 {
	var ids []int64
	lo := i - r.g.Gap() - 1
	if lo < 0 {
		lo = 0
	}
	for j := lo; j < i; j++ {
		ids = append(ids, r.g.NodesAt(j)...)
	}
	return ids
}

// splitBlocks partitions the window per MaxWindowNodes.
func (r *bfsRun) splitBlocks(window []int64) [][]int64 {
	if r.window == 0 || len(window) <= r.window {
		if len(window) == 0 {
			return [][]int64{nil}
		}
		return [][]int64{window}
	}
	var blocks [][]int64
	for len(window) > 0 {
		n := r.window
		if n > len(window) {
			n = len(window)
		}
		blocks = append(blocks, window[:n])
		window = window[n:]
	}
	return blocks
}

// evict drops heaps of nodes that can no longer be parents ("Gi−g−1 is
// discarded").
func (r *bfsRun) evict(i int) {
	old := i - r.g.Gap() - 1
	if old < 0 {
		return
	}
	for _, id := range r.g.NodesAt(old) {
		delete(r.heaps, id)
	}
}

// trackPeak records the number of paths currently held across window
// heaps (the memory-footprint proxy reported in Stats).
func (r *bfsRun) trackPeak() {
	var n int64
	for _, hs := range r.heaps {
		for _, h := range hs {
			n += int64(h.Len())
		}
	}
	if n > r.stats.PeakStatePaths {
		r.stats.PeakStatePaths = n
	}
}
