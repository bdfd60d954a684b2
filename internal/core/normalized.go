package core

import (
	"context"

	"repro/internal/clustergraph"
)

// solveNormalized solves Problem 2 — the top-k paths of temporal length
// at least LMin with the highest stability, weight/length — as BFS at
// every length l from lmin to m−1, shortest first, into one global heap
// that ranks a path by weight/l. Among paths of one length stability
// orders as weight does, so each answer path of length l is in BFS's
// top k at l, and the global heap merges those top-k lists by
// stability. Its k-th stability times l is the floor each run prunes
// on, so a run reaches only the paths that can still enter it.
//
// The Weight field of returned paths holds the stability score.
func solveNormalized(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	lmin, err := req.resolveLMin(g)
	if err != nil {
		return nil, err
	}
	m := g.NumIntervals()
	if lmin < m-1 {
		// One sweep to the deepest table the runs read, not one per run.
		g.SuffixWeights(m - 2)
	}
	w := takeWorkspace()
	defer w.release()
	r := newBFSRun(w, g, req, lmin, m-1)
	for l := lmin; l < m; l++ {
		if err := r.run(ctx, l, float64(l)); err != nil {
			return nil, err
		}
	}
	return &Result{Paths: r.top.items(0), Stats: r.stats}, nil
}
