// Package core implements the paper's primary contribution: algorithms
// for the kl-stable-clusters problem (Problem 1) and the normalized
// stable-clusters problem (Problem 2) over a cluster graph.
//
// Every algorithm is reached through one unified surface: build a
// Request (request.go), call Solve (solve.go). Solve answers the
// diverse variant itself (variants.go) and otherwise dispatches on
// Request.Algorithm through the registry, mirroring Section 4:
//
//   - "bfs" (Algorithm 2): a single forward pass over the intervals with
//     per-node top-k heaps of subpaths of each length; a node that holds
//     a path or can start one pushes its heaps to its children and
//     releases them (bfs.go).
//   - "dfs" (Algorithm 3): a stack-based depth-first traversal with
//     maxweight-based pruning, visited-flag unmarking and bestpaths
//     back-propagation (dfs.go).
//   - "ta" (Section 4.4): an adaptation of the threshold algorithm over
//     per-interval-pair edge lists read in weight order; full paths only
//     (ta.go).
//   - "normalized" (Problem 2, Section 4.5): BFS at every length from
//     lmin to m−1 into one global heap ranked by weight/length; among
//     paths of one length that is the weight order (normalized.go).
//   - "brute", "brute-normalized": exhaustive oracles (brute.go).
//
// BFS (normalized too), DFS and TA prune on one exact suffix bound, the
// heaviest path of each length from each node (bound.go); TA also takes
// its forward twin, the heaviest path from interval 0 to each node. Both, and TA's
// sorted edge lists, are swept once per graph and shared by every solve
// on it (the graph's solve index, clustergraph/solveindex.go).
//
// Every solver is sequential; results are deterministic because the
// top-k order (topk.Better) is a strict total order and heap contents
// are offer-order independent. Inside a solve a path is a parent-pointer
// chain in a slab and per-node state is a slice indexed by node id
// (slab.go); topk.Path values are built for the answer. All solver
// state lives in memory. BFS and DFS keep theirs in a workspace
// (workspace.go) that a solve hands on to the next one: the package
// holds one spare through a weak pointer, so a garbage collection
// reclaims it, and each solve resets every part it uses, so that a
// solve in the spare returns exactly what one in fresh memory would. The online regime of Section 4.6 is the
// root package's Engine.Push, which grows the cluster graph that these
// solvers then run on.
package core

import (
	"repro/internal/topk"
)

// FullPaths is a sentinel for Request.L meaning l = m−1.
const FullPaths = -1

// Stats describes the work an algorithm performed, in the cost model
// the paper uses: node-state reads and writes against secondary
// storage, plus algorithm-specific counters. Solver state stays in
// memory, so NodeReads and NodeWrites are logical: they count the I/Os
// the paper's disk-resident algorithm would issue.
type Stats struct {
	// NodeReads counts node-state loads.
	NodeReads int64 `json:"node_reads"`
	// NodeWrites counts node-state saves.
	NodeWrites int64 `json:"node_writes"`
	// EdgeReads counts the solve's own edge/adjacency examinations, not
	// the once-per-graph sweeps of the solve index.
	EdgeReads int64 `json:"edge_reads"`
	// HeapConsiders counts offers to any top-k heap.
	HeapConsiders int64 `json:"heap_considers"`
	// Pruned counts pruning events (DFS CanPrune firings, TA edges and
	// prefix or suffix branches, BFS offers dropped on the suffix
	// bound).
	Pruned int64 `json:"pruned"`
	// Repushes counts re-explorations of nodes whose visited flag was
	// unmarked (DFS only).
	Repushes int64 `json:"repushes"`
	// RandomSeeks counts TA random lookups.
	RandomSeeks int64 `json:"random_seeks"`
	// PeakStatePaths is the maximum number of paths simultaneously held
	// in per-node state — the memory-footprint proxy behind the paper's
	// "DFS needed 2MB vs BFS 35MB" claim.
	PeakStatePaths int64 `json:"peak_state_paths"`
}

// Result is the answer to a stable-clusters query.
type Result struct {
	// Paths are the top-k paths, best first.
	Paths []topk.Path
	// Stats describes the work performed.
	Stats Stats
}

// Weights returns the path weights, best first.
func (r *Result) Weights() []float64 {
	ws := make([]float64, len(r.Paths))
	for i, p := range r.Paths {
		ws[i] = p.Weight
	}
	return ws
}
