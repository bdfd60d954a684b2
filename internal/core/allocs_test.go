package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/clustergraph"
	"repro/internal/raceflag"
	"repro/internal/synth"
)

// Allocation ceilings, in tier-1: the solvers keep their paths in a
// slab, so a solve allocates a few hundred objects however many
// candidates it weighs. A ceiling of about twice the count recorded
// with this test fails `go test` on a regression that the benchmark
// would take 25 s to show. With the collector off, the spare workspace
// (workspace.go) lives from one solve to the next, so AllocsPerRun's
// warm-up solve leaves it sized for the measured one. The repeat check
// fails on an allocator that does not settle after one solve of a
// request — a workspace part that still grows on the second, a cache, a
// map with a random seed. A cold row solves on a fresh graph each time,
// so it also pays for the parts of the graph's solve index it needs; a
// warm row solves on a graph whose index is built.
func TestSolverAllocationCeilings(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	generate := func() *clustergraph.Graph {
		g, err := synth.Generate(synth.Config{Seed: 2007, M: 6, N: 60, D: 3, G: 1})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	warm := generate()
	// AllocsPerRun reads the process-wide malloc count; with the
	// collector off, the runtime's own bookkeeping for a GC cycle that
	// happens to start mid-solve cannot leak into it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name    string
		req     Request
		warm    bool
		ceiling float64
	}{
		{"bfs-sub", Request{Algorithm: "bfs", K: 5, L: 3}, false, 80},
		{"bfs-full", Request{Algorithm: "bfs", K: 5, L: FullPaths}, false, 80},
		{"dfs", Request{Algorithm: "dfs", K: 5, L: FullPaths}, false, 100},
		{"ta", Request{Algorithm: "ta", K: 5, L: FullPaths}, false, 110},
		// Recorded 43: BFS at lengths 3, 4 and 5, which builds a start
		// order for each.
		{"normalized", Request{Algorithm: "normalized", K: 5, LMin: 3}, false, 54},
		// Recorded 50, where sweeping U and P and building the edge
		// lists on every solve made 54.
		{"ta-warm", Request{Algorithm: "ta", K: 5, L: FullPaths}, true, 52},
		// Recorded 8, 21 and 8: the answer, the run and DFS's global
		// heap; solving in the spare workspace leaves the slab, the
		// heaps and the per-node state to the warm-up (24, 45 and 26
		// while each solve allocated its own).
		{"bfs-warm", Request{Algorithm: "bfs", K: 5, L: 3}, true, 16},
		{"dfs-warm", Request{Algorithm: "dfs", K: 5, L: FullPaths}, true, 42},
		{"normalized-warm", Request{Algorithm: "normalized", K: 5, LMin: 3}, true, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// AllocsPerRun(1, run) calls run twice, a warm-up and the
			// measured run, and it is called twice below.
			graphs := make([]*clustergraph.Graph, 4)
			for i := range graphs {
				graphs[i] = warm
				if !tc.warm {
					graphs[i] = generate()
				}
			}
			run := func() {
				if _, err := solve(graphs[0], tc.req); err != nil {
					t.Fatal(err)
				}
				graphs = graphs[1:]
			}
			first, second := testing.AllocsPerRun(1, run), testing.AllocsPerRun(1, run)
			if first != second {
				t.Errorf("allocations differ between two solves of one request: %v then %v", first, second)
			}
			if first > tc.ceiling {
				t.Errorf("%v allocations per solve, ceiling %v", first, tc.ceiling)
			}
		})
	}
}
