package core

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/clustergraph"
	"repro/internal/raceflag"
	"repro/internal/synth"
)

// TestBFSReadsOnlyLiveEdges pins what driving BFS by its live nodes
// buys on solve_paper's 10 × 1 000 graph (bench/solve.go): the forward
// pass reads only the child edges of nodes that hold a path or can start
// one, a few hundred of the 92 880 at k = 5, and the bound's sweep is
// the graph's solve index, which a solve's Stats do not count. So a
// solve reads at most E/100 edges, where a per-solve sweep read E more
// and a pass that pulled every parent edge 2E. PeakStatePaths may not
// rise above what the pull loop with its g+1-interval window held (8
// and 16). The reference pushes every node, so it reads each edge
// exactly once.
func TestBFSReadsOnlyLiveEdges(t *testing.T) {
	g, err := synth.Generate(synth.Config{Seed: 2007, M: 10, N: 1000, D: 5, G: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := int64(g.NumEdges())
	for _, tc := range []struct {
		name string
		l    int
		peak int64
	}{
		{"l3", 3, 8},
		{"full", FullPaths, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := solve(g, Request{K: 5, L: tc.l})
			if err != nil {
				t.Fatal(err)
			}
			if st := res.Stats; st.EdgeReads > e/100 || st.PeakStatePaths > tc.peak {
				t.Errorf("%d edge reads, peak %d paths; want at most %d (E = %d) and %d",
					st.EdgeReads, st.PeakStatePaths, e/100, e, tc.peak)
			}
			ref, err := solve(g, Request{K: 5, L: tc.l, disableSuffixBound: true})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Stats.EdgeReads != e {
				t.Errorf("reference read %d edges, want every edge once (%d)", ref.Stats.EdgeReads, e)
			}
		})
	}
}

// TestBFSStateTracksLiveNodes holds a warm BFS solve's memory to the
// nodes it touches: a node gets heap state on its first admission, and
// a pass pushes only the nodes that hold a heap or start a path that
// reaches the floor, so a graph four times as wide must not cost a
// solve half as many bytes more. Sizing heaps by N made it 4.0× (l 3)
// and 3.7× (full paths) as many. Ceilings are about twice the bytes
// recorded on 10 × 1 000 with this test. The passes take each interval
// in ascending id, which is the order NodesAt lists them in.
func TestBFSStateTracksLiveNodes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation sizes")
	}
	graphs := map[int]*clustergraph.Graph{}
	for _, n := range []int{1000, 4000} {
		g, err := synth.Generate(synth.Config{Seed: 2007, M: 10, N: n, D: 5, G: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkNodesAscending(t, g)
		graphs[n] = g
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name    string
		l       int
		ceiling uint64
	}{
		// Recorded: 9 312 bytes on 10 × 1 000, 9 312 on 10 × 4 000.
		{"l3", 3, 18_000},
		// 16 960 and 15 072.
		{"full", FullPaths, 34_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := Request{K: 5, L: tc.l}
			warmBytes := func(g *clustergraph.Graph) uint64 {
				if _, err := solve(g, req); err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := solve(g, req); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			narrow, wide := warmBytes(graphs[1000]), warmBytes(graphs[4000])
			t.Logf("%d bytes per warm solve on 10 × 1 000, %d on 10 × 4 000", narrow, wide)
			if narrow > tc.ceiling {
				t.Errorf("%d bytes per solve on 10 × 1 000, ceiling %d", narrow, tc.ceiling)
			}
			if 2*wide >= 3*narrow {
				t.Errorf("%d bytes per solve on 10 × 4 000, not under 1.5 × the %d on 10 × 1 000", wide, narrow)
			}
		})
	}
}

// checkNodesAscending fails t unless every NodesAt(i) of g is in
// ascending id, the order BFS pushes an interval's nodes in.
func checkNodesAscending(t *testing.T, g *clustergraph.Graph) {
	t.Helper()
	for i := range g.NumIntervals() {
		if !slices.IsSorted(g.NodesAt(i)) {
			t.Fatalf("NodesAt(%d) is not in ascending id: %v", i, g.NodesAt(i))
		}
	}
}
