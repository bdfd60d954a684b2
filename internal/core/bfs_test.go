package core

import (
	"testing"

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
