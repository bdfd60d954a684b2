package blogclusters

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestNormalizedMatchesBruteOnCorpusGraphs holds the normalized solver
// to the exhaustive oracle on the graphs the server solves: recurring
// corpora 4–6 intervals wide at 800 posts (gap 1, θ 0.1, the
// serve_churn shape), k 1–40, lmin 2 and 3. Jaccard weights make
// rational ties whose doubles can differ in the last ulp depending on
// summation order, so the rule is: the same number of paths; at every
// rank a stability within 1e-12 of the oracle's; and a path other than
// the oracle's only where the oracle's sits in a group of stabilities
// within 1e-12 of each other.
func TestNormalizedMatchesBruteOnCorpusGraphs(t *testing.T) {
	const tie = 1e-12
	ctx := context.Background()
	for _, width := range []int{4, 5, 6} {
		eng := openTestEngine(t, recurringCorpus(t, width, 800), WithGraphOptions(GraphOptions{Gap: 1, Theta: 0.1}))
		g, err := eng.Graph(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, lmin := range []int{2, 3} {
			// The oracle's top-k is a prefix of its top-41: one past the
			// largest k shows whether rank 40 ends a tie group.
			all, err := core.Solve(ctx, g, core.Request{Algorithm: "brute-normalized", K: 41, LMin: lmin})
			if err != nil {
				t.Fatal(err)
			}
			tied := func(i int) bool {
				near := func(j int) bool {
					return j >= 0 && j < len(all.Paths) && math.Abs(all.Paths[j].Weight-all.Paths[i].Weight) <= tie
				}
				return near(i-1) || near(i+1)
			}
			for k := 1; k <= 40; k++ {
				got, err := core.Solve(ctx, g, core.Request{Algorithm: "normalized", K: k, LMin: lmin})
				if err != nil {
					t.Fatal(err)
				}
				want := all.Paths[:min(k, len(all.Paths))]
				if len(got.Paths) != len(want) {
					t.Fatalf("width %d lmin %d k %d: %d paths, brute %d", width, lmin, k, len(got.Paths), len(want))
				}
				for i, p := range got.Paths {
					w := want[i]
					if math.Abs(p.Weight-w.Weight) > tie || !slices.Equal(p.Nodes, w.Nodes) && !tied(i) {
						t.Errorf("width %d lmin %d k %d rank %d: %v, brute %v", width, lmin, k, i, p, w)
					}
				}
			}
		}
	}
}
