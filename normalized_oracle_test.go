package blogclusters

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/topk"
)

// checkUpToTies holds got, a top-k answer on a corpus graph, to ref, a
// reference ranking at least k+1 long where the graph has that many
// paths. Jaccard weights make rational ties whose doubles can differ in
// the last ulp depending on summation order, so the rule is: the same
// number of paths; at every rank a weight within 1e-12 of ref's; and a
// path other than ref's only where ref's sits in a group of weights
// within 1e-12 of each other.
func checkUpToTies(t *testing.T, name string, got, ref []topk.Path, k int) {
	t.Helper()
	const tie = 1e-12
	tied := func(i int) bool {
		near := func(j int) bool {
			return j >= 0 && j < len(ref) && math.Abs(ref[j].Weight-ref[i].Weight) <= tie
		}
		return near(i-1) || near(i+1)
	}
	want := ref[:min(k, len(ref))]
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, reference %d", name, len(got), len(want))
	}
	for i, p := range got {
		w := want[i]
		if math.Abs(p.Weight-w.Weight) > tie || !slices.Equal(p.Nodes, w.Nodes) && !tied(i) {
			t.Errorf("%s rank %d: %v, reference %v", name, i, p, w)
		}
	}
}

// TestNormalizedMatchesBruteOnCorpusGraphs holds the normalized solver
// to the exhaustive oracle, exactly, on the graphs the server solves:
// recurring corpora 4–7 intervals wide at 800 posts (gap 1, θ 0.1, the
// serve_churn shape), lmin 1–3, k 1–40.
func TestNormalizedMatchesBruteOnCorpusGraphs(t *testing.T) {
	ctx := context.Background()
	for _, width := range []int{4, 5, 6, 7} {
		eng := openTestEngine(t, recurringCorpus(t, width, 800), WithGraphOptions(GraphOptions{Gap: 1, Theta: 0.1}))
		g, err := eng.Graph(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for lmin := 1; lmin <= 3; lmin++ {
			// The oracle's top-k is a prefix of its top-40.
			all, err := core.Solve(ctx, g, core.Request{Algorithm: "brute-normalized", K: 40, LMin: lmin})
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 40; k++ {
				got, err := core.Solve(ctx, g, core.Request{Algorithm: "normalized", K: k, LMin: lmin})
				if err != nil {
					t.Fatal(err)
				}
				if want := all.Paths[:min(k, len(all.Paths))]; !reflect.DeepEqual(got.Paths, want) {
					t.Errorf("width %d lmin %d k %d: normalized returns\n%v\nbrute returns\n%v", width, lmin, k, got.Paths, want)
				}
			}
		}
	}
}
