package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustergraph"
	"repro/internal/synth"
)

func TestSolveRequestValidation(t *testing.T) {
	g, _ := synth.Figure5()
	if _, err := Solve(context.Background(), g, Request{Algorithm: "simulated-annealing", K: 1, L: 1}); err == nil {
		t.Error("Solve accepted an unknown algorithm")
	} else if !strings.Contains(err.Error(), "bfs") {
		t.Errorf("unknown-algorithm error does not list the registry: %v", err)
	}
}

// TestSolveCancellation runs every solver under a context cancelled
// before the call, on a synthetic graph and on one of 2 intervals × 2
// nodes, which a solve finishes in a handful of steps — before any
// periodic poll would come round.
func TestSolveCancellation(t *testing.T) {
	big, err := synth.Generate(synth.Config{Seed: 9, M: 8, N: 20, D: 3, G: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := clustergraph.NewBuilder(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 4; i++ {
		id, err := b.AddNode(i/2, cluster.Cluster{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, e := range [][2]int{{0, 2}, {0, 3}, {1, 3}} {
		if err := b.AddEdge(ids[e[0]], ids[e[1]], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	tiny := b.Build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		g    *clustergraph.Graph
		l    int
	}{{"8x20", big, 3}, {"2x2", tiny, 1}} {
		for _, algo := range Algorithms() {
			req := Request{Algorithm: algo.Name, K: 3}
			if algo.Normalized {
				req.LMin = min(2, tc.l)
			} else if algo.FullPathsOnly {
				req.L = FullPaths
			} else {
				req.L = tc.l
			}
			if _, err := Solve(ctx, tc.g, req); err == nil {
				t.Errorf("%s: %s ignored a canceled context", tc.name, algo.Name)
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 6 {
		t.Fatalf("registry lists %d algorithms, want 6: %v", len(algos), algos)
	}
	for _, want := range []string{"bfs", "brute", "brute-normalized", "dfs", "normalized", "ta"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("Lookup(%q) missed", want)
		}
	}
	if info, ok := Lookup(""); !ok || info.Name != DefaultAlgorithm {
		t.Errorf(`Lookup("") = %+v, want the default %q`, info, DefaultAlgorithm)
	}
	if _, ok := Lookup("nope"); ok {
		t.Error(`Lookup("nope") succeeded`)
	}
	for i := 1; i < len(algos); i++ {
		if algos[i-1].Name >= algos[i].Name {
			t.Fatalf("Algorithms() not sorted: %v", algos)
		}
	}
}
