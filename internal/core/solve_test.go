package core

import (
	"context"
	"strings"
	"testing"

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

func TestSolveCancellation(t *testing.T) {
	g, err := synth.Generate(synth.Config{Seed: 9, M: 8, N: 20, D: 3, G: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range Algorithms() {
		req := Request{Algorithm: algo.Name, K: 3}
		if algo.Normalized {
			req.LMin = 2
		} else if algo.FullPathsOnly {
			req.L = FullPaths
		} else {
			req.L = 3
		}
		if _, err := Solve(ctx, g, req); err == nil {
			t.Errorf("%s ignored a canceled context", algo.Name)
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
