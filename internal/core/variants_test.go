package core

import (
	"context"
	"testing"

	"repro/internal/synth"
	"repro/internal/topk"
)

func pathOf(w float64, nodes ...int64) topk.Path {
	return topk.Path{Nodes: nodes, Length: len(nodes) - 1, Weight: w}
}

func TestDiversifyModes(t *testing.T) {
	paths := []topk.Path{
		pathOf(3.0, 1, 2, 3),
		pathOf(2.5, 1, 2, 4), // shares prefix edge (1,2) and start node 1
		pathOf(2.0, 5, 2, 3), // shares end node 3 and suffix edge (2,3)
		pathOf(1.5, 6, 7, 8), // disjoint from everything
	}
	cases := []struct {
		mode DiversityMode
		want []float64
	}{
		{DistinctEndpoints, []float64{3.0, 1.5}},   // #2 shares start 1, #3 shares end 3
		{DistinctPrefix, []float64{3.0, 2.0, 1.5}}, // #2 shares edge (1,2)
		{DistinctSuffix, []float64{3.0, 2.5, 1.5}}, // #3 shares edge (2,3)
		{DisjointNodes, []float64{3.0, 1.5}},       // #2 and #3 reuse nodes
	}
	for _, c := range cases {
		got, err := Diversify(paths, 10, c.mode)
		if err != nil {
			t.Fatalf("%v: %v", c.mode, err)
		}
		ws := make([]float64, len(got))
		for i, p := range got {
			ws[i] = p.Weight
		}
		if !weightsAlmostEqual(ws, c.want) {
			t.Errorf("%v: got %v, want %v", c.mode, ws, c.want)
		}
	}
}

func TestDiversifyRespectsK(t *testing.T) {
	paths := []topk.Path{pathOf(3, 1, 2), pathOf(2, 3, 4), pathOf(1, 5, 6)}
	got, err := Diversify(paths, 2, DisjointNodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("got %d paths, want 2", len(got))
	}
	if _, err := Diversify(paths, 0, DisjointNodes); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Diversify(paths, 1, DiversityMode(99)); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestDiversityModeString(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range []DiversityMode{DistinctEndpoints, DistinctPrefix, DistinctSuffix, DisjointNodes} {
		s := m.String()
		if s == "" || seen[s] {
			t.Errorf("mode %d has empty or duplicate name %q", int(m), s)
		}
		seen[s] = true
	}
	if DiversityMode(42).String() != "DiversityMode(42)" {
		t.Errorf("unknown mode String = %q", DiversityMode(42).String())
	}
}

func TestDiverseKL(t *testing.T) {
	g, err := synth.Generate(synth.Config{Seed: 5, M: 5, N: 30, D: 4, G: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), g, Request{Variant: VariantDiverse, K: 3, L: FullPaths})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) == 0 {
		t.Fatal("no diverse paths found")
	}
	seenStart := map[int64]bool{}
	seenEnd := map[int64]bool{}
	for _, p := range res.Paths {
		s, e := p.Nodes[0], p.Nodes[len(p.Nodes)-1]
		if seenStart[s] || seenEnd[e] {
			t.Errorf("path %v violates endpoint diversity", p)
		}
		seenStart[s] = true
		seenEnd[e] = true
	}
	// The best diverse path must equal the best unconstrained path.
	plain, err := solve(g, Request{K: 1, L: FullPaths})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Paths[0].Weight, plain.Paths[0].Weight) {
		t.Errorf("diverse top-1 %g != plain top-1 %g", res.Paths[0].Weight, plain.Paths[0].Weight)
	}
}
