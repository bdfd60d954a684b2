package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/clustergraph"
	"repro/internal/synth"
)

const eps = 1e-9

// solve is shorthand for Solve with a background context; tests that
// exercise cancellation pass their own context to Solve directly.
func solve(g *clustergraph.Graph, req Request) (*Result, error) {
	return Solve(context.Background(), g, req)
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < eps }

func weightsAlmostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestPaperSection42BFSExample replays the worked BFS example of
// Section 4.2 on the Figure 5 graph with l = 2, k = 2: "In the end, the
// best two paths are identified as c13c22c31 and c13c22c33."
func TestPaperSection42BFSExample(t *testing.T) {
	g, ids := synth.Figure5()
	res, err := solve(g, Request{K: 2, L: 2})
	if err != nil {
		t.Fatalf("BFS: %v", err)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("got %d paths, want 2: %v", len(res.Paths), res.Paths)
	}
	wantBest := []int64{ids[0][2], ids[1][1], ids[2][2]} // c13 c22 c33
	if !reflect.DeepEqual(res.Paths[0].Nodes, wantBest) || !almostEqual(res.Paths[0].Weight, 1.7) {
		t.Errorf("best path = %v, want c13c22c33 with weight 1.7", res.Paths[0])
	}
	wantSecond := []int64{ids[0][2], ids[1][1], ids[2][0]} // c13 c22 c31
	if !reflect.DeepEqual(res.Paths[1].Nodes, wantSecond) || !almostEqual(res.Paths[1].Weight, 1.5) {
		t.Errorf("second path = %v, want c13c22c31 with weight 1.5", res.Paths[1])
	}
}

// TestPaperSection42HeapContents verifies the per-node heaps the paper
// lists for the Figure 5 graph (h^1 of the interval-2 nodes, h^2 of the
// interval-3 nodes) by reading them off the BFS run. A node's heaps are
// complete once the intervals before its own are pushed, and released
// once its own is, so each is read in between.
func TestPaperSection42HeapContents(t *testing.T) {
	g, ids := synth.Figure5()
	// Use the generic (non-full-path) machinery so every h^x is
	// maintained, as in the paper's walk-through.
	// Without the suffix bound, which would leave most of them empty.
	r := newBFSRun(new(workspace), g, Request{K: 2, disableFullPathFastPath: true, disableSuffixBound: true}, 2, 2)
	r.start(2, 1)
	heaps := map[int64]map[int][][]int64{} // node → length → paths
	for i := 0; i < g.NumIntervals(); i++ {
		for _, id := range g.NodesAt(i) {
			heaps[id] = map[int][][]int64{}
			lo, hi, ok := r.heapRange(id)
			if !ok {
				continue
			}
			for _, p := range r.heaps.paths(lo, hi) {
				heaps[id][p.Length] = append(heaps[id][p.Length], p.Nodes)
			}
		}
		r.pushInterval(i)
	}
	c := func(i, j int) int64 { return ids[i-1][j-1] } // paper 1-based names

	// h^1_21 = {c11c21}
	h21 := heaps[c(2, 1)]
	if len(h21[1]) != 1 || !reflect.DeepEqual(h21[1][0], []int64{c(1, 1), c(2, 1)}) {
		t.Errorf("h1_21 = %v, want {c11c21}", h21[1])
	}
	// h^1_22 = {c12c22, c13c22}
	h22 := heaps[c(2, 2)]
	if len(h22[1]) != 2 {
		t.Errorf("h1_22 = %v, want two paths", h22[1])
	}
	// h^2_31 = {c11c21c31, c13c22c31}: c12c22c31 (0.8) is evicted.
	h31 := heaps[c(3, 1)]
	if len(h31[2]) != 2 {
		t.Fatalf("h2_31 = %v, want two paths", h31[2])
	}
	got := map[string]bool{}
	for _, nodes := range h31[2] {
		got[fmt.Sprint(nodes)] = true
	}
	for _, want := range [][]int64{
		{c(1, 1), c(2, 1), c(3, 1)},
		{c(1, 3), c(2, 2), c(3, 1)},
	} {
		if !got[fmt.Sprint(want)] {
			t.Errorf("h2_31 missing %v; got %v", want, h31[2])
		}
	}
	// h^2_32 = {c11c21c32, c11c32} — includes the direct gap edge.
	h32 := heaps[c(3, 2)]
	if len(h32[2]) != 2 {
		t.Fatalf("h2_32 = %v, want two paths", h32[2])
	}
	got = map[string]bool{}
	for _, nodes := range h32[2] {
		got[fmt.Sprint(nodes)] = true
	}
	if !got[fmt.Sprint([]int64{c(1, 1), c(3, 2)})] {
		t.Errorf("h2_32 missing the direct gap path c11c32: %v", h32[2])
	}
	// h^2_33 = {c13c22c33, c12c22c33}.
	h33 := heaps[c(3, 3)]
	if len(h33[2]) != 2 {
		t.Fatalf("h2_33 = %v, want two paths", h33[2])
	}
}

// TestPaperTable2Trace replays the DFS worked example (Table 2):
// k = 1, l = 2 on the Figure 5 graph. The final result is c13c22c33 and
// pruning fires (the paper prunes c22 on first contact when min-k=1.2).
func TestPaperTable2Trace(t *testing.T) {
	g, ids := synth.Figure5()
	res, err := solve(g, Request{Algorithm: "dfs", K: 1, L: 2})
	if err != nil {
		t.Fatalf("DFS: %v", err)
	}
	if len(res.Paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(res.Paths))
	}
	want := []int64{ids[0][2], ids[1][1], ids[2][2]} // c13 c22 c33
	if !reflect.DeepEqual(res.Paths[0].Nodes, want) || !almostEqual(res.Paths[0].Weight, 1.7) {
		t.Errorf("result = %v, want c13c22c33 (1.7)", res.Paths[0])
	}
	if res.Stats.Pruned == 0 {
		t.Error("expected at least one pruning event in the Table 2 scenario")
	}
}

// TestPaperSection44TA runs the TA adaptation on the Figure 5 graph.
func TestPaperSection44TA(t *testing.T) {
	g, ids := synth.Figure5()
	res, err := solve(g, Request{Algorithm: "ta", K: 2, L: FullPaths})
	if err != nil {
		t.Fatalf("TA: %v", err)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(res.Paths))
	}
	if !almostEqual(res.Paths[0].Weight, 1.7) || !almostEqual(res.Paths[1].Weight, 1.5) {
		t.Errorf("weights = %v, want [1.7 1.5]", res.Weights())
	}
	wantBest := []int64{ids[0][2], ids[1][1], ids[2][2]}
	if !reflect.DeepEqual(res.Paths[0].Nodes, wantBest) {
		t.Errorf("best = %v, want c13c22c33", res.Paths[0])
	}
	if res.Stats.RandomSeeks == 0 {
		t.Error("TA performed no random seeks")
	}
}

func TestBruteOnFigure5(t *testing.T) {
	g, _ := synth.Figure5()
	res, err := solve(g, Request{Algorithm: "brute", K: 3, L: 2})
	if err != nil {
		t.Fatalf("brute: %v", err)
	}
	want := []float64{1.7, 1.5, 1.2}
	if !weightsAlmostEqual(res.Weights(), want) {
		t.Errorf("brute weights = %v, want %v", res.Weights(), want)
	}
	// Subpaths of length 1 are single edges; the best is c22c33 (0.9).
	res, err = solve(g, Request{Algorithm: "brute", K: 1, L: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !weightsAlmostEqual(res.Weights(), []float64{0.9}) {
		t.Errorf("best length-1 = %v, want [0.9]", res.Weights())
	}
}

func TestOptionValidation(t *testing.T) {
	g, _ := synth.Figure5()
	if _, err := solve(g, Request{K: 0, L: 1}); err == nil {
		t.Error("BFS accepted K=0")
	}
	if _, err := solve(g, Request{K: 1, L: 0}); err == nil {
		t.Error("BFS accepted L=0")
	}
	if _, err := solve(g, Request{K: 1, L: 7}); err == nil {
		t.Error("BFS accepted L > m-1")
	}
	if _, err := solve(g, Request{Algorithm: "dfs", K: 0, L: 1}); err == nil {
		t.Error("DFS accepted K=0")
	}
	if _, err := solve(g, Request{Algorithm: "ta", K: 1, L: 1}); err == nil {
		t.Error("TA accepted subpath query")
	}
	if _, err := solve(g, Request{Algorithm: "brute", K: -1, L: 1}); err == nil {
		t.Error("brute accepted K=-1")
	}
	if _, err := solve(g, Request{Algorithm: "brute-normalized", K: 0, LMin: 1}); err == nil {
		t.Error("BruteNormalized accepted K=0")
	}
	if _, err := solve(g, Request{Algorithm: "brute-normalized", K: 1, LMin: 0}); err == nil {
		t.Error("BruteNormalized accepted lmin=0")
	}
	if _, err := solve(g, Request{Algorithm: "normalized", K: 1, LMin: 0}); err == nil {
		t.Error("NormalizedBFS accepted lmin=0")
	}
	if _, err := solve(g, Request{Algorithm: "normalized", K: 1, LMin: 9}); err == nil {
		t.Error("NormalizedBFS accepted lmin > m-1")
	}
}
