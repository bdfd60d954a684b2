package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/clustergraph"
	"repro/internal/synth"
)

// The central correctness argument of this reproduction: on randomized
// cluster graphs spanning gaps, subpath lengths and k values, the BFS,
// DFS and TA algorithms and the exhaustive enumerator must return
// identical top-k weight vectors.

type equivCase struct {
	cfg  synth.Config
	k, l int
}

func equivCases() []equivCase {
	var cases []equivCase
	seed := int64(100)
	for _, m := range []int{2, 3, 4, 5, 6} {
		for _, g := range []int{0, 1, 2} {
			for _, l := range []int{1, 2, m - 1} {
				if l <= 0 || l > m-1 {
					continue
				}
				for _, k := range []int{1, 3} {
					seed++
					cases = append(cases, equivCase{
						cfg: synth.Config{Seed: seed, M: m, N: 5, D: 2, G: g},
						k:   k, l: l,
					})
				}
			}
		}
	}
	return cases
}

func TestBFSDFSBruteEquivalence(t *testing.T) {
	for _, c := range equivCases() {
		c := c
		name := fmt.Sprintf("m%d_g%d_l%d_k%d_seed%d", c.cfg.M, c.cfg.G, c.l, c.k, c.cfg.Seed)
		t.Run(name, func(t *testing.T) {
			g, err := synth.Generate(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := solve(g, Request{Algorithm: "brute", K: c.k, L: c.l})
			if err != nil {
				t.Fatal(err)
			}
			bfs, err := solve(g, Request{K: c.k, L: c.l})
			if err != nil {
				t.Fatal(err)
			}
			if !weightsAlmostEqual(bfs.Weights(), want.Weights()) {
				t.Errorf("BFS weights %v != brute %v", bfs.Weights(), want.Weights())
			}
			dfs, err := solve(g, Request{Algorithm: "dfs", K: c.k, L: c.l})
			if err != nil {
				t.Fatal(err)
			}
			if !weightsAlmostEqual(dfs.Weights(), want.Weights()) {
				t.Errorf("DFS weights %v != brute %v", dfs.Weights(), want.Weights())
			}
			dfsNoPrune, err := solve(g, Request{Algorithm: "dfs", K: c.k, L: c.l, disablePruning: true})
			if err != nil {
				t.Fatal(err)
			}
			if !weightsAlmostEqual(dfsNoPrune.Weights(), want.Weights()) {
				t.Errorf("unpruned DFS weights %v != brute %v", dfsNoPrune.Weights(), want.Weights())
			}
			if c.l == c.cfg.M-1 {
				ta, err := solve(g, Request{Algorithm: "ta", K: c.k, L: c.l})
				if err != nil {
					t.Fatal(err)
				}
				if !weightsAlmostEqual(ta.Weights(), want.Weights()) {
					t.Errorf("TA weights %v != brute %v", ta.Weights(), want.Weights())
				}
				taNoBound, err := solve(g, Request{Algorithm: "ta", K: c.k, L: c.l, disableSuffixBound: true})
				if err != nil {
					t.Fatal(err)
				}
				if !weightsAlmostEqual(taNoBound.Weights(), want.Weights()) {
					t.Errorf("TA-no-bound weights %v != brute %v", taNoBound.Weights(), want.Weights())
				}
			}
		})
	}
}

func TestBFSFastPathMatchesGeneric(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g, err := synth.Generate(synth.Config{Seed: seed, M: 5, N: 8, D: 2, G: 1})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := solve(g, Request{K: 4, L: FullPaths})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := solve(g, Request{K: 4, L: FullPaths, disableFullPathFastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		if !weightsAlmostEqual(fast.Weights(), slow.Weights()) {
			t.Errorf("seed %d: fast path %v != generic %v", seed, fast.Weights(), slow.Weights())
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g, err := synth.Generate(synth.Config{Seed: 7, M: 6, N: 20, D: 3, G: 1})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := solve(g, Request{K: 5, L: 3})
	if err != nil {
		t.Fatal(err)
	}
	if bfs.Stats.NodeReads == 0 || bfs.Stats.NodeWrites == 0 || bfs.Stats.EdgeReads == 0 ||
		bfs.Stats.HeapConsiders == 0 || bfs.Stats.PeakStatePaths == 0 {
		t.Errorf("BFS stats unpopulated: %+v", bfs.Stats)
	}
	dfs, err := solve(g, Request{Algorithm: "dfs", K: 5, L: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dfs.Stats.NodeReads == 0 || dfs.Stats.NodeWrites == 0 || dfs.Stats.EdgeReads == 0 {
		t.Errorf("DFS stats unpopulated: %+v", dfs.Stats)
	}
	// The paper's memory claim, which holds for its Algorithms 2 and 3:
	// DFS holds far fewer paths in memory than BFS holds in its window.
	// The suffix bound empties BFS's heaps more than DFS's, so the
	// bounded solvers are compared through the seam.
	bfs, err = solve(g, Request{K: 5, L: 3, disableSuffixBound: true})
	if err != nil {
		t.Fatal(err)
	}
	dfs, err = solve(g, Request{Algorithm: "dfs", K: 5, L: 3, disableSuffixBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if dfs.Stats.PeakStatePaths >= bfs.Stats.PeakStatePaths {
		t.Errorf("DFS peak paths %d not below BFS %d", dfs.Stats.PeakStatePaths, bfs.Stats.PeakStatePaths)
	}
}

// TestSuffixBoundMatchesReference holds BFS and DFS with the suffix
// bound to the paper's unbounded Algorithms 2 and 3, and TA with its
// prefix and suffix bounds to TA with no pruning: the same Paths, bit
// for bit and ties included, over synthetic and tie graphs, k 1–40,
// subpaths and full paths (TA: full paths only).
func TestSuffixBoundMatchesReference(t *testing.T) {
	type graph struct {
		name string
		g    *clustergraph.Graph
	}
	var graphs []graph
	for seed := int64(0); seed < 6; seed++ {
		g, err := synth.Generate(synth.Config{Seed: 900 + seed, M: 6, N: 8, D: 3, G: int(seed % 3)})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, graph{fmt.Sprintf("synth%d", seed), g})
	}
	for gap := 0; gap <= 2; gap++ {
		graphs = append(graphs, graph{fmt.Sprintf("tie%d", gap), tieGraph(t, int64(500+gap), 5, 5, gap)})
	}
	for _, gg := range graphs {
		m := gg.g.NumIntervals()
		for _, l := range []int{1, 2, m - 1} {
			algos := []string{"bfs", "dfs"}
			if l == m-1 {
				algos = append(algos, "ta")
			}
			for _, k := range []int{1, 2, 3, 5, 8, 13, 40} {
				for _, algo := range algos {
					req := Request{Algorithm: algo, K: k, L: l}
					got, err := solve(gg.g, req)
					if err != nil {
						t.Fatal(err)
					}
					req.disableSuffixBound = true
					want, err := solve(gg.g, req)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Paths, want.Paths) {
						t.Errorf("%s l %d k %d %s: bounded\n%v\nreference\n%v", gg.name, l, k, algo, got.Paths, want.Paths)
					}
				}
			}
		}
	}
}
