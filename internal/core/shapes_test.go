package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/synth"
	"repro/internal/topk"
)

// The golden table's graphs have at most 6 nodes per interval at k = 3,
// so their heaps rarely overflow. This table pins the five solve_paper
// class shapes (bench/solve.go) at the benchmark's -quick scale — N/10,
// generator seed 2007, k = 5 — where heaps are full most of the time:
// the digest covers Paths to the last bit (%.17g round-trips a float64)
// and the Stats literal covers all nine counters. A refactor of the
// solvers' internals must leave every row untouched. The normalized
// row's Paths are brute-normalized's.

func pathsDigest(paths []topk.Path) string {
	h := fnv.New64a()
	for _, p := range paths {
		fmt.Fprintf(h, "%.17g:%d:%v;", p.Weight, p.Length, p.Nodes)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

var pinnedShapes = []struct {
	name   string
	cfg    synth.Config
	req    Request
	digest string
	stats  string
}{
	{"dfs", synth.Config{M: 6, N: 40, D: 5, G: 1}, Request{Algorithm: "dfs", K: 5, L: FullPaths},
		"64b24b96718c3ecd", "{588 547 588 200 494 369 0 20}"},
	{"ta", synth.Config{M: 6, N: 30, D: 5, G: 0}, Request{Algorithm: "ta", K: 5, L: FullPaths},
		"055b1b54ccfa3ca3", "{0 0 65 19 300 0 50 0}"},
	{"bfs_full", synth.Config{M: 10, N: 100, D: 5, G: 1}, Request{Algorithm: "bfs", K: 5, L: FullPaths},
		"2d5d240235a9794c", "{1700 1000 327 69 589 0 0 8}"},
	{"bfs_sub", synth.Config{M: 10, N: 100, D: 5, G: 1}, Request{Algorithm: "bfs", K: 5, L: 3},
		"b324484c0591585c", "{1700 1000 231 20 314 0 0 4}"},
	{"normalized", synth.Config{M: 8, N: 8, D: 3, G: 0}, Request{Algorithm: "normalized", K: 5, LMin: 3},
		"ca74e015954916c9", "{280 320 73 40 118 0 0 9}"},
}

func TestSolvePaperShapesPinned(t *testing.T) {
	for _, tc := range pinnedShapes {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 2007
			g, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := solve(g, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Paths) != tc.req.K {
				t.Fatalf("%d paths, want %d", len(res.Paths), tc.req.K)
			}
			if d, s := pathsDigest(res.Paths), fmt.Sprint(res.Stats); d != tc.digest || s != tc.stats {
				t.Errorf("pinned row drifted; solver now produces:\n\t\t%q, %q},", d, s)
			}
		})
	}
}

// TestSolvePaperClassStats pins the same five classes at the scale the
// solve_paper workload runs them (bench/solve.go, generator seed 2007,
// k = 5): Paths by digest and every Stats counter as a literal. The
// wide bfs graphs are where a solve touches a few dozen of 10 000 nodes,
// so a change to how the solvers lay out their per-node state is held
// here to the work it did before.
func TestSolvePaperClassStats(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    synth.Config
		req    Request
		digest string
		stats  Stats
	}{
		{"dfs", synth.Config{M: 6, N: 400, D: 5, G: 1}, Request{Algorithm: "dfs", K: 5, L: FullPaths}, "7fd3ffb322c02c34",
			Stats{NodeReads: 733, NodeWrites: 726, EdgeReads: 733, HeapConsiders: 62, Pruned: 691, Repushes: 129, PeakStatePaths: 9}},
		{"ta", synth.Config{M: 6, N: 300, D: 5, G: 0}, Request{Algorithm: "ta", K: 5, L: FullPaths}, "9ecefddf83490737",
			Stats{EdgeReads: 250, HeapConsiders: 13, Pruned: 380, RandomSeeks: 21}},
		{"bfs_full", synth.Config{M: 10, N: 1000, D: 5, G: 1}, Request{Algorithm: "bfs", K: 5, L: FullPaths}, "24361eebf0e72fe2",
			Stats{NodeReads: 17000, NodeWrites: 10000, EdgeReads: 505, HeapConsiders: 62, Pruned: 528, PeakStatePaths: 8}},
		{"bfs_sub", synth.Config{M: 10, N: 1000, D: 5, G: 1}, Request{Algorithm: "bfs", K: 5, L: 3}, "91fb3f07923f891a",
			Stats{NodeReads: 17000, NodeWrites: 10000, EdgeReads: 210, HeapConsiders: 20, Pruned: 291, PeakStatePaths: 4}},
		{"normalized", synth.Config{M: 8, N: 80, D: 3, G: 0}, Request{Algorithm: "normalized", K: 5, LMin: 3}, "c3e3ab9689309c84",
			Stats{NodeReads: 2800, NodeWrites: 3200, EdgeReads: 62, HeapConsiders: 20, Pruned: 85, PeakStatePaths: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 2007
			g, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := solve(g, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if d := pathsDigest(res.Paths); d != tc.digest || res.Stats != tc.stats {
				t.Errorf("class drifted; solver now produces %q, %#v", d, res.Stats)
			}
		})
	}
}
