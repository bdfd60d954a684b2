package experiments

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
)

// timeSolve generates cfg's graph and times one solve of req on it.
// Every timed solve gets a graph of its own (synth.Generate is
// deterministic): the first solve on a graph builds the graph's solve
// index, the suffix bound's sweeps and TA's sorted edge lists, so a
// solver timed second on a shared graph would skip that cost.
func timeSolve(cfg synth.Config, req core.Request) (time.Duration, *core.Result, error) {
	g, err := synth.Generate(cfg)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	res, err := core.Solve(context.Background(), g, req)
	return time.Since(start), res, err
}

func bfs(k, l int) core.Request { return core.Request{Algorithm: "bfs", K: k, L: l} }

func dfs(k, l int) core.Request { return core.Request{Algorithm: "dfs", K: k, L: l} }

// Table3 reproduces Table 3: BFS vs DFS vs TA wall-clock for top-5 full
// paths, n=400, g=0, d=5, m ∈ {3,6,9,12,15}. TA runs at every m; the
// paper's gave up beyond m=9 (">10 hours" at m=12), where this one
// prunes on the suffix bound and its forward twin.
func Table3(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "table3",
		Title:  "BFS vs DFS vs TA, top-5 full paths (n=400, g=0, d=5)",
		Header: []string{"m", "BFS s", "DFS s", "TA s"},
		Notes: "paper shape: BFS << DFS; TA competitive at m=3, explodes by m=9, infeasible at m=12+ " +
			"(here TA prunes on the suffix bound and its forward twin, so it runs at every m); " +
			"each solver is timed on its own copy of the graph, so each pays for the graph's solve index",
	}
	n := scale.nodes(400)
	for _, m := range []int{3, 6, 9, 12, 15} {
		cfg := synth.Config{Seed: 10 + int64(m), M: m, N: n, D: 5, G: 0}
		bfsT, _, err := timeSolve(cfg, bfs(5, core.FullPaths))
		if err != nil {
			return nil, err
		}
		dfsT, _, err := timeSolve(cfg, dfs(5, core.FullPaths))
		if err != nil {
			return nil, err
		}
		taT, _, err := timeSolve(cfg, core.Request{Algorithm: "ta", K: 5, L: core.FullPaths})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{itoa(m), fmtDur(bfsT), fmtDur(dfsT), fmtDur(taT)})
	}
	return t, nil
}

// Fig7 reproduces Figure 7: BFS, top-5 full paths, g ∈ {0,1,2},
// m = 5..25, n = 1000, d = 5.
func Fig7(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "BFS full paths vs gap g (n=1000, d=5)",
		Header: []string{"m", "g=0 s", "g=1 s", "g=2 s"},
		Notes:  "paper shape: times grow with m; larger g costs more, but the effect is milder than for DFS",
	}
	n := scale.nodes(1000)
	for _, m := range []int{5, 10, 15, 20, 25} {
		row := []string{itoa(m)}
		for _, g := range []int{0, 1, 2} {
			d, _, err := timeSolve(synth.Config{Seed: int64(100*m + g), M: m, N: n, D: 5, G: g}, bfs(5, core.FullPaths))
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig8 reproduces Figure 8: BFS, top-5 full paths, d ∈ {3,5,7},
// m = 5..25, n = 1000, g = 2.
func Fig8(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "BFS full paths vs out-degree d (n=1000, g=2)",
		Header: []string{"m", "d=3 s", "d=5 s", "d=7 s"},
		Notes:  "paper shape: running time positively correlated with d",
	}
	n := scale.nodes(1000)
	for _, m := range []int{5, 10, 15, 20, 25} {
		row := []string{itoa(m)}
		for _, d := range []int{3, 5, 7} {
			dur, _, err := timeSolve(synth.Config{Seed: int64(200*m + d), M: m, N: n, D: d, G: 2}, bfs(5, core.FullPaths))
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(dur))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig9 reproduces Figure 9: BFS scalability in n (2000..14000) for
// m ∈ {25, 50}, d = 5, g = 1. Expect linear growth in n.
func Fig9(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "BFS scalability in nodes per interval (d=5, g=1)",
		Header: []string{"n", "m=25 s", "m=50 s"},
		Notes:  "paper shape: running time linear in n",
	}
	for _, n := range []int{2000, 5000, 8000, 11000, 14000} {
		row := []string{itoa(scale.nodes(n))}
		for _, m := range []int{25, 50} {
			dur, _, err := timeSolve(synth.Config{Seed: int64(n + m), M: m, N: scale.nodes(n), D: 5, G: 1}, bfs(5, core.FullPaths))
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(dur))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig10 reproduces Figure 10: BFS seeking top-5 subpaths of length l
// over m = 15 intervals, n = 500..2500, d = 5, g = 2.
func Fig10(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "BFS subpaths of length l (m=15, d=5, g=2)",
		Header: []string{"n", "l=4 s", "l=8 s", "l=12 s"},
		Notes:  "paper shape: time grows with l (more heaps per node) and linearly with n",
	}
	for _, n := range []int{500, 1000, 1500, 2000, 2500} {
		row := []string{itoa(scale.nodes(n))}
		for _, l := range []int{4, 8, 12} {
			dur, _, err := timeSolve(synth.Config{Seed: int64(10*n + l), M: 15, N: scale.nodes(n), D: 5, G: 2}, bfs(5, l))
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(dur))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig11 reproduces Figure 11: DFS, top-5 full paths for varying m and
// n; g = 1, d = 5.
func Fig11(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "DFS full paths (g=1, d=5)",
		Header: []string{"n", "m=3 s", "m=6 s", "m=9 s"},
		Notes:  "paper shape: DFS grows much faster than BFS in both m and n",
	}
	for _, n := range []int{100, 200, 400} {
		row := []string{itoa(scale.nodes(n))}
		for _, m := range []int{3, 6, 9} {
			dur, _, err := timeSolve(synth.Config{Seed: int64(20*n + m), M: m, N: scale.nodes(n), D: 5, G: 1}, dfs(5, core.FullPaths))
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(dur))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig12 reproduces Figure 12: DFS, top-5 full paths vs gap g as the
// average out-degree grows; m = 6, n = 400.
func Fig12(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "fig12",
		Title:  "DFS full paths vs gap and out-degree (m=6, n=400)",
		Header: []string{"d", "g=0 s", "g=1 s", "g=2 s"},
		Notes:  "paper shape: DFS more sensitive to g than BFS — time more than doubles from g=0 to g=2",
	}
	n := scale.nodes(400)
	for _, d := range []int{2, 4, 6, 8} {
		row := []string{itoa(d)}
		for _, g := range []int{0, 1, 2} {
			dur, _, err := timeSolve(synth.Config{Seed: int64(30*d + g), M: 6, N: n, D: d, G: g}, dfs(5, core.FullPaths))
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(dur))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig13 reproduces Figure 13: DFS seeking top-5 subpaths of length l;
// m = 6, d = 5, g = 1.
func Fig13(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "DFS subpaths of length l (m=6, d=5, g=1)",
		Header: []string{"n", "l=2 s", "l=3 s", "l=4 s"},
		Notes:  "paper shape: time grows with l and with n",
	}
	for _, n := range []int{100, 200, 300} {
		row := []string{itoa(scale.nodes(n))}
		for _, l := range []int{2, 3, 4} {
			dur, _, err := timeSolve(synth.Config{Seed: int64(40*n + l), M: 6, N: scale.nodes(n), D: 5, G: 1}, dfs(5, l))
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(dur))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig14 reproduces Figure 14: BFS-based normalized stable clusters,
// top-5 with length >= lmin; n = 400, d = 3, g = 0, m = 6..14.
func Fig14(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "normalized stable clusters vs lmin (n=400, d=3, g=0)",
		Header: []string{"m", "lmin=2 s", "lmin=3 s", "lmin=4 s"},
		Notes: "paper shape: time grows with m and with lmin; the solver is exact — pruned BFS at every length from lmin to m−1, merged by stability — not the paper's Theorem 1 candidate lists; " +
			"each solve is cold and builds a start order per length, so a smaller lmin, with more lengths, costs more here",
	}
	n := scale.nodes(400)
	for _, m := range []int{6, 8, 10, 12, 14} {
		row := []string{itoa(m)}
		for _, lmin := range []int{2, 3, 4} {
			dur, _, err := timeSolve(synth.Config{Seed: int64(50*m + lmin), M: m, N: n, D: 3, G: 0},
				core.Request{Algorithm: "normalized", K: 5, LMin: lmin})
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(dur))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// KSensitivity reproduces the Section 5.2 claim that k barely affects
// running time.
func KSensitivity(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "ksens",
		Title:  "impact of k on running time (m=9, n=400, d=5, g=1)",
		Header: []string{"k", "BFS s", "DFS s"},
		Notes: "paper shape: minimal impact; times increase slowly with k; " +
			"each solve runs on its own copy of the graph, so each pays for the graph's solve index",
	}
	cfg := synth.Config{Seed: 60, M: 9, N: scale.nodes(400), D: 5, G: 1}
	for _, k := range []int{1, 5, 10, 25} {
		bfsT, _, err := timeSolve(cfg, bfs(k, core.FullPaths))
		if err != nil {
			return nil, err
		}
		dfsT, _, err := timeSolve(cfg, dfs(k, core.FullPaths))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{itoa(k), fmtDur(bfsT), fmtDur(dfsT)})
	}
	return t, nil
}

// Memory reproduces the Section 5.2 memory comparison: "for finding
// top-3 paths of length 6 on a dataset with n=2000, m=9 and g=0, DFS
// required less than 2MB RAM as compared to 35MB for BFS". The proxy
// is the peak number of paths held in live per-node state, plus an
// approximate byte figure. The claim is about the paper's Algorithms 2
// and 3; both solvers here prune on an exact suffix bound, and BFS
// pushes only the few nodes that hold a path or can start one, so the
// measured gap runs the other way.
func Memory(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "memory",
		Title:  "peak in-memory state, BFS vs DFS (top-3, l=6, n=2000, m=9, g=0)",
		Header: []string{"algorithm", "peak paths", "approx bytes", "seconds"},
		Notes: "paper: DFS < 2MB vs BFS 35MB, for its unbounded Algorithms 2 and 3; with the suffix bound " +
			"both hold a few dozen paths at most and BFS holds fewer than DFS (3–4 vs 15–26 at scales 0.05–1); " +
			"each solver is timed on its own copy of the graph, so each pays for the graph's solve index",
	}
	cfg := synth.Config{Seed: 61, M: 9, N: scale.nodes(2000), D: 5, G: 0}
	const pathBytes = 96 // nodes slice + header + weight/length, rough
	bfsT, bfsRes, err := timeSolve(cfg, bfs(3, 6))
	if err != nil {
		return nil, err
	}
	dfsT, dfsRes, err := timeSolve(cfg, dfs(3, 6))
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"BFS", i64toa(bfsRes.Stats.PeakStatePaths),
		i64toa(bfsRes.Stats.PeakStatePaths * pathBytes), fmtDur(bfsT),
	})
	t.Rows = append(t.Rows, []string{
		"DFS", i64toa(dfsRes.Stats.PeakStatePaths),
		i64toa(dfsRes.Stats.PeakStatePaths * pathBytes), fmtDur(dfsT),
	})
	return t, nil
}
