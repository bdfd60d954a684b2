package blogclusters

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/raceflag"
)

// recurringCorpus is the NewsWeek corpus stretched to any number of
// days: the week's events recur every seven, so stories persist, drift
// and return across the whole span — the shape of the corpus the
// serve_churn benchmark workload serves.
func recurringCorpus(t *testing.T, intervals, posts int) *Collection {
	t.Helper()
	cfg := NewsWeekCorpus(2007, posts)
	cfg.NumIntervals = intervals
	events := cfg.Events
	cfg.Events = nil
	for _, ev := range events {
		out := CorpusEvent{Name: ev.Name}
		for _, ph := range ev.Phases {
			week := ph.Intervals
			ph.Intervals = nil
			for shift := 0; shift < intervals; shift += 7 {
				for _, iv := range week {
					if iv+shift < intervals {
						ph.Intervals = append(ph.Intervals, iv+shift)
					}
				}
			}
			out.Phases = append(out.Phases, ph)
		}
		cfg.Events = append(cfg.Events, out)
	}
	col, err := GenerateCorpus(cfg)
	if err != nil {
		t.Fatalf("generate corpus: %v", err)
	}
	return col
}

// TestSolveBytesOnCorpusGraph is the bytes ceiling beside
// core.TestSolverAllocationCeilings' object ceiling, on the input where
// bytes went wrong: k = 40 on a corpus-derived graph, what a server
// miss solves. An object count cannot see a slice being re-copied as it
// grows — one object each time, ever larger — and k = 5 on a synthetic
// graph hardly grows one; nor can it see a heap's block sized by k
// where the heap holds a few paths. Ceilings are about twice the bytes
// recorded with this test. The first solve on a fresh graph is cold: it
// also builds the parts of the graph's solve index it reads. The second
// and third are warm and must allocate the same: with the collector off
// the spare solver workspace survives from each solve to the next, so a
// warm solve pays for little more than its answer. L is the length bfs,
// dfs and diverse solve for, LMin normalized's minimum.
func TestSolveBytesOnCorpusGraph(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation sizes")
	}
	ctx := context.Background()
	col := recurringCorpus(t, 8, 800)
	for _, tc := range []struct {
		name       string
		req        core.Request
		cold, warm uint64
	}{
		// Recorded: 259 176 cold, 3 344 warm (167 064 warm while each
		// solve allocated its own state, 528 600 while every heap's
		// block held k entries).
		{"bfs", core.Request{Algorithm: "bfs"}, 520_000, 6_800},
		// 326 264 and 8 184 (233 752, 349 208).
		{"dfs", core.Request{Algorithm: "dfs"}, 650_000, 16_500},
		// 439 088 and 4 192 (236 264, 618 280): a cold solve builds U_r
		// for r ≤ m−2 and a start order for every length from lmin.
		{"normalized", core.Request{Algorithm: "normalized"}, 880_000, 8_500},
		// 489 384 and 16 592 (397 272, 1 449 080): bfs at 4·k, then the
		// endpoints filter.
		{"diverse", core.Request{Variant: core.VariantDiverse, Algorithm: "bfs", Mode: "endpoints"}, 980_000, 33_000},
	} {
		tc.req.K, tc.req.L, tc.req.LMin = 40, 3, 3
		t.Run(tc.name, func(t *testing.T) {
			eng := openTestEngine(t, col, WithGraphOptions(GraphOptions{Gap: 1, Theta: 0.1}))
			g, err := eng.Graph(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// TotalAlloc is process-wide; with the collector off, no
			// cycle's bookkeeping lands between the two readings.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			solve := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := core.Solve(ctx, g, tc.req); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			cold, second, third := solve(), solve(), solve()
			t.Logf("%d bytes cold, %d warm", cold, second)
			if second != third {
				t.Errorf("bytes differ between two warm solves of one request: %d then %d", second, third)
			}
			if cold > tc.cold {
				t.Errorf("%d bytes per cold solve, ceiling %d", cold, tc.cold)
			}
			if second > tc.warm {
				t.Errorf("%d bytes per warm solve, ceiling %d", second, tc.warm)
			}
		})
	}
}

// TestDFSWorkOnRecurringCorpus pins DFS's counted work on the corpus
// graphs where it once ran away — at k 5, l 3 the paper's Algorithm 3
// made 4.0 M repushes at 10 × 1 500 and did not finish in 20 s at
// 12 × 1 500 — in counters, not wall clock: DFS must return BFS's
// Paths, two solves must count exactly the same work, and repushes and
// edge reads stay under ceilings about twice those recorded with this
// test. DFS sums a path last hop first and BFS first hop first, so on
// Jaccard weights the two may order a tie group differently; the
// comparison is checkUpToTies', against BFS's top k+1.
func TestDFSWorkOnRecurringCorpus(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		intervals, posts int
		k                int
		repushes, edges  int64
	}{
		// Recorded: 177 repushes and 2 066 edge reads; 0 and 1 926. The
		// bound's sweep is the graph's, so DFS's own reads are counted.
		{8, 800, 5, 360, 4_200},
		{8, 800, 40, 100, 4_000},
		// 0 and 3 960; 311 040 and 410 773.
		{10, 1500, 5, 100, 8_000},
		{10, 1500, 40, 620_000, 850_000},
		// 0 and 4 796; 1 916 246 and 2 994 947. At k 40 prunes still
		// cascade into re-explorations through the unmarking of every
		// stacked node: 8.4 M heap offers where BFS makes 15 k.
		{12, 1500, 5, 100, 9_600},
		{12, 1500, 40, 3_800_000, 6_000_000},
	} {
		t.Run(fmt.Sprintf("%dx%d/k%d", tc.intervals, tc.posts, tc.k), func(t *testing.T) {
			eng := openTestEngine(t, recurringCorpus(t, tc.intervals, tc.posts), WithGraphOptions(GraphOptions{Gap: 1, Theta: 0.1}))
			g, err := eng.Graph(ctx)
			if err != nil {
				t.Fatal(err)
			}
			solve := func(algorithm string, k int) *core.Result {
				res, err := core.Solve(ctx, g, core.Request{Algorithm: algorithm, K: k, L: 3})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			bfs, dfs, again := solve("bfs", tc.k+1), solve("dfs", tc.k), solve("dfs", tc.k)
			t.Logf("%d nodes; dfs %+v", g.NumNodes(), dfs.Stats)
			checkUpToTies(t, "dfs against bfs", dfs.Paths, bfs.Paths, tc.k)
			if again.Stats != dfs.Stats {
				t.Errorf("two solves of one request count %+v then %+v", dfs.Stats, again.Stats)
			}
			if dfs.Stats.Repushes > tc.repushes || dfs.Stats.EdgeReads > tc.edges {
				t.Errorf("%d repushes, %d edge reads; ceilings %d, %d", dfs.Stats.Repushes, dfs.Stats.EdgeReads, tc.repushes, tc.edges)
			}
		})
	}
}

// TestTAWorkOnRecurringCorpus pins TA's counted work on full paths over
// the corpus graphs. Before TA pruned on the suffix bound and its forward
// twin it enumerated prefixes × suffixes unpruned: 269, 1 362 and 473
// random seeks at k 5 on the three corpora below, 13 728, 2 447 and
// 16 939 at k 40. TA must return BFS's Paths up to ties (checkUpToTies,
// against BFS's top k+1), two solves must count exactly the same work,
// and random seeks stay under ceilings about twice those recorded with
// this test.
func TestTAWorkOnRecurringCorpus(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		intervals, posts int
		seeks            map[int]int64 // k → ceiling
	}{
		// Recorded: 93 random seeks at k 5, 1 997 at k 40.
		{6, 800, map[int]int64{5: 190, 40: 4_000}},
		// 298 and 628.
		{8, 800, map[int]int64{5: 600, 40: 1_260}},
		// 228 and 423.
		{10, 1500, map[int]int64{5: 460, 40: 850}},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.intervals, tc.posts), func(t *testing.T) {
			eng := openTestEngine(t, recurringCorpus(t, tc.intervals, tc.posts), WithGraphOptions(GraphOptions{Gap: 1, Theta: 0.1}))
			g, err := eng.Graph(ctx)
			if err != nil {
				t.Fatal(err)
			}
			solve := func(algorithm string, k int) *core.Result {
				res, err := core.Solve(ctx, g, core.Request{Algorithm: algorithm, K: k, L: core.FullPaths})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			for _, k := range []int{5, 40} {
				bfs, ta, again := solve("bfs", k+1), solve("ta", k), solve("ta", k)
				t.Logf("%d nodes, k %d; ta %+v", g.NumNodes(), k, ta.Stats)
				checkUpToTies(t, fmt.Sprintf("ta against bfs at k %d", k), ta.Paths, bfs.Paths, k)
				if again.Stats != ta.Stats {
					t.Errorf("k %d: two solves of one request count %+v then %+v", k, ta.Stats, again.Stats)
				}
				if ta.Stats.RandomSeeks > tc.seeks[k] {
					t.Errorf("k %d: %d random seeks, ceiling %d", k, ta.Stats.RandomSeeks, tc.seeks[k])
				}
			}
		})
	}
}

// TestNormalizedStateBoundedOnWideCorpus solves normalized at k = 40,
// lmin = 3 on two wide recurring corpora, where Section 4.5's per-node
// candidate lists grow without bound (1.3 M paths and 167 MB at
// 10 × 1 500). Normalized runs BFS once per length l, and a run keeps
// at most k paths per node and length x ≤ l, so per-node state must
// stay within k·(m−2) paths a node, the longest run that keeps a heap
// per length; recorded, the peak is 2 057 paths on both corpora, under
// a ceiling of about twice that. Bytes stay under a ceiling about twice
// those recorded with this test.
func TestNormalizedStateBoundedOnWideCorpus(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		intervals int
		ceiling   uint64
	}{
		// Recorded: 1 855 664 bytes (3 244 256 while every heap's block
		// held k entries).
		{10, 3_700_000},
		// 2 638 096 (4 485 440).
		{12, 5_300_000},
	} {
		t.Run(fmt.Sprintf("%dx1500", tc.intervals), func(t *testing.T) {
			eng := openTestEngine(t, recurringCorpus(t, tc.intervals, 1500), WithGraphOptions(GraphOptions{Gap: 1, Theta: 0.1}))
			g, err := eng.Graph(ctx)
			if err != nil {
				t.Fatal(err)
			}
			const k, lmin = 40, 3
			var before, after runtime.MemStats
			gc := debug.SetGCPercent(-1)
			runtime.ReadMemStats(&before)
			res, err := core.Solve(ctx, g, core.Request{Algorithm: "normalized", K: k, LMin: lmin})
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gc)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Paths) != k {
				t.Fatalf("%d paths, want %d", len(res.Paths), k)
			}
			if bound := int64(g.NumNodes() * (g.NumIntervals() - 2) * k); res.Stats.PeakStatePaths > bound {
				t.Errorf("peak state %d paths, above NumNodes·(m−2)·k = %d", res.Stats.PeakStatePaths, bound)
			}
			if res.Stats.PeakStatePaths > 4_100 {
				t.Errorf("peak state %d paths, ceiling 4 100", res.Stats.PeakStatePaths)
			}
			t.Logf("%d nodes: %+v, %d bytes", g.NumNodes(), res.Stats, after.TotalAlloc-before.TotalAlloc)
			if raceflag.Enabled {
				return // the race detector changes allocation sizes
			}
			if b := after.TotalAlloc - before.TotalAlloc; b > tc.ceiling {
				t.Errorf("%d bytes per solve, ceiling %d", b, tc.ceiling)
			}
		})
	}
}

// TestCorpusGraphNodesAscending checks, on a corpus-derived graph and on
// the graph a push extends it to, that NodesAt lists every interval in
// ascending id: the BFS solver pushes an interval's live nodes in that
// order, so that each heap takes its offers as a scan of NodesAt would.
func TestCorpusGraphNodesAscending(t *testing.T) {
	ctx := context.Background()
	col := recurringCorpus(t, 8, 800)
	eng := openTestEngine(t, prefixCol(col, 7), WithGraphOptions(GraphOptions{Gap: 1, Theta: 0.1}))
	check := func(how string) {
		g, err := eng.Graph(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.NumIntervals() {
			if !slices.IsSorted(g.NodesAt(i)) {
				t.Fatalf("%s: NodesAt(%d) is not in ascending id: %v", how, i, g.NodesAt(i))
			}
		}
	}
	check("corpus graph")
	if _, err := eng.Push(ctx, col.Intervals[7]); err != nil {
		t.Fatal(err)
	}
	check("after a push")
}
