package blogclusters

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices called out in DESIGN.md.
// Parameters are scaled to benchmark-friendly sizes; the full-scale
// sweeps live in cmd/experiments (go run ./cmd/experiments -scale 1).

import (
	"context"
	binenc "encoding/binary"
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/bicc"
	"repro/internal/cluster"
	"repro/internal/clustergraph"
	"repro/internal/cooccur"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extsort"
	"repro/internal/index"
	"repro/internal/simjoin"
	"repro/internal/stats"
	"repro/internal/synth"
)

func benchCorpus(b *testing.B, posts int) *corpus.Collection {
	b.Helper()
	col, err := corpus.Generate(corpus.GeneratorConfig{
		Seed: 1, NumIntervals: 2, BackgroundPosts: posts,
		BackgroundVocab: 2000, WordsPerPost: 10,
		Events: []corpus.Event{{Name: "e", Phases: []corpus.Phase{{
			Keywords: []string{"alpha", "beta", "gamma"}, Intervals: []int{0, 1}, Posts: posts / 20,
		}}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return col
}

func benchGraph(b *testing.B, m, n, d, g int) *clustergraph.Graph {
	b.Helper()
	cg, err := synth.Generate(synth.Config{Seed: 1, M: m, N: n, D: d, G: g})
	if err != nil {
		b.Fatal(err)
	}
	return cg
}

// benchSolve runs one unified-dispatch solve.
func benchSolve(b *testing.B, g *clustergraph.Graph, req core.Request) {
	b.Helper()
	if _, err := core.Solve(context.Background(), g, req); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable1KeywordGraph measures keyword-graph construction (the
// Section 3 single-pass + external-sort pipeline behind Table 1).
func BenchmarkTable1KeywordGraph(b *testing.B) {
	col := benchCorpus(b, 800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := cooccur.Build(col, 0, 0, cooccur.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if g.NumEdges() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkFig6ArtVsRho measures the χ²/ρ pruning plus the Art
// (biconnected components) run as the ρ threshold varies — Figure 6's
// curve.
func BenchmarkFig6ArtVsRho(b *testing.B) {
	col := benchCorpus(b, 800)
	g, err := cooccur.Build(col, 0, 0, cooccur.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	g.AnnotateStats()
	for _, rho := range []float64{0.2, 0.5, 0.8} {
		b.Run(fmt.Sprintf("rho%.1f", rho), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pruned := g.Prune(stats.ChiSquared95, rho)
				bg := bicc.NewGraph(pruned.NumVertices())
				for _, e := range pruned.Edges {
					bg.AddEdge(e.U, e.V)
				}
				bicc.Decompose(bg)
			}
		})
	}
}

// BenchmarkTable3BFSvsDFSvsTA compares the three solvers for top-5
// full paths (Table 3; n scaled down, m = 6).
func BenchmarkTable3BFSvsDFSvsTA(b *testing.B) {
	g := benchGraph(b, 6, 100, 5, 0)
	for _, algo := range []string{"bfs", "dfs", "ta"} {
		b.Run(algo, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{Algorithm: algo, K: 5, L: core.FullPaths})
			}
		})
	}
}

// BenchmarkFig7BFSGap sweeps the gap (Figure 7).
func BenchmarkFig7BFSGap(b *testing.B) {
	for _, gap := range []int{0, 1, 2} {
		g := benchGraph(b, 10, 200, 5, gap)
		b.Run(fmt.Sprintf("g%d", gap), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{K: 5, L: core.FullPaths})
			}
		})
	}
}

// BenchmarkFig8BFSDegree sweeps the out-degree (Figure 8).
func BenchmarkFig8BFSDegree(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		g := benchGraph(b, 10, 200, d, 2)
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{K: 5, L: core.FullPaths})
			}
		})
	}
}

// BenchmarkFig9BFSScale sweeps nodes per interval (Figure 9).
func BenchmarkFig9BFSScale(b *testing.B) {
	for _, n := range []int{500, 1000, 2000} {
		g := benchGraph(b, 25, n, 5, 1)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{K: 5, L: core.FullPaths})
			}
		})
	}
}

// BenchmarkFig10BFSSubpaths sweeps the subpath length (Figure 10).
func BenchmarkFig10BFSSubpaths(b *testing.B) {
	g := benchGraph(b, 15, 300, 5, 2)
	for _, l := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("l%d", l), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{K: 5, L: l})
			}
		})
	}
}

// BenchmarkFig11DFS sweeps m for the DFS solver (Figure 11).
func BenchmarkFig11DFS(b *testing.B) {
	for _, m := range []int{3, 6, 9} {
		g := benchGraph(b, m, 100, 5, 1)
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{Algorithm: "dfs", K: 5, L: core.FullPaths})
			}
		})
	}
}

// BenchmarkFig12DFSGapDegree sweeps the gap at fixed degree for DFS
// (Figure 12).
func BenchmarkFig12DFSGapDegree(b *testing.B) {
	for _, gap := range []int{0, 1, 2} {
		g := benchGraph(b, 6, 100, 4, gap)
		b.Run(fmt.Sprintf("g%d", gap), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{Algorithm: "dfs", K: 5, L: core.FullPaths})
			}
		})
	}
}

// BenchmarkFig13DFSSubpaths sweeps the subpath length for DFS
// (Figure 13).
func BenchmarkFig13DFSSubpaths(b *testing.B) {
	g := benchGraph(b, 6, 80, 5, 1)
	for _, l := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("l%d", l), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{Algorithm: "dfs", K: 5, L: l})
			}
		})
	}
}

// BenchmarkFig14Normalized sweeps lmin for the normalized solver
// (Figure 14).
func BenchmarkFig14Normalized(b *testing.B) {
	g := benchGraph(b, 8, 80, 3, 0)
	for _, lmin := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("lmin%d", lmin), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{Algorithm: "normalized", K: 5, LMin: lmin})
			}
		})
	}
}

// BenchmarkKSensitivity sweeps k (the Section 5.2 sensitivity claim).
func BenchmarkKSensitivity(b *testing.B) {
	g := benchGraph(b, 9, 100, 5, 1)
	for _, k := range []int{1, 5, 25} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{K: k, L: core.FullPaths})
			}
		})
	}
}

// --- Ablations (DESIGN.md Section 4) ---

// BenchmarkAblationDFSChildOrder: children sorted by descending weight
// (the paper's heuristic) vs worst-first.
func BenchmarkAblationDFSChildOrder(b *testing.B) {
	g := benchGraph(b, 6, 100, 5, 0)
	for _, worst := range []bool{false, true} {
		name := "sorted"
		if worst {
			name = "worstFirst"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{Algorithm: "dfs", K: 5, L: core.FullPaths, WorstFirstChildren: worst})
			}
		})
	}
}

// BenchmarkAblationDFSPruning: CanPrune on vs off.
func BenchmarkAblationDFSPruning(b *testing.B) {
	g := benchGraph(b, 6, 100, 5, 0)
	for _, disabled := range []bool{false, true} {
		name := "pruning"
		if disabled {
			name = "noPruning"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{Algorithm: "dfs", K: 5, L: core.FullPaths, DisablePruning: disabled})
			}
		})
	}
}

// BenchmarkAblationTAHashTables: the startwts/endwts upper-bound
// optimization of Section 4.4 on vs off.
func BenchmarkAblationTAHashTables(b *testing.B) {
	g := benchGraph(b, 6, 100, 4, 0)
	for _, disabled := range []bool{false, true} {
		name := "bounds"
		if disabled {
			name = "noBounds"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{Algorithm: "ta", K: 5, L: core.FullPaths, DisableBoundHashTables: disabled})
			}
		})
	}
}

// BenchmarkAblationBFSFullPathFastPath: the single-heap optimization
// for l = m−1 on vs off.
func BenchmarkAblationBFSFullPathFastPath(b *testing.B) {
	g := benchGraph(b, 10, 300, 5, 1)
	for _, disabled := range []bool{false, true} {
		name := "fastPath"
		if disabled {
			name = "generic"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSolve(b, g, core.Request{K: 5, L: core.FullPaths, DisableFullPathFastPath: disabled})
			}
		})
	}
}

// BenchmarkAblationParallelBuild: the sharded parallel keyword-graph
// pipeline (Parallelism 0 = GOMAXPROCS) vs the sequential ablation path
// (Parallelism 1), plus the budget-forced spill route, on the Table 1
// workload. The parallel and sequential variants produce identical
// graphs (see internal/cooccur equivalence tests); this measures the
// cost of that interchangeability.
func BenchmarkAblationParallelBuild(b *testing.B) {
	col := benchCorpus(b, 800)
	variants := []struct {
		name string
		opts cooccur.BuildOptions
	}{
		{"sequential", cooccur.BuildOptions{Parallelism: 1}},
		{"parallel", cooccur.BuildOptions{}},
		{"parallelSpill", cooccur.BuildOptions{MemBudget: 64 << 10}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := cooccur.Build(col, 0, 0, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				if g.NumEdges() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkAblationSimJoin: prefix-filter similarity join vs the
// quadratic loop for cluster-graph edges.
func BenchmarkAblationSimJoin(b *testing.B) {
	var left, right []cluster.Cluster
	for i := 0; i < 400; i++ {
		left = append(left, cluster.New(int64(i), 0, kwSet(i, 6)))
		right = append(right, cluster.New(int64(i), 1, kwSet(i+200, 6)))
	}
	b.Run("prefixFilter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := simjoin.Join(left, right, 0.3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nestedLoop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := simjoin.JoinBrute(left, right, 0.3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func kwSet(seed, n int) []string {
	kws := make([]string, 0, n)
	for i := 0; i < n; i++ {
		kws = append(kws, fmt.Sprintf("w%04d", (seed*31+i*7)%3000))
	}
	return kws
}

// benchClusterSets builds per-interval cluster sets with controlled
// cross-interval overlap for the Section 4 construction benchmarks.
func benchClusterSets(m, perInterval, kw int) [][]cluster.Cluster {
	sets := make([][]cluster.Cluster, m)
	for i := 0; i < m; i++ {
		cs := make([]cluster.Cluster, perInterval)
		for j := 0; j < perInterval; j++ {
			cs[j] = cluster.New(int64(j), i, kwSet(i*37+j, kw))
		}
		sets[i] = cs
	}
	return sets
}

// BenchmarkClusterGraph measures cluster-graph construction (Section
// 4.1): the quadratic pair loop vs the prefix-filter simjoin, each
// sequential (Parallelism 1, the ablation baseline) and sharded by
// (interval, gap-offset) pair. All variants build the identical graph.
func BenchmarkClusterGraph(b *testing.B) {
	sets := benchClusterSets(8, 200, 6)
	variants := []struct {
		name string
		opts clustergraph.FromClustersOptions
	}{
		{"quadSeq", clustergraph.FromClustersOptions{Gap: 1, Theta: 0.3, Parallelism: 1}},
		{"quadPar", clustergraph.FromClustersOptions{Gap: 1, Theta: 0.3}},
		{"simjoinSeq", clustergraph.FromClustersOptions{Gap: 1, Theta: 0.3, UseSimJoin: true, Parallelism: 1}},
		{"simjoinPar", clustergraph.FromClustersOptions{Gap: 1, Theta: 0.3, UseSimJoin: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := clustergraph.FromClusters(sets, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				if g.NumEdges() == 0 {
					b.Fatal("edgeless graph")
				}
			}
		})
	}
}

// BenchmarkSimJoin measures the similarity join itself: rebuilding the
// token vocabulary per call (the old Join behavior) vs interning it
// once and reusing records across calls, sequential and with
// partitioned probes.
func BenchmarkSimJoin(b *testing.B) {
	var left, right []cluster.Cluster
	for i := 0; i < 600; i++ {
		left = append(left, cluster.New(int64(i), 0, kwSet(i, 6)))
		right = append(right, cluster.New(int64(i), 1, kwSet(i+300, 6)))
	}
	b.Run("rebuildVocab", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := simjoin.Join(left, right, 0.3); err != nil {
				b.Fatal(err)
			}
		}
	})
	v := simjoin.NewVocab(left, right)
	lrec, err := v.Records(left)
	if err != nil {
		b.Fatal(err)
	}
	rrec, err := v.Records(right)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reuseVocabSeq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := v.JoinRecords(lrec, rrec, 0.3, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reuseVocabPar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := v.JoinRecords(lrec, rrec, 0.3, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationParallelClusters: interval-level fan-out of
// AllIntervalClusters (Parallelism 0 = GOMAXPROCS) vs the sequential
// loop, including the split-budget spill route.
func BenchmarkAblationParallelClusters(b *testing.B) {
	col, err := GenerateCorpus(NewsWeekCorpus(2007, 120))
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opts ClusterOptions
	}{
		{"sequential", ClusterOptions{Parallelism: 1}},
		{"parallel", ClusterOptions{}},
		{"parallelSplitBudget", ClusterOptions{MemBudget: 256 << 10}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sets, err := allIntervalClustersCtx(context.Background(), col, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(sets) != 7 {
					b.Fatalf("want 7 interval sets, got %d", len(sets))
				}
			}
		})
	}
}

// benchIndexCorpus is the corpus behind the index-backend benches: a
// few intervals, a mid-size vocabulary, enough postings that the disk
// layout spans many blocks.
func benchIndexCorpus(b *testing.B) *corpus.Collection {
	b.Helper()
	col, err := corpus.Generate(corpus.GeneratorConfig{
		Seed: 3, NumIntervals: 3, BackgroundPosts: 2500,
		BackgroundVocab: 1500, WordsPerPost: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	return col
}

// BenchmarkDiskIndexBuild measures building the keyword index: the
// resident map layout vs streaming the postings through extsort into
// the on-disk segment.
func BenchmarkDiskIndexBuild(b *testing.B) {
	col := benchIndexCorpus(b)
	b.Run("mem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := index.New(col); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("disk", func(b *testing.B) {
		dir := b.TempDir()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			path := filepath.Join(dir, fmt.Sprintf("seg-%d", i%4))
			if err := index.BuildDisk(col, path, index.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiskIndexSearch measures two-keyword boolean search on both
// backends; the disk variants differ in block-cache budget (the warm
// path serves from the LRU, the cold path pays block reads).
func BenchmarkDiskIndexSearch(b *testing.B) {
	col := benchIndexCorpus(b)
	x, err := index.New(col)
	if err != nil {
		b.Fatal(err)
	}
	vocab := x.Vocabulary(0)
	if len(vocab) < 2 {
		b.Fatal("tiny vocabulary")
	}
	path := filepath.Join(b.TempDir(), "seg")
	if err := index.BuildDisk(col, path, index.Config{}); err != nil {
		b.Fatal(err)
	}
	b.Run("mem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x.Search([]string{vocab[i%len(vocab)], vocab[(i*7)%len(vocab)]}, i%3)
		}
	})
	for _, v := range []struct {
		name   string
		budget int
	}{
		{"diskWarm", 0},        // default 8 MiB cache: everything stays resident
		{"diskCold", 16 << 10}, // 16 KiB cache: most lookups hit disk
	} {
		b.Run(v.name, func(b *testing.B) {
			d, err := index.OpenDisk(path, index.Config{MemBudget: v.budget})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Search([]string{vocab[i%len(vocab)], vocab[(i*7)%len(vocab)]}, i%3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQualitativePipeline runs the full Section 5.3 pipeline end
// to end on a small news week.
func BenchmarkQualitativePipeline(b *testing.B) {
	col, err := GenerateCorpus(NewsWeekCorpus(2007, 120))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		sets, err := allIntervalClustersCtx(ctx, col, ClusterOptions{})
		if err != nil {
			b.Fatal(err)
		}
		g, err := buildClusterGraphCtx(ctx, sets, GraphOptions{Gap: 2, Theta: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Solve(ctx, g, core.Request{K: 5, L: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtsortPostingRecords is the before/after line for the
// external sorter's record formats on index-shaped data: "text" is the
// original newline-terminated framing with the order-preserving hex
// tuple encoding BuildDisk used through PR 3; "binary" is the
// length-prefixed framing with big-endian fixed-width integers that
// BuildDisk uses now. Both force spills and a multi-run merge, so the
// measured delta is the full encode → spill → merge → decode path.
func BenchmarkExtsortPostingRecords(b *testing.B) {
	const nRecords = 20000
	terms := make([]string, 64)
	for i := range terms {
		terms[i] = fmt.Sprintf("keyword%02d", i)
	}
	run := func(b *testing.B, binary bool, encode func(interval int, term string, doc int64) string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := extsort.NewWithOptions(extsort.Options{MemoryBudget: 64 << 10, Binary: binary})
			for r := 0; r < nRecords; r++ {
				rec := encode(r%7, terms[r%len(terms)], int64(r))
				if err := s.Add(rec); err != nil {
					b.Fatal(err)
				}
			}
			it, err := s.Sort()
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				n++
			}
			if err := it.Err(); err != nil {
				b.Fatal(err)
			}
			it.Close()
			if n != nRecords {
				b.Fatalf("lost records: %d of %d", n, nRecords)
			}
		}
	}
	b.Run("text", func(b *testing.B) {
		run(b, false, func(interval int, term string, doc int64) string {
			return fmt.Sprintf("%08x\x00%s\x00%016x", uint32(interval), term, uint64(doc))
		})
	})
	b.Run("binary", func(b *testing.B) {
		var buf []byte
		run(b, true, func(interval int, term string, doc int64) string {
			buf = binenc.BigEndian.AppendUint32(buf[:0], uint32(interval))
			buf = append(buf, term...)
			buf = append(buf, 0)
			buf = binenc.BigEndian.AppendUint64(buf, uint64(doc))
			return string(buf)
		})
	})
}

// BenchmarkExtsortPreMergeCombine is the before/after line for
// aggregating pre-merges (Options.Combine) on pair-count-shaped data:
// many spilled runs that each re-emit the same hot keys, the workload
// cooccur's sharded counting produces under a tight memory budget.
// "plain" carries every duplicate to the consumer; "combine" collapses
// equal keys during the grouped pre-merge, shrinking every downstream
// merge pass.
func BenchmarkExtsortPreMergeCombine(b *testing.B) {
	const (
		nRuns  = 96
		nKeys  = 400
		fanIn  = 8
		keyLen = 16
	)
	runRecs := make([][]string, nRuns)
	for r := range runRecs {
		recs := make([]string, nKeys)
		for k := 0; k < nKeys; k++ {
			recs[k] = fmt.Sprintf("%0*x %d", keyLen, uint64(k), r+k+1)
		}
		runRecs[r] = recs
	}
	combine := func(acc, next string) (string, bool) {
		if len(acc) <= keyLen || len(next) <= keyLen || acc[:keyLen+1] != next[:keyLen+1] {
			return "", false
		}
		a, err := strconv.ParseInt(acc[keyLen+1:], 10, 64)
		if err != nil {
			return "", false
		}
		bb, err := strconv.ParseInt(next[keyLen+1:], 10, 64)
		if err != nil {
			return "", false
		}
		buf := make([]byte, 0, len(acc)+4)
		buf = append(buf, acc[:keyLen+1]...)
		buf = strconv.AppendInt(buf, a+bb, 10)
		return string(buf), true
	}
	for _, v := range []struct {
		name    string
		combine func(acc, next string) (string, bool)
	}{
		{"plain", nil},
		{"combine", combine},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := extsort.NewWithOptions(extsort.Options{FanIn: fanIn, Combine: v.combine})
				for _, recs := range runRecs {
					if err := s.AddSortedRun(recs); err != nil {
						b.Fatal(err)
					}
				}
				it, err := s.Sort()
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					n++
				}
				if err := it.Err(); err != nil {
					b.Fatal(err)
				}
				it.Close()
				if n == 0 || (v.combine == nil && n != nRuns*nKeys) {
					b.Fatalf("bad record count %d", n)
				}
			}
		})
	}
}

// benchPushCollection builds an m-interval corpus for the live-ingest
// benches, with a persistent event so every interval has postings for
// the probed keywords.
func benchPushCollection(b *testing.B, m, posts int) *corpus.Collection {
	b.Helper()
	intervals := make([]int, m)
	for i := range intervals {
		intervals[i] = i
	}
	col, err := corpus.Generate(corpus.GeneratorConfig{
		Seed: 7, NumIntervals: m, BackgroundPosts: posts,
		BackgroundVocab: 1500, WordsPerPost: 8,
		Events: []corpus.Event{{Name: "e", Phases: []corpus.Phase{{
			Keywords:  []string{"alpha", "beta", "gamma"},
			Intervals: intervals, Posts: posts / 10, KeywordProb: 0.9,
		}}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return col
}

// BenchmarkPushInterval measures ingesting one interval into a warm
// session: the timed region is Engine.Push — delta-segment encode plus
// the incremental extension of the memoized clusters, graph and burst
// totals — never a full-corpus rebuild. Engine setup and warming run
// off the clock.
func BenchmarkPushInterval(b *testing.B) {
	ctx := context.Background()
	col := benchPushCollection(b, 4, 500)
	base := &corpus.Collection{Intervals: col.Intervals[:3:3]}
	for _, backend := range []string{"mem", "disk"} {
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := Open(ctx, FromCollection(base),
					WithGraphOptions(GraphOptions{Gap: 1, Theta: 0.1}),
					WithIndexOptions(IndexOptions{Backend: backend, CompactAfter: -1}))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Clusters(ctx); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Graph(ctx); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.TimeSeries(ctx, "alpha"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := eng.Push(ctx, col.Intervals[3]); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				eng.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkMultiSegmentSearch measures boolean search against a disk
// store grown to 1/4/16 delta segments, before and after compaction:
// the pre-compaction read-time routing overhead versus the folded
// single-segment base.
func BenchmarkMultiSegmentSearch(b *testing.B) {
	ctx := context.Background()
	col := benchPushCollection(b, 17, 200)
	terms := []string{"alpha", "beta"}
	for _, deltas := range []int{1, 4, 16} {
		for _, compacted := range []bool{false, true} {
			segs := deltas + 1
			if compacted {
				segs = 1
			}
			b.Run(fmt.Sprintf("deltas=%d/segments=%d", deltas, segs), func(b *testing.B) {
				baseN := len(col.Intervals) - deltas
				baseCol := &corpus.Collection{Intervals: col.Intervals[:baseN:baseN]}
				st, err := index.OpenStore(ctx, baseCol, index.BackendDisk,
					filepath.Join(b.TempDir(), "base.seg"), index.Config{CompactAfter: -1})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				for _, iv := range col.Intervals[baseN:] {
					if err := st.Push(ctx, iv); err != nil {
						b.Fatal(err)
					}
				}
				if compacted {
					if err := st.Compact(ctx); err != nil {
						b.Fatal(err)
					}
				}
				if got := st.NumSegments(); got != segs {
					b.Fatalf("NumSegments = %d, want %d", got, segs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := st.Search(terms, i%len(col.Intervals)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
