package blogclusters

// The three go-test benchmarks here (and BenchmarkShardScatterGather in
// bench_shard_test.go) are NOT the repo's benchmark: bench/ +
// BENCHMARK.json is, and it times every layer (DESIGN.md "Benchmarks").
// Each function below stays only because an open ROADMAP decision still
// needs a before/after that bench/ cannot yet supply; its doc comment
// names the item that retires it. `make bench` prints them to standard
// output; nothing is recorded or gated.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustergraph"
	"repro/internal/cooccur"
	"repro/internal/corpus"
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

// BenchmarkAblationParallelBuild: the sharded parallel keyword-graph
// pipeline (Parallelism 0 = GOMAXPROCS) vs the sequential ablation path
// (Parallelism 1), plus the budget-forced spill route, on the Table 1
// workload. The parallel and sequential variants produce identical
// graphs (see internal/cooccur equivalence tests); this measures the
// cost of that interchangeability. Kept for ROADMAP item 5a: bench/
// builds at one worker count; the knob's scaling curve needs a host
// with more than two cores, and this is what will be run there.
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
// Kept for ROADMAP items 5a (GraphOptions.Parallelism) and 5b
// (UseSimJoin's off-switch): bench/ names `UseSimJoin: true` and one
// worker count, so only this shows the other side of either switch.
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

// BenchmarkAblationParallelClusters: interval-level fan-out of
// AllIntervalClusters (Parallelism 0 = GOMAXPROCS) vs the sequential
// loop, including the split-budget spill route. Kept for ROADMAP item
// 5a, as BenchmarkAblationParallelBuild is.
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
