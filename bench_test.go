package blogclusters

// The two go-test benchmarks (BenchmarkClusterGraph here and
// BenchmarkShardScatterGather in bench_shard_test.go) are NOT the
// repo's benchmark: bench/ + BENCHMARK.json is, and it times every
// layer (DESIGN.md "Benchmarks"). Each stays only because an open
// ROADMAP decision still needs a before/after that bench/ cannot yet
// supply; its doc comment names the item that retires it. `make bench`
// prints them to standard output; nothing is recorded or gated.

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustergraph"
)

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
// 4.1): the quadratic pair loop vs the prefix-filter simjoin. Both
// variants build the identical graph. Kept for ROADMAP item 7(d)
// (UseSimJoin's off-switch): bench/ names `UseSimJoin: true`, so only
// this shows the other side of the switch.
func BenchmarkClusterGraph(b *testing.B) {
	sets := benchClusterSets(8, 200, 6)
	variants := []struct {
		name string
		opts clustergraph.FromClustersOptions
	}{
		{"quad", clustergraph.FromClustersOptions{Gap: 1, Theta: 0.3}},
		{"simjoin", clustergraph.FromClustersOptions{Gap: 1, Theta: 0.3, UseSimJoin: true}},
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
