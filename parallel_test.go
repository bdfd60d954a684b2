package blogclusters

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustergraph"
	"repro/internal/corpus"
)

// setsFingerprint serializes per-interval cluster sets for exact
// comparison.
func setsFingerprint(sets [][]Cluster) string {
	var b strings.Builder
	for i, cs := range sets {
		fmt.Fprintf(&b, "t%d n%d\n", i, len(cs))
		for _, c := range cs {
			fmt.Fprintf(&b, " %d@%d %v\n", c.ID, c.Interval, c.Keywords)
		}
	}
	return b.String()
}

// graphFingerprint serializes a cluster graph for exact comparison.
func graphFingerprint(g *ClusterGraph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "m=%d gap=%d nodes=%d edges=%d max=%b\n",
		g.NumIntervals(), g.Gap(), g.NumNodes(), g.NumEdges(), g.MaxWeight())
	for id := int64(0); id < int64(g.NumNodes()); id++ {
		fmt.Fprintf(&b, "n%d t%d %v\n", id, g.Interval(id), g.Cluster(id).Keywords)
		for _, h := range g.Children(id) {
			fmt.Fprintf(&b, " c%d w%b l%d\n", h.Peer, h.Weight, h.Length)
		}
		for _, h := range g.Parents(id) {
			fmt.Fprintf(&b, " p%d w%b l%d\n", h.Peer, h.Weight, h.Length)
		}
	}
	return b.String()
}

// sequentialClusterSets is the reference the interval pool is held to:
// a plain loop of intervalClustersCtx with the whole budget.
func sequentialClusterSets(t *testing.T, c *Collection) [][]Cluster {
	t.Helper()
	sets := make([][]Cluster, len(c.Intervals))
	for i := range c.Intervals {
		var err error
		if sets[i], err = intervalClustersCtx(context.Background(), corpus.Tokenize(c.Intervals[i:i+1]), i, ClusterOptions{}); err != nil {
			t.Fatalf("interval %d: %v", i, err)
		}
	}
	return sets
}

// sequentialClusterGraph is the reference the edge tasks are held to:
// every node through clustergraph.NewBuilder in interval order, then
// one nested loop over the cluster pairs of intervals at most gap+1
// apart, scored by Jaccard.
func sequentialClusterGraph(t *testing.T, sets [][]Cluster, opts GraphOptions) *ClusterGraph {
	t.Helper()
	b, err := clustergraph.NewBuilder(len(sets), opts.Gap)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([][]int64, len(sets))
	for i, cs := range sets {
		for _, c := range cs {
			id, err := b.AddNode(i, c)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = append(ids[i], id)
		}
	}
	for i := range sets {
		for j := i + 1; j <= i+opts.Gap+1 && j < len(sets); j++ {
			for a, ca := range sets[i] {
				for bj, cb := range sets[j] {
					if w := cluster.Jaccard(ca, cb); w >= opts.Theta && w > 0 {
						if err := b.AddEdge(ids[i][a], ids[j][bj], w); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	return b.Build(false)
}

// TestSection4ParallelEquivalence runs the Section 4 pipeline's two
// pooled stages — the interval pool, then the cluster-graph edge tasks
// on the quadratic and simjoin paths, with a gap — and asserts each
// stage's output is identical to a plain sequential loop's. `make
// cpu-matrix` runs it at 1, 2 and 8 workers.
func TestSection4ParallelEquivalence(t *testing.T) {
	c := endToEndCorpus(t)

	baseSets := sequentialClusterSets(t, c)
	total := 0
	for _, cs := range baseSets {
		total += len(cs)
	}
	if total == 0 {
		t.Fatal("no clusters; corpus too sparse to be a real test")
	}
	sets, err := allIntervalClustersCtx(context.Background(), c, corpus.Tokenizing(c), ClusterOptions{})
	if err != nil {
		t.Fatalf("interval pool: %v", err)
	}
	if setsFingerprint(sets) != setsFingerprint(baseSets) {
		t.Fatal("interval pool: cluster sets differ from the sequential loop")
	}

	for _, v := range []struct {
		name string
		opts GraphOptions
	}{
		{"gap0", GraphOptions{Gap: 0, Theta: 0.1}},
		{"gap2", GraphOptions{Gap: 2, Theta: 0.1}},
	} {
		want := sequentialClusterGraph(t, baseSets, v.opts)
		if want.NumEdges() == 0 {
			t.Fatalf("%s: no edges; workload too sparse to be a real test", v.name)
		}
		g, err := buildClusterGraphCtx(context.Background(), sets, v.opts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if graphFingerprint(g) != graphFingerprint(want) {
			t.Fatalf("%s: graph differs from the sequential loop", v.name)
		}
	}
}

// TestAllIntervalClustersBudgetSplit: ClusterOptions.MemBudget is
// accepted and ignored since the pair budget it split across interval
// workers went with the spill route; a tiny budget must still leave the
// interval pool's cluster sets identical to the sequential loop's.
func TestAllIntervalClustersBudgetSplit(t *testing.T) {
	c := endToEndCorpus(t)
	got, err := allIntervalClustersCtx(context.Background(), c, corpus.Tokenizing(c), ClusterOptions{MemBudget: 64 << 10})
	if err != nil {
		t.Fatalf("AllIntervalClusters with a budget: %v", err)
	}
	if setsFingerprint(got) != setsFingerprint(sequentialClusterSets(t, c)) {
		t.Fatal("cluster sets with a budget differ from the sequential loop")
	}
}
