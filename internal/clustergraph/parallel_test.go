package clustergraph

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simjoin"
)

// randClusterSets builds deterministic per-interval cluster sets with
// enough cross-interval keyword overlap to produce real edges.
func randClusterSets(seed int64, m, perInterval, vocab, kw int) [][]cluster.Cluster {
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]cluster.Cluster, m)
	for i := range sets {
		cs := make([]cluster.Cluster, perInterval)
		for j := range cs {
			n := 2 + rng.Intn(kw)
			words := make([]string, n)
			for k := range words {
				words[k] = fmt.Sprintf("w%03d", rng.Intn(vocab))
			}
			cs[j] = cluster.New(int64(j), i, words)
		}
		sets[i] = cs
	}
	return sets
}

// fingerprint serializes everything observable about a graph so two
// graphs compare bit for bit: shape, per-node interval and cluster,
// and both half-edge lists with exact weights.
func fingerprint(g *Graph) string {
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

// referenceGraph is the plain sequential construction edge generation
// is held to: every node through NewBuilder in interval order, then one
// nested loop over the cluster pairs of intervals at most gap+1 apart.
func referenceGraph(t *testing.T, sets [][]cluster.Cluster, gap int, theta float64, aff cluster.AffinityFunc, normalize bool) *Graph {
	t.Helper()
	b, err := NewBuilder(len(sets), gap)
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
		for j := i + 1; j <= i+gap+1 && j < len(sets); j++ {
			for a, ca := range sets[i] {
				for bj, cb := range sets[j] {
					if w := aff(ca, cb); w >= theta && w > 0 {
						if err := b.AddEdge(ids[i][a], ids[j][bj], w); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	return b.Build(normalize)
}

// TestFromClustersParallelEquivalence: edge generation on the worker
// pool builds the graph the sequential reference builds, on both the
// quadratic and simjoin paths, at gap 0 and gap 2. Each worker appends
// the pairs of all its tasks to one buffer, so every task's span of it
// is also held to that task's pairs computed alone, on twelve intervals
// at gap 2 (30 tasks, so a worker's buffer grows past the spans it
// already recorded). `make cpu-matrix` runs it at 1, 2 and 8 workers.
func TestFromClustersParallelEquivalence(t *testing.T) {
	wide := randClusterSets(5, 12, 40, 90, 8)
	var tasks []intervalPair
	for i := range wide {
		for j := i + 1; j <= i+3 && j < len(wide); j++ {
			tasks = append(tasks, intervalPair{i, j})
		}
	}
	vocab := simjoin.NewVocab(wide...)
	recs := make([][]simjoin.Record, len(wide))
	for i, cs := range wide {
		var err error
		if recs[i], err = vocab.Records(cs); err != nil {
			t.Fatal(err)
		}
	}
	for _, useSimJoin := range []bool{false, true} {
		got, err := edgePairs(context.Background(), wide, tasks, FromClustersOptions{Gap: 2, Theta: 0.25, UseSimJoin: useSimJoin})
		if err != nil {
			t.Fatal(err)
		}
		pairs := 0
		for ti, tk := range tasks {
			want, err := vocab.JoinRecords(recs[tk.i], recs[tk.j], 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if len(got[ti]) != len(want) || len(want) > 0 && !slices.Equal(got[ti], want) {
				t.Fatalf("simjoin %v: task %d (%d,%d) has %d pairs, alone %d", useSimJoin, ti, tk.i, tk.j, len(got[ti]), len(want))
			}
			pairs += len(want)
		}
		if pairs == 0 {
			t.Fatal("no pairs; workload too sparse to be a real test")
		}
	}

	sets := randClusterSets(11, 6, 50, 90, 8)
	for _, gap := range []int{0, 2} {
		ref := referenceGraph(t, sets, gap, 0.25, cluster.Jaccard, false)
		if ref.NumEdges() == 0 {
			t.Fatalf("gap %d: no edges; workload too sparse to be a real test", gap)
		}
		want := fingerprint(ref)
		for _, simjoin := range []bool{false, true} {
			g, err := FromClusters(sets, FromClustersOptions{Gap: gap, Theta: 0.25, UseSimJoin: simjoin})
			if err != nil {
				t.Fatalf("gap %d simjoin %v: %v", gap, simjoin, err)
			}
			if got := fingerprint(g); got != want {
				t.Fatalf("gap %d simjoin %v: graph differs from the sequential reference", gap, simjoin)
			}
		}
	}
}

// TestFromClustersSimJoinMatchesQuadratic: the prefix-filter path and
// the quadratic pair loop build the same graph (both default Jaccard).
func TestFromClustersSimJoinMatchesQuadratic(t *testing.T) {
	sets := randClusterSets(23, 5, 60, 100, 9)
	for _, gap := range []int{0, 1} {
		quad, err := FromClusters(sets, FromClustersOptions{Gap: gap, Theta: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		sj, err := FromClusters(sets, FromClustersOptions{Gap: gap, Theta: 0.2, UseSimJoin: true})
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(quad) != fingerprint(sj) {
			t.Fatalf("gap %d: simjoin graph (%d edges) differs from quadratic (%d edges)",
				gap, sj.NumEdges(), quad.NumEdges())
		}
	}
}

// TestFromClustersParallelIntersectionAffinity covers the non-Jaccard
// (normalized) path of pooled edge generation against the sequential
// reference.
func TestFromClustersParallelIntersectionAffinity(t *testing.T) {
	sets := randClusterSets(5, 4, 40, 80, 7)
	g, err := FromClusters(sets, FromClustersOptions{
		Gap: 1, Theta: 1, Affinity: cluster.Intersection, Normalize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(referenceGraph(t, sets, 1, 1, cluster.Intersection, true))
	if fingerprint(g) != want {
		t.Fatal("intersection-affinity graph differs from the sequential reference")
	}
}
