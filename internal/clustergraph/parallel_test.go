package clustergraph

import (
	"context"
	"fmt"
	"math"
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

// jaccardRoutes are the two ways edgePairs computes Jaccard edges: the
// prefix-filter join (nil affinity, what every caller gets) and the
// pair loop over cluster.Jaccard passed explicitly, the join's
// reference.
var jaccardRoutes = []struct {
	name string
	aff  cluster.AffinityFunc
}{{"join", nil}, {"pair-loop", cluster.Jaccard}}

// TestFromClustersParallelEquivalence: edge generation on the worker
// pool builds the graph the sequential reference builds, on both
// Jaccard routes, at gap 0 and gap 2. Each worker appends
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
	for _, r := range jaccardRoutes {
		got, err := edgePairs(context.Background(), wide, tasks, FromClustersOptions{Gap: 2, Theta: 0.25, Affinity: r.aff})
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
				t.Fatalf("%s: task %d (%d,%d) has %d pairs, alone %d", r.name, ti, tk.i, tk.j, len(got[ti]), len(want))
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
		for _, r := range jaccardRoutes {
			g, err := FromClusters(sets, FromClustersOptions{Gap: gap, Theta: 0.25, Affinity: r.aff})
			if err != nil {
				t.Fatalf("gap %d %s: %v", gap, r.name, err)
			}
			if got := fingerprint(g); got != want {
				t.Fatalf("gap %d %s: graph differs from the sequential reference", gap, r.name)
			}
		}
	}
}

// TestFromClustersSimJoinMatchesQuadratic: the prefix-filter join (the
// default) and the pair loop over cluster.Jaccard build the same graph.
func TestFromClustersSimJoinMatchesQuadratic(t *testing.T) {
	sets := randClusterSets(23, 5, 60, 100, 9)
	for _, gap := range []int{0, 1} {
		quad, err := FromClusters(sets, FromClustersOptions{Gap: gap, Theta: 0.2, Affinity: cluster.Jaccard})
		if err != nil {
			t.Fatal(err)
		}
		sj, err := FromClusters(sets, FromClustersOptions{Gap: gap, Theta: 0.2})
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

// fuzzClusterSets decodes data into 1–6 intervals of clusters over a
// 24-word vocabulary, so overlaps, subsets and equal sets are common:
// a byte of 0xff ends an interval, one of 0xf0–0xfe ends a cluster,
// and any other byte adds the word it names to the current cluster.
func fuzzClusterSets(m uint8, data []byte) [][]cluster.Cluster {
	sets := make([][]cluster.Cluster, int(m)%6+1)
	i := 0
	var words []string
	flush := func() {
		if words != nil {
			sets[i] = append(sets[i], cluster.New(int64(len(sets[i])), i, words))
			words = nil
		}
	}
	for _, b := range data {
		switch {
		case b == 0xff:
			flush()
			i = (i + 1) % len(sets)
		case b >= 0xf0:
			flush()
		default:
			words = append(words, fmt.Sprintf("w%02d", b%24))
		}
	}
	flush()
	return sets
}

// FuzzJoinMatchesPairLoop holds the prefix-filter join to the pair loop
// over cluster.Jaccard on fuzz-chosen cluster sets (see
// fuzzClusterSets), gap 0–2 and θ in (0, 1]: every task's pairs must
// match, weights bit for bit.
func FuzzJoinMatchesPairLoop(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint16(99), []byte{1, 2, 3, 0xf0, 4, 5, 0xff, 1, 2, 0xf0, 4, 5, 6, 0xff, 2, 3, 4})
	f.Add(uint8(2), uint8(0), uint16(299), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xff, 0, 1, 2, 0xf0, 0, 1, 2, 3, 4})
	f.Add(uint8(5), uint8(2), uint16(999), slices.Repeat([]byte{1, 2, 0xf0, 1, 2, 3, 0xff, 3, 0xf0}, 8))
	f.Fuzz(func(t *testing.T, m, gap uint8, theta uint16, data []byte) {
		sets := fuzzClusterSets(m, data)
		opts := FromClustersOptions{Gap: int(gap % 3), Theta: float64(theta%1000+1) / 1000}
		var tasks []intervalPair
		for i := range sets {
			for j := i + 1; j <= i+opts.Gap+1 && j < len(sets); j++ {
				tasks = append(tasks, intervalPair{i, j})
			}
		}
		join, err := edgePairs(context.Background(), sets, tasks, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Affinity = cluster.Jaccard
		loop, err := edgePairs(context.Background(), sets, tasks, opts)
		if err != nil {
			t.Fatal(err)
		}
		for ti, tk := range tasks {
			if !slices.EqualFunc(join[ti], loop[ti], func(a, b simjoin.Pair) bool {
				return a.Left == b.Left && a.Right == b.Right && math.Float64bits(a.Sim) == math.Float64bits(b.Sim)
			}) {
				t.Fatalf("θ %g: intervals (%d,%d): join %v, pair loop %v", opts.Theta, tk.i, tk.j, join[ti], loop[ti])
			}
		}
	})
}
