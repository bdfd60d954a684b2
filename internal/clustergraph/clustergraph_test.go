package clustergraph

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

func TestBuilderBasics(t *testing.T) {
	b, err := NewBuilder(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := b.AddNode(0, cluster.New(0, 0, []string{"x"}))
	c, _ := b.AddNode(1, cluster.Cluster{})
	d, _ := b.AddNode(2, cluster.Cluster{})
	if err := b.AddEdge(a, c, 0.5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := b.AddEdge(a, d, 0.25); err != nil { // length 2, within gap+1
		t.Fatalf("AddEdge gap: %v", err)
	}
	g := b.Build(false)
	if g.NumNodes() != 3 || g.NumEdges() != 2 || g.NumIntervals() != 3 || g.Gap() != 1 {
		t.Errorf("graph shape wrong: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Interval(a) != 0 || g.Interval(d) != 2 {
		t.Error("Interval lookup wrong")
	}
	if len(g.NodesAt(1)) != 1 || g.NodesAt(1)[0] != c {
		t.Errorf("NodesAt(1) = %v", g.NodesAt(1))
	}
	ch := g.Children(a)
	if len(ch) != 2 || ch[0].Weight != 0.5 || ch[1].Weight != 0.25 {
		t.Errorf("children of a = %v, want weight-descending", ch)
	}
	if ch[0].Length != 1 || ch[1].Length != 2 {
		t.Errorf("edge lengths = %d,%d; want 1,2", ch[0].Length, ch[1].Length)
	}
	if ps := g.Parents(d); len(ps) != 1 || ps[0].Peer != a {
		t.Errorf("parents of d = %v", ps)
	}
	if kw := g.Cluster(a).Keywords; len(kw) != 1 || kw[0] != "x" {
		t.Errorf("Cluster(a) = %v", g.Cluster(a))
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(0, 0); err == nil {
		t.Error("NewBuilder(0,0) accepted")
	}
	if _, err := NewBuilder(3, -1); err == nil {
		t.Error("NewBuilder negative gap accepted")
	}
	b, _ := NewBuilder(3, 0)
	if _, err := b.AddNode(5, cluster.Cluster{}); err == nil {
		t.Error("AddNode with bad interval accepted")
	}
	u, _ := b.AddNode(0, cluster.Cluster{})
	v, _ := b.AddNode(0, cluster.Cluster{})
	w, _ := b.AddNode(2, cluster.Cluster{})
	if err := b.AddEdge(u, v, 0.5); err == nil {
		t.Error("same-interval edge accepted")
	}
	if err := b.AddEdge(u, w, 0.5); err == nil {
		t.Error("edge longer than gap+1 accepted")
	}
	if err := b.AddEdge(u, 99, 0.5); err == nil {
		t.Error("edge to unknown node accepted")
	}
	x, _ := b.AddNode(1, cluster.Cluster{})
	if err := b.AddEdge(u, x, 0); err == nil {
		t.Error("zero-weight edge accepted")
	}
	b.Build(false)
	if _, err := b.AddNode(0, cluster.Cluster{}); err == nil {
		t.Error("AddNode after Build accepted")
	}
	if err := b.AddEdge(u, x, 0.5); err == nil {
		t.Error("AddEdge after Build accepted")
	}
}

// TestAddEdgeRejectsNonFinite: NaN fails `weight <= 0` and so used to
// be stored, and one +Inf weight under Normalize turned every weight
// into NaN (x · 1/Inf = 0, Inf · 0 = NaN).
func TestAddEdgeRejectsNonFinite(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b, _ := NewBuilder(2, 0)
		u, _ := b.AddNode(0, cluster.Cluster{})
		v, _ := b.AddNode(1, cluster.Cluster{})
		x, _ := b.AddNode(1, cluster.Cluster{})
		if err := b.AddEdge(u, v, w); err == nil {
			t.Errorf("weight %g accepted", w)
		}
		if err := b.AddEdge(u, x, 2); err != nil {
			t.Fatal(err)
		}
		g := b.Build(true)
		if g.NumEdges() != 1 || g.MaxWeight() != 1 || len(g.Children(v)) != 0 || len(g.Parents(v)) != 0 {
			t.Errorf("weight %g: rejected edge left a trace: %d edges, max %g", w, g.NumEdges(), g.MaxWeight())
		}
		if ch := g.Children(u); len(ch) != 1 || ch[0].Weight != 1 {
			t.Errorf("weight %g: children of u = %v, want one edge of weight 1", w, ch)
		}
	}
}

func TestEdgeDirectionNormalized(t *testing.T) {
	// Adding an edge "backwards" (later interval first) must still
	// produce a child from the earlier node.
	b, _ := NewBuilder(2, 0)
	u, _ := b.AddNode(0, cluster.Cluster{})
	v, _ := b.AddNode(1, cluster.Cluster{})
	if err := b.AddEdge(v, u, 0.9); err != nil {
		t.Fatal(err)
	}
	g := b.Build(false)
	if ch := g.Children(u); len(ch) != 1 || ch[0].Peer != v {
		t.Errorf("children of u = %v", ch)
	}
	if ch := g.Children(v); len(ch) != 0 {
		t.Errorf("children of v = %v, want none", ch)
	}
}

func TestNormalization(t *testing.T) {
	b, _ := NewBuilder(2, 0)
	u, _ := b.AddNode(0, cluster.Cluster{})
	v, _ := b.AddNode(1, cluster.Cluster{})
	w, _ := b.AddNode(1, cluster.Cluster{})
	b.AddEdge(u, v, 4.0) // intersection-style weight > 1
	b.AddEdge(u, w, 2.0)
	g := b.Build(true)
	if g.MaxWeight() != 1 {
		t.Errorf("MaxWeight = %g, want 1", g.MaxWeight())
	}
	ch := g.Children(u)
	if ch[0].Weight != 1.0 || math.Abs(ch[1].Weight-0.5) > 1e-12 {
		t.Errorf("normalized weights = %v", ch)
	}
	// Parents must be rescaled consistently.
	if ps := g.Parents(w); math.Abs(ps[0].Weight-0.5) > 1e-12 {
		t.Errorf("parent weight = %g, want 0.5", ps[0].Weight)
	}
}

func TestNoNormalizationWhenWithinRange(t *testing.T) {
	b, _ := NewBuilder(2, 0)
	u, _ := b.AddNode(0, cluster.Cluster{})
	v, _ := b.AddNode(1, cluster.Cluster{})
	b.AddEdge(u, v, 0.5)
	g := b.Build(true)
	if g.Children(u)[0].Weight != 0.5 {
		t.Error("normalize rescaled weights that were already in (0,1]")
	}
}

func weekSets() [][]cluster.Cluster {
	mk := func(interval int, sets ...[]string) []cluster.Cluster {
		out := make([]cluster.Cluster, len(sets))
		for i, s := range sets {
			out[i] = cluster.New(0, interval, s)
		}
		return out
	}
	return [][]cluster.Cluster{
		mk(0, []string{"a", "b", "c"}, []string{"x", "y"}),
		mk(1, []string{"a", "b", "d"}, []string{"p", "q"}),
		mk(2, []string{"a", "b", "c", "d"}, []string{"x", "y"}),
	}
}

func TestFromClusters(t *testing.T) {
	g, err := FromClusters(weekSets(), FromClustersOptions{Gap: 1, Theta: 0.3})
	if err != nil {
		t.Fatalf("FromClusters: %v", err)
	}
	if g.NumNodes() != 6 {
		t.Fatalf("nodes = %d, want 6", g.NumNodes())
	}
	// {a,b,c}@0 ↔ {a,b,d}@1: Jaccard 2/4 = 0.5 ≥ 0.3 → edge.
	// {a,b,c}@0 ↔ {a,b,c,d}@2: 3/4 ≥ 0.3 → gap edge (length 2).
	// {x,y}@0 ↔ {x,y}@2: 1.0 → gap edge.
	// {a,b,d}@1 ↔ {a,b,c,d}@2: 3/4 → edge.
	if g.NumEdges() != 4 {
		t.Errorf("edges = %d, want 4", g.NumEdges())
	}
	n0 := g.NodesAt(0)[0] // {a,b,c}
	ch := g.Children(n0)
	if len(ch) != 2 {
		t.Fatalf("children of {a,b,c} = %v, want 2", ch)
	}
	// Weight-descending: 0.75 gap edge first, then 0.5.
	if math.Abs(ch[0].Weight-0.75) > 1e-12 || ch[0].Length != 2 {
		t.Errorf("first child = %+v, want weight 0.75 length 2", ch[0])
	}
}

func TestFromClustersSimJoinMatchesBrute(t *testing.T) {
	sets := weekSets()
	plain, err := FromClusters(sets, FromClustersOptions{Gap: 1, Theta: 0.3, Affinity: cluster.Jaccard})
	if err != nil {
		t.Fatal(err)
	}
	sj, err := FromClusters(sets, FromClustersOptions{Gap: 1, Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumEdges() != sj.NumEdges() || plain.NumNodes() != sj.NumNodes() {
		t.Fatalf("simjoin graph differs: %d/%d edges", sj.NumEdges(), plain.NumEdges())
	}
	for id := int64(0); id < int64(plain.NumNodes()); id++ {
		a, b := plain.Children(id), sj.Children(id)
		if len(a) != len(b) {
			t.Fatalf("node %d children differ: %v vs %v", id, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d child %d differs: %+v vs %+v", id, i, a[i], b[i])
			}
		}
	}
}

func TestFromClustersGapZeroOmitsLongEdges(t *testing.T) {
	g, err := FromClusters(weekSets(), FromClustersOptions{Gap: 0, Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// The two interval-0 ↔ interval-2 edges disappear.
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
}

// TestFromClustersJaccardThetaRange: the join takes θ in (0, 1] only,
// so a Jaccard build outside it fails; an explicit affinity is scored
// pair by pair and takes any θ (intersection weights exceed 1).
func TestFromClustersJaccardThetaRange(t *testing.T) {
	for _, theta := range []float64{-0.5, 1.5, math.NaN()} {
		if _, err := FromClusters(weekSets(), FromClustersOptions{Gap: 1, Theta: theta}); err == nil {
			t.Errorf("Jaccard θ %g accepted", theta)
		}
	}
	if _, err := FromClusters(weekSets(), FromClustersOptions{Gap: 1, Theta: 1.5, Affinity: cluster.Intersection}); err != nil {
		t.Errorf("intersection θ 1.5: %v", err)
	}
}

func TestFromClustersIntersectionNormalized(t *testing.T) {
	g, err := FromClusters(weekSets(), FromClustersOptions{
		Gap: 1, Theta: 1, Affinity: cluster.Intersection, Normalize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxWeight() > 1 {
		t.Errorf("MaxWeight = %g after normalization", g.MaxWeight())
	}
	if g.NumEdges() == 0 {
		t.Error("no edges survived intersection threshold 1")
	}
}
