package bicc

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func sortedClusters(r *Result) [][]int32 {
	cl := r.Clusters(2)
	sort.Slice(cl, func(i, j int) bool {
		return lexLess(cl[i], cl[j])
	})
	return cl
}

func lexLess(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// TestPaperFigure3 reconstructs the worked example of Figure 3: a DFS
// from a with back edges (c,a) and (f,d); internal nodes b and d are
// articulation points, and the biconnected components are the triangle
// {a,b,c}, the bridge {b,d} and the triangle {d,e,f}.
func TestPaperFigure3(t *testing.T) {
	const (
		a = int32(iota)
		b
		c
		d
		e
		f
	)
	g := NewGraph(6)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, a)
	g.AddEdge(b, d)
	g.AddEdge(d, e)
	g.AddEdge(e, f)
	g.AddEdge(f, d)

	r := Decompose(g)
	if want := []int32{b, d}; !reflect.DeepEqual(r.Articulation, want) {
		t.Errorf("articulation points = %v, want %v", r.Articulation, want)
	}
	got := sortedClusters(r)
	want := [][]int32{{a, b, c}, {b, d}, {d, e, f}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("components = %v, want %v", got, want)
	}
	if !r.IsArticulation(b) || !r.IsArticulation(d) || r.IsArticulation(a) {
		t.Error("IsArticulation disagrees with Articulation list")
	}
}

func TestSingleEdge(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1)
	r := Decompose(g)
	if len(r.Components) != 1 || len(r.Components[0].Edges) != 1 {
		t.Fatalf("components = %+v, want one single-edge component", r.Components)
	}
	if len(r.Articulation) != 0 {
		t.Errorf("articulation = %v, want none", r.Articulation)
	}
}

func TestPathGraph(t *testing.T) {
	// 0-1-2-3: every edge is a bridge; 1 and 2 are articulation points.
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	r := Decompose(g)
	if len(r.Components) != 3 {
		t.Errorf("components = %d, want 3", len(r.Components))
	}
	if want := []int32{1, 2}; !reflect.DeepEqual(r.Articulation, want) {
		t.Errorf("articulation = %v, want %v", r.Articulation, want)
	}
}

func TestCycleIsBiconnected(t *testing.T) {
	g := NewGraph(5)
	for i := int32(0); i < 5; i++ {
		g.AddEdge(i, (i+1)%5)
	}
	r := Decompose(g)
	if len(r.Components) != 1 {
		t.Fatalf("components = %d, want 1", len(r.Components))
	}
	if len(r.Articulation) != 0 {
		t.Errorf("articulation = %v, want none", r.Articulation)
	}
	if got := r.Components[0].Vertices(); len(got) != 5 {
		t.Errorf("component vertices = %v, want all 5", got)
	}
}

func TestStarGraph(t *testing.T) {
	// Center 0 with leaves 1..4: 0 is the only articulation point and
	// each spoke is its own component.
	g := NewGraph(5)
	for i := int32(1); i < 5; i++ {
		g.AddEdge(0, i)
	}
	r := Decompose(g)
	if len(r.Components) != 4 {
		t.Errorf("components = %d, want 4", len(r.Components))
	}
	if want := []int32{0}; !reflect.DeepEqual(r.Articulation, want) {
		t.Errorf("articulation = %v, want %v", r.Articulation, want)
	}
}

func TestDisconnectedAndIsolated(t *testing.T) {
	g := NewGraph(7) // two triangles + isolated vertex 6
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3)
	r := Decompose(g)
	if len(r.Components) != 2 {
		t.Errorf("components = %d, want 2", len(r.Components))
	}
	if len(r.Articulation) != 0 {
		t.Errorf("articulation = %v, want none", r.Articulation)
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	r := Decompose(g)
	if len(r.Components) != 1 {
		t.Errorf("components = %d, want 1", len(r.Components))
	}
}

func TestClustersMinSize(t *testing.T) {
	g := NewGraph(5) // triangle 0-1-2 plus bridge 2-3 and 3-4
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	r := Decompose(g)
	if got := r.Clusters(3); len(got) != 1 || len(got[0]) != 3 {
		t.Errorf("Clusters(3) = %v, want one 3-vertex cluster", got)
	}
	if got := r.Clusters(0); len(got) != 3 {
		t.Errorf("Clusters(0) = %v, want 3 clusters", got)
	}
}

// randomGraph builds a random simple graph with n vertices and ~p edge
// probability.
func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(int32(u), int32(v))
			}
		}
	}
	return g
}

// bruteArticulation finds articulation points by deletion: v is an
// articulation point iff removing it increases the number of connected
// components among the remaining vertices (counting only components
// that contained v's neighbors).
func bruteArticulation(g *Graph) []int32 {
	n := g.NumVertices()
	countComponents := func(skip int32) int {
		seen := make([]bool, n)
		comps := 0
		for s := 0; s < n; s++ {
			if int32(s) == skip || seen[s] {
				continue
			}
			// BFS.
			comps++
			queue := []int32{int32(s)}
			seen[s] = true
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, w := range g.adj[u] {
					if w == skip || seen[w] {
						continue
					}
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		return comps
	}
	base := countComponents(-1)
	var arts []int32
	for v := 0; v < n; v++ {
		if len(g.adj[v]) == 0 {
			continue
		}
		// Removing v also removes the singleton component it would form.
		if countComponents(int32(v)) > base {
			arts = append(arts, int32(v))
		}
	}
	return arts
}

// Properties on random graphs:
//  1. every edge appears in exactly one component;
//  2. articulation points match the deletion-based brute force;
//  3. two distinct components share at most one vertex.
func TestDecomposeProperties(t *testing.T) {
	f := func(seed int64, nSeed, pSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nSeed)%14 + 2
		p := 0.05 + float64(pSeed%200)/250.0
		g := randomGraph(rng, n, p)
		r := Decompose(g)

		// 1. Edge partition.
		type ekey [2]int32
		norm := func(u, v int32) ekey {
			if u > v {
				u, v = v, u
			}
			return ekey{u, v}
		}
		seen := map[ekey]int{}
		total := 0
		for _, c := range r.Components {
			for _, e := range c.Edges {
				seen[norm(e[0], e[1])]++
				total++
			}
		}
		if total != g.NumEdges() || len(seen) != g.NumEdges() {
			return false
		}
		for _, cnt := range seen {
			if cnt != 1 {
				return false
			}
		}

		// 2. Articulation points.
		want := bruteArticulation(g)
		if len(want) != len(r.Articulation) {
			return false
		}
		for i := range want {
			if want[i] != r.Articulation[i] {
				return false
			}
		}

		// 3. Pairwise component overlap ≤ 1 vertex.
		vsets := make([]map[int32]struct{}, len(r.Components))
		for i, c := range r.Components {
			vsets[i] = map[int32]struct{}{}
			for _, v := range c.Vertices() {
				vsets[i][v] = struct{}{}
			}
		}
		for i := 0; i < len(vsets); i++ {
			for j := i + 1; j < len(vsets); j++ {
				overlap := 0
				for v := range vsets[i] {
					if _, ok := vsets[j][v]; ok {
						overlap++
					}
				}
				if overlap > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDecompose(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 2000, 0.004)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decompose(g)
	}
}
