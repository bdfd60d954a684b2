package bicc

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/raceflag"
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

// randomEdges draws a random simple graph with n vertices and ~p edge
// probability, as its edge list.
func randomEdges(rng *rand.Rand, n int, p float64) [][2]int32 {
	var edges [][2]int32
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int32{int32(u), int32(v)})
			}
		}
	}
	return edges
}

// graphOf builds a Graph over n vertices from an edge list.
func graphOf(n int, edges [][2]int32) *Graph {
	g := NewGraph(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// bruteArticulation finds articulation points by deletion: v is an
// articulation point iff removing it increases the number of connected
// components among the remaining vertices (counting only components
// that contained v's neighbors). Its adjacency comes from the edge list,
// not from the Graph under test.
func bruteArticulation(n int, edges [][2]int32) []int32 {
	adj := make([][]int32, n)
	for _, e := range edges {
		if e[0] != e[1] {
			adj[e[0]] = append(adj[e[0]], e[1])
			adj[e[1]] = append(adj[e[1]], e[0])
		}
	}
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
				for _, w := range adj[u] {
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
		if len(adj[v]) == 0 {
			continue
		}
		// Removing v also removes the singleton component it would form.
		if countComponents(int32(v)) > base {
			arts = append(arts, int32(v))
		}
	}
	return arts
}

// checkDecomposition holds Decompose over the simple graph (n, edges) to
// three properties:
//  1. every edge appears in exactly one component;
//  2. articulation points match the deletion-based brute force;
//  3. two distinct components share at most one vertex.
func checkDecomposition(n int, edges [][2]int32) error {
	r := Decompose(graphOf(n, edges))

	// 1. Edge partition.
	norm := func(e [2]int32) [2]int32 {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		return e
	}
	seen := map[[2]int32]int{}
	for _, e := range edges {
		seen[norm(e)] = 0
	}
	total := 0
	for _, c := range r.Components {
		for _, e := range c.Edges {
			cnt, ok := seen[norm(e)]
			if !ok {
				return fmt.Errorf("component edge %v is not a graph edge", e)
			}
			seen[norm(e)] = cnt + 1
			total++
		}
	}
	if total != len(edges) {
		return fmt.Errorf("components hold %d edges, graph has %d", total, len(edges))
	}
	for e, cnt := range seen {
		if cnt != 1 {
			return fmt.Errorf("edge %v in %d components", e, cnt)
		}
	}

	// 2. Articulation points.
	if want := bruteArticulation(n, edges); !slices.Equal(want, r.Articulation) {
		return fmt.Errorf("articulation points %v, brute force %v", r.Articulation, want)
	}

	// 3. Pairwise component overlap ≤ 1 vertex.
	vsets := make([][]int32, len(r.Components))
	for i, c := range r.Components {
		vsets[i] = c.Vertices()
	}
	for i := range vsets {
		for j := i + 1; j < len(vsets); j++ {
			overlap := 0
			for _, v := range vsets[i] {
				if _, ok := slices.BinarySearch(vsets[j], v); ok {
					overlap++
				}
			}
			if overlap > 1 {
				return fmt.Errorf("components %d and %d share %d vertices", i, j, overlap)
			}
		}
	}
	return nil
}

// TestDecomposeProperties checks the three properties on random graphs.
func TestDecomposeProperties(t *testing.T) {
	f := func(seed int64, nSeed, pSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nSeed)%14 + 2
		p := 0.05 + float64(pSeed%200)/250.0
		if err := checkDecomposition(n, randomEdges(rng, n, p)); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// FuzzDecompose checks the three properties of TestDecomposeProperties
// on graphs read from the fuzz bytes: the first byte picks n in 2..17,
// each following byte pair one edge; self-loops and repeated edges are
// dropped, since a Graph takes neither.
func FuzzDecompose(f *testing.F) {
	f.Add([]byte{6, 0, 1, 1, 2, 2, 0, 1, 3, 3, 4, 4, 5, 5, 3})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{7, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%16 + 2
		seen := map[[2]int32]bool{}
		var edges [][2]int32
		for i := 1; i+1 < len(data); i += 2 {
			u, v := int32(int(data[i])%n), int32(int(data[i+1])%n)
			if u == v || seen[[2]int32{u, v}] || seen[[2]int32{v, u}] {
				continue
			}
			seen[[2]int32{u, v}] = true
			edges = append(edges, [2]int32{u, v})
		}
		if err := checkDecomposition(n, edges); err != nil {
			t.Fatalf("n=%d edges=%v: %v", n, edges, err)
		}
	})
}

// TestDecomposerReuseMatchesFresh runs one Graph, Reset for each
// input, and one Decomposer over random graphs that shrink and grow in
// turn, so each run finds arrays left longer and holding another
// graph's values. Every Result and cluster list must equal a fresh
// Decompose's.
func TestDecomposerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var g Graph
	var d Decomposer
	for round, n := range []int{40, 6, 300, 2, 120, 0, 75, 300, 9} {
		edges := randomEdges(rng, n, 0.02+rng.Float64()*0.2)
		g.Reset(n, len(edges))
		for _, e := range edges {
			g.AddEdge(e[0], e[1])
		}
		want := Decompose(graphOf(n, edges))
		got := d.Decompose(&g)
		if len(got.Components) != len(want.Components) || !slices.Equal(got.Articulation, want.Articulation) {
			t.Fatalf("round %d (n=%d): %d components, articulation %v; want %d, %v",
				round, n, len(got.Components), got.Articulation, len(want.Components), want.Articulation)
		}
		for i, c := range want.Components {
			if !slices.Equal(got.Components[i].Edges, c.Edges) {
				t.Fatalf("round %d (n=%d): component %d = %v, want %v", round, n, i, got.Components[i].Edges, c.Edges)
			}
		}
		for _, minVertices := range []int{2, 3} {
			wantCl, gotCl := want.Clusters(minVertices), d.Clusters(minVertices)
			if len(gotCl) != len(wantCl) {
				t.Fatalf("round %d (n=%d): %d clusters of %d+ vertices, want %d", round, n, len(gotCl), minVertices, len(wantCl))
			}
			for i := range wantCl {
				if !slices.Equal(gotCl[i], wantCl[i]) {
					t.Fatalf("round %d (n=%d): cluster %d = %v, want %v", round, n, i, gotCl[i], wantCl[i])
				}
			}
		}
	}
}

// Allocation ceiling, in tier-1: Decompose lays the graph out as CSR
// and pops every component into one shared edge array, and Clusters
// writes every vertex set into one buffer, so what they allocate is a
// handful of arrays plus the logarithmic growth of the component and
// DFS-frame lists — not one allocation per edge, vertex or component.
// The ceiling is about twice the count recorded with this test (31),
// under a twentieth of the edge count and half the component count.
func TestDecomposeAllocationCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const ceiling = 60
	rng := rand.New(rand.NewSource(5))
	g := graphOf(2000, randomEdges(rng, 2000, 0.002))
	var r *Result
	run := func() {
		r = Decompose(g)
		r.Clusters(2)
	}
	// The collector off, so no GC bookkeeping lands in the process-wide
	// malloc count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(1, run)
	t.Logf("%v allocations for %d edges in %d components", allocs, g.NumEdges(), len(r.Components))
	if g.NumEdges() < 20*ceiling || len(r.Components) < 2*ceiling {
		t.Fatalf("%d edges in %d components: too few for a ceiling of %d to tell", g.NumEdges(), len(r.Components), ceiling)
	}
	if allocs > ceiling {
		t.Errorf("%v allocations per Decompose + Clusters of %d edges, ceiling %d", allocs, g.NumEdges(), ceiling)
	}
}

func BenchmarkDecompose(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := graphOf(2000, randomEdges(rng, 2000, 0.004))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decompose(g)
	}
}
