// Package bicc identifies articulation points and biconnected components
// (Section 3, Algorithm 1 of the paper) and extracts keyword clusters
// from them.
//
// The paper runs a DFS over the pruned keyword graph G', maintaining
// discovery order un[u] and low-link low[u], with an edge stack from
// which each biconnected component is popped when a child w of u
// satisfies low[w] >= un[u]. Graphs at blogosphere scale have millions
// of edges, so the implementation here is iterative (explicit frame
// stack, no recursion). The paper sketches a secondary-storage
// realization via refs [4, 5]; here the pruned graph is in memory, and
// the traversal reads each vertex's adjacency list once.
package bicc

import (
	"slices"
	"sort"
)

// Graph is a simple undirected graph over vertices 0..n-1. Parallel
// edges and self-loops are not supported (AddEdge ignores self-loops;
// duplicate edges must not be added).
type Graph struct {
	adj   [][]int32
	edges int
}

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) *Graph {
	return &Graph{adj: make([][]int32, n)}
}

// AddEdge inserts the undirected edge (u,v). Self-loops are ignored:
// they can never affect biconnectivity.
func (g *Graph) AddEdge(u, v int32) {
	if u == v {
		return
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges++
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Component is one biconnected component, given by its edge set. A
// bridge forms a two-vertex component of a single edge.
type Component struct {
	Edges [][2]int32
}

// Vertices returns the sorted distinct vertices of the component.
func (c Component) Vertices() []int32 {
	set := map[int32]struct{}{}
	for _, e := range c.Edges {
		set[e[0]] = struct{}{}
		set[e[1]] = struct{}{}
	}
	vs := make([]int32, 0, len(set))
	for v := range set {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	return vs
}

// Result is the decomposition of a graph.
type Result struct {
	// Components are the biconnected components; every edge of the graph
	// belongs to exactly one.
	Components []Component
	// Articulation lists the articulation points in increasing order.
	Articulation []int32
}

// IsArticulation reports whether v is an articulation point.
func (r *Result) IsArticulation(v int32) bool {
	i := sort.Search(len(r.Articulation), func(i int) bool { return r.Articulation[i] >= v })
	return i < len(r.Articulation) && r.Articulation[i] == v
}

// frame is one suspended DFS call in the iterative traversal.
type frame struct {
	u         int32
	parent    int32
	neighbors []int32
	next      int // index of the next neighbor to consider
	children  int // DFS-tree children discovered so far (root rule)
}

// Decompose runs the biconnected-components algorithm over g.
func Decompose(g *Graph) *Result {
	n := g.NumVertices()
	un := make([]int32, n)  // discovery order, 0 = unvisited (time starts at 1)
	low := make([]int32, n) // low-link
	isArt := make([]bool, n)
	var edgeStack [][2]int32
	res := &Result{}
	var time int32

	popComponent := func(u, w int32) {
		// Pop all edges on top of the stack until (inclusively) (u,w),
		// and report them as one biconnected component (Algorithm 1,
		// line 14).
		var comp Component
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			comp.Edges = append(comp.Edges, e)
			if e[0] == u && e[1] == w {
				break
			}
		}
		res.Components = append(res.Components, comp)
	}

	var stack []frame
	for root := int32(0); int(root) < n; root++ {
		if un[root] != 0 {
			continue
		}
		time++
		un[root], low[root] = time, time
		stack = append(stack[:0], frame{u: root, parent: -1, neighbors: g.adj[root]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(f.neighbors) {
				w := f.neighbors[f.next]
				f.next++
				switch {
				case un[w] == 0:
					// Tree edge: push and descend.
					edgeStack = append(edgeStack, [2]int32{f.u, w})
					f.children++
					time++
					un[w], low[w] = time, time
					stack = append(stack, frame{u: w, parent: f.u, neighbors: g.adj[w]})
				case w != f.parent && un[w] < un[f.u]:
					// Back edge to a proper ancestor.
					edgeStack = append(edgeStack, [2]int32{f.u, w})
					if un[w] < low[f.u] {
						low[f.u] = un[w]
					}
				}
			} else {
				// All neighbors of f.u processed: return to parent.
				stack = stack[:len(stack)-1]
				if len(stack) == 0 {
					break
				}
				p := &stack[len(stack)-1]
				if low[f.u] < low[p.u] {
					low[p.u] = low[f.u]
				}
				if low[f.u] >= un[p.u] {
					popComponent(p.u, f.u)
					// p is an articulation point unless it is the root;
					// the root qualifies only with >= 2 DFS children.
					if p.parent != -1 || p.children >= 2 {
						isArt[p.u] = true
					}
				}
			}
		}
	}
	for v := int32(0); int(v) < n; v++ {
		if isArt[v] {
			res.Articulation = append(res.Articulation, v)
		}
	}
	return res
}

// Clusters converts the decomposition into keyword clusters per the
// paper: every biconnected component with at least minVertices vertices
// becomes one cluster (vertex set, sorted). minVertices < 2 is treated
// as 2 (a component always has ≥ 2 vertices).
func (r *Result) Clusters(minVertices int) [][]int32 {
	if minVertices < 2 {
		minVertices = 2
	}
	var out [][]int32
	for _, c := range r.Components {
		vs := c.Vertices()
		if len(vs) >= minVertices {
			out = append(out, vs)
		}
	}
	return out
}
