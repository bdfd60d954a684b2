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
// realization via refs [4, 5]; here the pruned graph is in memory.
// A Graph is its edge list; Decompose lays it out as CSR adjacency
// (degree counts, offsets, one neighbour array, each vertex's
// neighbours in insertion order) and reads each vertex's span once.
// The popped components share one edge array, and Clusters writes
// every vertex set into one buffer. A Decomposer keeps all of these
// arrays from one graph to the next, and a Graph can be Reset to hold
// the next one, so a worker decomposing graph after graph allocates
// them once; Decompose is a fresh Decomposer's run.
package bicc

import (
	"slices"
	"sort"
)

// Graph is a simple undirected graph over vertices 0..n-1, held as the
// list of its edges in insertion order. Parallel edges and self-loops
// are not supported (AddEdge ignores self-loops; duplicate edges must
// not be added).
type Graph struct {
	n     int
	edges [][2]int32
}

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) *Graph {
	return &Graph{n: n}
}

// AddEdge inserts the undirected edge (u,v). Self-loops are ignored:
// they can never affect biconnectivity.
func (g *Graph) AddEdge(u, v int32) {
	if u == v {
		return
	}
	g.edges = append(g.edges, [2]int32{u, v})
}

// Reset empties g to n vertices, with room for edges edges: it keeps
// its edge array when that is large enough.
func (g *Graph) Reset(n, edges int) {
	g.n = n
	g.edges = resize(g.edges, edges)[:0]
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// adjacency returns g in CSR form, on the arrays off and adj when they
// are large enough: the neighbours of v are adj[off[v]:off[v+1]], in
// the order AddEdge inserted them.
func (g *Graph) adjacency(off, adj []int32) ([]int32, []int32) {
	off = resize(off, g.n+1)
	clear(off)
	for _, e := range g.edges {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for v := 0; v < g.n; v++ {
		off[v+1] += off[v]
	}
	adj = resize(adj, 2*len(g.edges))
	for _, e := range g.edges {
		adj[off[e[0]]] = e[1]
		off[e[0]]++
		adj[off[e[1]]] = e[0]
		off[e[1]]++
	}
	// Each cursor now sits at the end of its vertex's span, which is
	// where the next vertex's span starts.
	copy(off[1:], off[:g.n])
	off[0] = 0
	return off, adj
}

// Component is one biconnected component, given by its edge set. A
// bridge forms a two-vertex component of a single edge.
type Component struct {
	Edges [][2]int32
}

// Vertices returns the sorted distinct vertices of the component.
func (c Component) Vertices() []int32 {
	return appendVertices(make([]int32, 0, 2*len(c.Edges)), c.Edges)
}

// appendVertices appends the sorted distinct endpoints of edges to dst.
func appendVertices(dst []int32, edges [][2]int32) []int32 {
	start := len(dst)
	for _, e := range edges {
		dst = append(dst, e[0], e[1])
	}
	vs := dst[start:]
	slices.Sort(vs)
	return dst[:start+len(slices.Compact(vs))]
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

// Decomposer runs Decompose on graph after graph and keeps its working
// arrays for the next: the CSR adjacency, discovery order and low-link,
// the articulation flags, the edge stack, the popped component edges,
// the DFS frames, the Result and Clusters' buffer. What it returns
// shares them, so it is valid until the Decomposer's next call. The
// zero value is ready to use; a Decomposer is not safe for concurrent
// use.
type Decomposer struct {
	off, adj  []int32
	un, low   []int32
	isArt     []bool
	edgeStack [][2]int32
	popped    [][2]int32
	stack     []frame
	res       *Result
	buf       []int32   // Clusters' vertex sets
	clusters  [][]int32 // Clusters' spans of buf
}

// Decompose runs the biconnected-components algorithm over g.
func Decompose(g *Graph) *Result { return new(Decomposer).Decompose(g) }

// Decompose runs the biconnected-components algorithm over g on d's
// arrays. The Result is valid until d's next Decompose.
func (d *Decomposer) Decompose(g *Graph) *Result {
	n := g.NumVertices()
	off, adj := g.adjacency(d.off, d.adj)
	un := resize(d.un, n)   // discovery order, 0 = unvisited (time starts at 1)
	low := resize(d.low, n) // low-link
	isArt := resize(d.isArt, n)
	clear(un)
	clear(isArt)
	d.off, d.adj, d.un, d.low, d.isArt = off, adj, un, low, isArt
	// Every edge is pushed once and popped into exactly one component,
	// so both the stack and the components' shared array hold E edges.
	edgeStack := resize(d.edgeStack, g.NumEdges())[:0]
	popped := resize(d.popped, g.NumEdges())[:0]
	d.edgeStack, d.popped = edgeStack, popped
	if d.res == nil {
		d.res = new(Result)
	}
	res := d.res
	res.Components, res.Articulation = res.Components[:0], res.Articulation[:0]
	var time int32

	popComponent := func(u, w int32) {
		// Pop all edges on top of the stack until (inclusively) (u,w),
		// and report them as one biconnected component (Algorithm 1,
		// line 14).
		start := len(popped)
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			popped = append(popped, e)
			if e[0] == u && e[1] == w {
				break
			}
		}
		res.Components = append(res.Components, Component{Edges: popped[start:len(popped):len(popped)]})
	}

	stack := d.stack
	for root := int32(0); int(root) < n; root++ {
		if un[root] != 0 {
			continue
		}
		time++
		un[root], low[root] = time, time
		stack = append(stack[:0], frame{u: root, parent: -1, neighbors: adj[off[root]:off[root+1]]})
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
					stack = append(stack, frame{u: w, parent: f.u, neighbors: adj[off[w]:off[w+1]]})
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
	d.stack = stack[:0]
	arts := 0
	for _, a := range isArt {
		if a {
			arts++
		}
	}
	if arts > 0 {
		res.Articulation = resize(res.Articulation, arts)[:0]
		for v := int32(0); int(v) < n; v++ {
			if isArt[v] {
				res.Articulation = append(res.Articulation, v)
			}
		}
	}
	return res
}

// Clusters converts the decomposition into keyword clusters per the
// paper: every biconnected component with at least minVertices vertices
// becomes one cluster (vertex set, sorted). minVertices < 2 is treated
// as 2 (a component always has ≥ 2 vertices). The clusters are capped
// spans of one shared buffer.
func (r *Result) Clusters(minVertices int) [][]int32 {
	_, out := r.appendClusters(nil, nil, minVertices)
	return out
}

// Clusters is Clusters of d's last Decompose result, written into d's
// buffer: valid until d's next Clusters call.
func (d *Decomposer) Clusters(minVertices int) [][]int32 {
	d.buf, d.clusters = d.res.appendClusters(d.buf[:0], d.clusters[:0], minVertices)
	return d.clusters
}

// appendClusters appends r's clusters to out, their vertex sets to
// buf, and returns both. buf is grown once up front, so every span
// stays on the array it is returned with.
func (r *Result) appendClusters(buf []int32, out [][]int32, minVertices int) ([]int32, [][]int32) {
	if minVertices < 2 {
		minVertices = 2
	}
	edges := 0
	for _, c := range r.Components {
		edges += len(c.Edges)
	}
	buf = slices.Grow(buf, 2*edges)
	out = slices.Grow(out, len(r.Components))
	for _, c := range r.Components {
		start := len(buf)
		buf = appendVertices(buf, c.Edges)
		if len(buf)-start < minVertices {
			buf = buf[:start]
			continue
		}
		out = append(out, buf[start:len(buf):len(buf)])
	}
	return buf, out
}

// resize returns s at length n, on its own array when that holds n
// elements and on a new zeroed one otherwise; reused elements keep
// their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
