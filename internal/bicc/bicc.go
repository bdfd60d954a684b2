// Package bicc identifies articulation points and biconnected components
// (Section 3, Algorithm 1 of the paper) and extracts keyword clusters
// from them.
//
// The paper runs a DFS over the pruned keyword graph G', maintaining
// discovery order un[u] and low-link low[u], with an edge stack from
// which each biconnected component is popped when a child w of u
// satisfies low[w] >= un[u]. Graphs at blogosphere scale have millions
// of edges, so the implementation here is iterative (explicit frame
// stack, no recursion) and also comes in a secondary-storage flavour
// where adjacency lists are fetched from a diskstore.Store with counted
// I/Os — the realization sketched in the paper via refs [4, 5].
package bicc

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/diskstore"
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

// adjSource abstracts where adjacency lists come from: memory or a
// disk store.
type adjSource interface {
	neighbors(u int32) ([]int32, error)
	numVertices() int
}

type memSource struct{ g *Graph }

func (m memSource) neighbors(u int32) ([]int32, error) { return m.g.adj[u], nil }
func (m memSource) numVertices() int                   { return len(m.g.adj) }

// Decompose runs the biconnected-components algorithm over an in-memory
// graph.
func Decompose(g *Graph) *Result {
	r, err := decompose(memSource{g})
	if err != nil {
		// memSource never fails.
		panic(fmt.Sprintf("bicc: in-memory decompose failed: %v", err))
	}
	return r
}

// storeSource reads adjacency lists from a diskstore, one random read
// per first visit of a vertex.
type storeSource struct {
	st *diskstore.Store
	n  int
}

func (s storeSource) neighbors(u int32) ([]int32, error) {
	val, err := s.st.Get(int64(u))
	if err != nil {
		return nil, fmt.Errorf("bicc: adjacency of %d: %w", u, err)
	}
	return DecodeAdjacency(val)
}

func (s storeSource) numVertices() int { return s.n }

// DecomposeStore runs the algorithm with adjacency lists fetched from
// st (vertex id → EncodeAdjacency payload). Every vertex in 0..n-1 must
// have a record, even if empty. The caller can read st.Stats() to
// observe the I/O the traversal performed.
func DecomposeStore(st *diskstore.Store, n int) (*Result, error) {
	return decompose(storeSource{st: st, n: n})
}

// EncodeAdjacency serializes a neighbor list for DecomposeStore.
func EncodeAdjacency(neighbors []int32) []byte {
	buf := make([]byte, 4+4*len(neighbors))
	binary.LittleEndian.PutUint32(buf, uint32(len(neighbors)))
	for i, v := range neighbors {
		binary.LittleEndian.PutUint32(buf[4+4*i:], uint32(v))
	}
	return buf
}

// DecodeAdjacency reverses EncodeAdjacency.
func DecodeAdjacency(b []byte) ([]int32, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("bicc: adjacency record too short (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if len(b) != int(4+4*n) {
		return nil, fmt.Errorf("bicc: adjacency record length %d does not match count %d", len(b), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4+4*i:]))
	}
	return out, nil
}

// frame is one suspended DFS call in the iterative traversal.
type frame struct {
	u         int32
	parent    int32
	neighbors []int32
	next      int // index of the next neighbor to consider
	children  int // DFS-tree children discovered so far (root rule)
}

func decompose(src adjSource) (*Result, error) {
	n := src.numVertices()
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
		rootNs, err := src.neighbors(root)
		if err != nil {
			return nil, err
		}
		stack = append(stack[:0], frame{u: root, parent: -1, neighbors: rootNs})
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
					ns, err := src.neighbors(w)
					if err != nil {
						return nil, err
					}
					stack = append(stack, frame{u: w, parent: f.u, neighbors: ns})
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
	return res, nil
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
