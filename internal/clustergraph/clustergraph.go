// Package clustergraph builds and represents the cluster graph G of
// Section 4.1: nodes are per-interval keyword clusters, and an edge
// joins clusters of different intervals whose Jaccard affinity is at
// least θ, as long as the intervals are at most g+1 apart (g is the
// gap).
//
// Edge length is the temporal distance between the incident intervals
// (an edge across a single gap of size g has length g+1, per the
// paper); edge weight is the affinity. Children lists are kept sorted
// by descending weight — the paper's heuristic so the DFS explores
// heavy edges first.
package clustergraph

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/par"
	"repro/internal/simjoin"
)

// Half is one directed half-edge: the far endpoint plus the edge's
// weight and temporal length.
type Half struct {
	Peer   int64
	Weight float64
	Length int
}

// Graph is the (immutable after Build) cluster graph. Its half-edges
// live in flat arrays: Build writes one children and one parents array,
// and grow one of each for the lists it changes. children[v] and
// parents[v] are capped sub-slices of them (nil for an empty list), so
// a node's list is one header load and an append to it can never write
// into a neighbour's span.
type Graph struct {
	m         int
	gap       int
	interval  []int     // node id → interval index
	intervals [][]int64 // interval index → node ids
	parents   [][]Half  // node id → incoming half-edges (peer in earlier interval), peer-ascending
	children  [][]Half  // node id → outgoing half-edges, weight-descending
	clusters  []cluster.Cluster
	edges     int
	maxWeight float64

	// The solve index (solveindex.go), each part built on first request
	// under mu and never written again, except that a deeper suffix
	// table replaces a shallower one.
	mu          sync.Mutex
	suffix      []float64
	suffixDepth int
	toEnd       []float64
	fromStart   []float64
	pairEdges   [][]Edge
	starts      [][][]int64 // StartOrder(l) at starts[l]
}

// NumIntervals returns m.
func (g *Graph) NumIntervals() int { return g.m }

// Gap returns the gap parameter g the graph was built with.
func (g *Graph) Gap() int { return g.gap }

// NumNodes returns the total number of cluster nodes.
func (g *Graph) NumNodes() int { return len(g.interval) }

// NumEdges returns the number of (undirected) edges.
func (g *Graph) NumEdges() int { return g.edges }

// MaxWeight returns the largest edge weight (0 for an edgeless graph).
func (g *Graph) MaxWeight() float64 { return g.maxWeight }

// Interval returns the interval index of node id.
func (g *Graph) Interval(id int64) int { return g.interval[id] }

// NodesAt returns the node ids of interval i.
func (g *Graph) NodesAt(i int) []int64 { return g.intervals[i] }

// Parents returns the incoming half-edges of id (peers in earlier
// intervals).
func (g *Graph) Parents(id int64) []Half { return g.parents[id] }

// Children returns the outgoing half-edges of id (peers in later
// intervals), sorted by descending weight.
func (g *Graph) Children(id int64) []Half { return g.children[id] }

// Cluster returns the keyword cluster behind node id. Synthetic graphs
// carry empty clusters.
func (g *Graph) Cluster(id int64) cluster.Cluster { return g.clusters[id] }

// Builder accumulates nodes and an edge list and then freezes them
// into a Graph: Build counts each node's degree, lays the half-edges
// out in one children array and one parents array, and sorts each
// node's span. Nothing reads adjacency before Build, so no per-node
// list is ever grown.
type Builder struct {
	m     int
	gap   int
	g     *Graph
	edges []edge // in AddEdge order
	built bool
}

// edge is one accepted AddEdge call, u in the earlier interval.
type edge struct {
	u, v   int64
	weight float64
}

// NewBuilder starts a graph over m temporal intervals with gap g.
func NewBuilder(m, gap int) (*Builder, error) {
	if err := checkShape(m, gap); err != nil {
		return nil, err
	}
	return &Builder{
		m:   m,
		gap: gap,
		g: &Graph{
			m:         m,
			gap:       gap,
			intervals: make([][]int64, m),
		},
	}, nil
}

// checkShape rejects a graph over no intervals or with a negative gap.
func checkShape(m, gap int) error {
	if m <= 0 {
		return fmt.Errorf("clustergraph: m must be positive, got %d", m)
	}
	if gap < 0 {
		return fmt.Errorf("clustergraph: gap must be >= 0, got %d", gap)
	}
	return nil
}

// AddNode adds a cluster node in the given interval and returns its id.
// The cluster value may be zero for synthetic graphs.
func (b *Builder) AddNode(interval int, c cluster.Cluster) (int64, error) {
	if b.built {
		return 0, fmt.Errorf("clustergraph: AddNode after Build")
	}
	if interval < 0 || interval >= b.m {
		return 0, fmt.Errorf("clustergraph: interval %d outside [0,%d)", interval, b.m)
	}
	id := int64(len(b.g.interval))
	b.g.interval = append(b.g.interval, interval)
	b.g.intervals[interval] = append(b.g.intervals[interval], id)
	c.ID = id
	c.Interval = interval
	b.g.clusters = append(b.g.clusters, c)
	return id, nil
}

// AddEdge joins two nodes of different intervals with the given affinity
// weight. The temporal distance must be within gap+1 and the weight
// positive and finite.
func (b *Builder) AddEdge(u, v int64, weight float64) error {
	if b.built {
		return fmt.Errorf("clustergraph: AddEdge after Build")
	}
	u, v, err := b.accept(u, v, weight)
	if err != nil {
		return err
	}
	b.edges = append(b.edges, edge{u: u, v: v, weight: weight})
	return nil
}

// accept applies AddEdge's checks to one edge, counts it into the
// graph's edge count and maximum weight, and returns its endpoints,
// the one in the earlier interval first.
func (b *Builder) accept(u, v int64, weight float64) (int64, int64, error) {
	if u < 0 || v < 0 || int(u) >= len(b.g.interval) || int(v) >= len(b.g.interval) {
		return 0, 0, fmt.Errorf("clustergraph: edge (%d,%d) references unknown node", u, v)
	}
	iu, iv := b.g.interval[u], b.g.interval[v]
	if iu == iv {
		return 0, 0, fmt.Errorf("clustergraph: edge (%d,%d) joins nodes of the same interval %d", u, v, iu)
	}
	if iu > iv {
		u, v = v, u
		iu, iv = iv, iu
	}
	if err := checkEdge(u, v, iv-iu, b.gap, weight); err != nil {
		return 0, 0, err
	}
	b.g.count(weight)
	return u, v, nil
}

// checkEdge is the edge check AddEdge and grow share: edge (u,v), u in
// the earlier interval, spans at most gap+1 intervals and has a finite,
// positive weight.
func checkEdge(u, v int64, length, gap int, weight float64) error {
	if length > gap+1 {
		return fmt.Errorf("clustergraph: edge (%d,%d) spans %d intervals, max is gap+1 = %d", u, v, length, gap+1)
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("clustergraph: edge (%d,%d) has non-finite weight %g", u, v, weight)
	}
	if weight <= 0 {
		return fmt.Errorf("clustergraph: edge (%d,%d) has non-positive weight %g", u, v, weight)
	}
	return nil
}

// count adds one checked edge to the edge count and maximum weight.
func (g *Graph) count(weight float64) {
	g.edges++
	g.maxWeight = max(g.maxWeight, weight)
}

// place lays out one counted edge, u in the earlier interval, in both
// of its spans.
func (g *Graph) place(u, v int64, w float64) {
	length := g.interval[v] - g.interval[u]
	g.children[u] = append(g.children[u], Half{Peer: v, Weight: w, Length: length})
	g.parents[v] = append(g.parents[v], Half{Peer: u, Weight: w, Length: length})
}

// Build freezes the graph. Children lists are sorted by descending
// weight (the DFS heuristic of Section 4.3); parents by ascending peer
// id for determinism. Weights are kept as given.
//
// The half-edges go into one children array and one parents array,
// each node's span sized by its degree and filled in AddEdge order
// before the per-span sort.
func (b *Builder) Build() *Graph {
	g := b.g
	if b.built {
		return g
	}
	b.built = true
	n := len(g.interval)
	deg := make([]int, 2*n)
	kids, pars := deg[:n], deg[n:]
	for _, e := range b.edges {
		kids[e.u]++
		pars[e.v]++
	}
	g.children = make([][]Half, n)
	g.parents = make([][]Half, n)
	carve(g.children, kids, make([]Half, g.edges))
	carve(g.parents, pars, make([]Half, g.edges))
	for _, e := range b.edges {
		g.place(e.u, e.v, e.weight)
	}
	b.edges = nil
	for _, hs := range g.children {
		slices.SortStableFunc(hs, byWeightDescThenPeer)
	}
	for _, hs := range g.parents {
		slices.SortStableFunc(hs, byPeer)
	}
	return g
}

// carve points lists[v] at an empty span of flat with room for
// counts[v] half-edges, capped there, so appending them fills the span
// in place and a full list has len == cap. A node with no count keeps
// a nil list.
func carve(lists [][]Half, counts []int, flat []Half) {
	off := 0
	for v, c := range counts {
		if c > 0 {
			lists[v] = flat[off : off : off+c]
			off += c
		}
	}
}

// byWeightDescThenPeer is the children order: heaviest edge first, ties
// by ascending peer id.
func byWeightDescThenPeer(a, b Half) int {
	switch {
	case a.Weight > b.Weight:
		return -1
	case a.Weight < b.Weight:
		return 1
	}
	return cmp.Compare(a.Peer, b.Peer)
}

// byPeer is the parents order.
func byPeer(a, b Half) int { return cmp.Compare(a.Peer, b.Peer) }

// FromClustersOptions configures FromClusters.
type FromClustersOptions struct {
	// Gap is g, the maximum number of skipped intervals.
	Gap int
	// Theta is the minimum Jaccard affinity for an edge, in (0, 1]
	// (default cluster.DefaultAffinityThreshold).
	Theta float64
	// UseSimJoin is accepted and ignored: Jaccard edges always come
	// from the prefix-filter join. The field stays only because
	// bench/build.go names it.
	UseSimJoin bool
}

// FromClusters builds the cluster graph from per-interval cluster sets
// by joining the clusters of intervals at most Gap+1 apart and keeping
// the pairs with Jaccard affinity >= Theta.
func FromClusters(sets [][]cluster.Cluster, opts FromClustersOptions) (*Graph, error) {
	return FromClustersCtx(context.Background(), sets, opts)
}

// FromClustersCtx is FromClusters with cancellation: edge-generation
// tasks are dispatched through the context-aware worker pool, so a
// canceled build stops scheduling interval pairs and returns ctx's
// error. It grows the empty graph by every interval of sets.
func FromClustersCtx(ctx context.Context, sets [][]cluster.Cluster, opts FromClustersOptions) (*Graph, error) {
	if err := checkShape(len(sets), opts.Gap); err != nil {
		return nil, err
	}
	return grow(ctx, &Graph{gap: opts.Gap}, sets, opts)
}

// ExtendCtx grows an already-built graph by one interval and returns
// the extension as a NEW graph — g itself is never mutated, because
// queries against the previous generation may still be walking it.
// sets must be the full per-interval cluster sets, len(g.m)+1 long,
// whose first g.m entries produced g (same opts). The result is
// identical to FromClustersCtx over all of sets, which runs the same
// routine from the empty graph. The new graph's solve index starts
// empty, and g's is left as it is: a new interval changes U and P all
// the way back to interval 0.
func ExtendCtx(ctx context.Context, g *Graph, sets [][]cluster.Cluster, opts FromClustersOptions) (*Graph, error) {
	if opts.Gap != g.gap {
		return nil, fmt.Errorf("clustergraph: extend with gap %d, graph was built with %d", opts.Gap, g.gap)
	}
	if len(sets) != g.m+1 {
		return nil, fmt.Errorf("clustergraph: extend wants %d cluster sets, got %d", g.m+1, len(sets))
	}
	for i, ids := range g.intervals {
		if len(sets[i]) != len(ids) {
			return nil, fmt.Errorf("clustergraph: interval %d has %d clusters, graph has %d nodes there", i, len(sets[i]), len(ids))
		}
	}
	return grow(ctx, g, sets, opts)
}

// grow is the one layout behind FromClustersCtx and ExtendCtx: it
// returns the graph over all of sets, grown from g, the graph over
// sets[:g.m] (the empty graph for a fresh build), and never writes g,
// whose lists the result may share. It joins only the interval pairs
// that end past g.m, copies g's node arrays and appends the new nodes
// interval-major. A node that gains children gets a fresh span of one
// children array, its old children first; every other old list is
// shared. Every new edge ends in a new node, so only new nodes have
// parents to lay out, in spans of one parents array. The edges go in
// task order, and only the spans they changed are sorted: the orders —
// children by (weight desc, peer asc), parents by peer asc — are strict
// total orders (a peer appears at most once per list), so growing by
// one interval at a time reproduces the one-shot build exactly.
func grow(ctx context.Context, g *Graph, sets [][]cluster.Cluster, opts FromClustersOptions) (*Graph, error) {
	m0, m, gap := g.m, len(sets), g.gap
	lo := max(0, m0-gap-1) // the first interval a new edge can start in
	tasks := make([]intervalPair, 0, (m-lo)*(min(gap, m)+1))
	for i := lo; i < m; i++ {
		for j := max(i+1, m0); j <= i+gap+1 && j < m; j++ {
			tasks = append(tasks, intervalPair{i, j})
		}
	}
	results, err := edgePairs(ctx, sets, tasks, opts)
	if err != nil {
		return nil, err
	}

	n0, n := len(g.interval), len(g.interval)
	for _, cs := range sets[m0:] {
		n += len(cs)
	}
	ng := &Graph{
		m:         m,
		gap:       gap,
		interval:  make([]int, n),
		intervals: make([][]int64, m),
		parents:   make([][]Half, n),
		children:  make([][]Half, n),
		clusters:  make([]cluster.Cluster, n),
		edges:     g.edges,
		maxWeight: g.maxWeight,
	}
	copy(ng.interval, g.interval)
	copy(ng.intervals, g.intervals)
	copy(ng.parents, g.parents)
	copy(ng.children, g.children)
	copy(ng.clusters, g.clusters)
	// The new intervals' id lists are capped spans of one array; an
	// empty interval keeps a nil list.
	ids := make([]int64, 0, n-n0)
	for i := m0; i < m; i++ {
		start := len(ids)
		for _, c := range sets[i] {
			id := n0 + len(ids)
			ids = append(ids, int64(id))
			ng.interval[id] = i
			c.ID, c.Interval = int64(id), i
			ng.clusters[id] = c
		}
		if len(ids) > start {
			ng.intervals[i] = ids[start:len(ids):len(ids)]
		}
	}

	// Count each new edge into its parent's children (nodes from first,
	// the first node of interval lo, on) and its child's parents (new
	// nodes only); kept sizes the gaining nodes' old children.
	first := n0
	for _, iv := range g.intervals[lo:] {
		first -= len(iv)
	}
	deg := make([]int, (n-first)+(n-n0))
	kids, pars := deg[:n-first], deg[n-first:]
	kept := 0
	for ti, t := range tasks {
		for _, p := range results[ti] {
			u, v := ng.intervals[t.i][p.Left], ng.intervals[t.j][p.Right]
			if err := checkEdge(u, v, t.j-t.i, gap, p.Sim); err != nil {
				return nil, err
			}
			ng.count(p.Sim)
			if kids[u-int64(first)] == 0 {
				kept += len(ng.children[u])
			}
			kids[u-int64(first)]++
			pars[v-int64(n0)]++
		}
	}
	added := ng.edges - g.edges
	flat := make([]Half, kept+added)
	off := 0
	for k, c := range kids {
		if c > 0 {
			old := ng.children[first+k]
			end := off + len(old) + c
			ng.children[first+k] = append(flat[off:off:end], old...)
			off = end
		}
	}
	carve(ng.parents[n0:], pars, make([]Half, added))
	for ti, t := range tasks {
		for _, p := range results[ti] {
			ng.place(ng.intervals[t.i][p.Left], ng.intervals[t.j][p.Right], p.Sim)
		}
	}
	for k, c := range kids {
		if c > 0 {
			slices.SortStableFunc(ng.children[first+k], byWeightDescThenPeer)
		}
	}
	for _, hs := range ng.parents[n0:] {
		slices.SortStableFunc(hs, byPeer)
	}
	return ng, nil
}

// intervalPair names two linked intervals, i before j.
type intervalPair struct{ i, j int }

// edgePairs is the edge generator of grow, the one layout behind
// FromClustersCtx and ExtendCtx: for each listed pair of intervals it
// runs the prefix-filter join (internal/simjoin) of their cluster sets
// and keeps the (Left, Right) index pairs with Jaccard affinity >=
// Theta.
//
// Each interval pair is one task, and the tasks run on a pool of
// GOMAXPROCS workers; a task runs sequentially inside. A worker appends
// the pairs of every task it runs to its one buffer, through its one
// simjoin.Joiner, and records the task's span of it; result ti is that
// span, so the pairs come back in task order and a caller that splices
// them in that order produces the same edge sequence — and therefore
// the same graph — at any worker count.
func edgePairs(ctx context.Context, sets [][]cluster.Cluster, tasks []intervalPair, opts FromClustersOptions) ([][]simjoin.Pair, error) {
	theta := opts.Theta
	if theta == 0 {
		theta = cluster.DefaultAffinityThreshold
	}
	recs, err := joinRecords(sets, tasks)
	if err != nil {
		return nil, err
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), len(tasks)))
	bufs := make([][]simjoin.Pair, workers)
	joiners := make([]simjoin.Joiner, workers)
	type span struct{ w, lo, hi int }
	spans := make([]span, len(tasks))
	if err := par.ForEachWorkerCtx(ctx, len(tasks), workers, func(w, ti int) error {
		lo, t := len(bufs[w]), tasks[ti]
		out, err := joiners[w].AppendJoin(bufs[w], recs[t.i], recs[t.j], theta)
		if err != nil {
			return err
		}
		bufs[w], spans[ti] = out, span{w, lo, len(out)}
		return nil
	}); err != nil {
		return nil, err
	}
	// Spans are read off the final buffers: a buffer that grew after a
	// task was recorded copied that task's pairs along.
	results := make([][]simjoin.Pair, len(tasks))
	for ti, sp := range spans {
		results[ti] = bufs[sp.w][sp.lo:sp.hi:sp.hi]
	}
	return results, nil
}

// joinRecords interns the vocabulary once per call over the intervals
// the tasks name (every interval joins against up to gap+1 partners; a
// per-join frequency pass used to dominate) and returns each named
// interval's join records, nil for the others.
func joinRecords(sets [][]cluster.Cluster, tasks []intervalPair) ([][]simjoin.Record, error) {
	named := make([]bool, len(sets))
	for _, t := range tasks {
		named[t.i], named[t.j] = true, true
	}
	involved := make([][]cluster.Cluster, 0, len(sets))
	for i, ok := range named {
		if ok {
			involved = append(involved, sets[i])
		}
	}
	vocab := simjoin.NewVocab(involved...)
	recs := make([][]simjoin.Record, len(sets))
	for i, ok := range named {
		if ok {
			var err error
			if recs[i], err = vocab.Records(sets[i]); err != nil {
				return nil, err
			}
		}
	}
	return recs, nil
}
