// Package clustergraph builds and represents the cluster graph G of
// Section 4.1: nodes are per-interval keyword clusters, and an edge
// joins clusters of different intervals whose affinity exceeds θ, as
// long as the intervals are at most g+1 apart (g is the gap).
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
// and ExtendCtx one of each for the lists it changes. children[v] and
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
	if m <= 0 {
		return nil, fmt.Errorf("clustergraph: m must be positive, got %d", m)
	}
	if gap < 0 {
		return nil, fmt.Errorf("clustergraph: gap must be >= 0, got %d", gap)
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
	length := iv - iu
	if length > b.gap+1 {
		return 0, 0, fmt.Errorf("clustergraph: edge (%d,%d) spans %d intervals, max is gap+1 = %d", u, v, length, b.gap+1)
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return 0, 0, fmt.Errorf("clustergraph: edge (%d,%d) has non-finite weight %g", u, v, weight)
	}
	if weight <= 0 {
		return 0, 0, fmt.Errorf("clustergraph: edge (%d,%d) has non-positive weight %g", u, v, weight)
	}
	b.g.edges++
	if weight > b.g.maxWeight {
		b.g.maxWeight = weight
	}
	return u, v, nil
}

// Build freezes the graph. Children lists are sorted by descending
// weight (the DFS heuristic of Section 4.3); parents by ascending peer
// id for determinism. If normalize is true and any weight exceeds 1,
// all weights are scaled by the maximum weight so they lie in (0,1] —
// the normalization footnote of Section 4.1, needed by affinities such
// as raw intersection counts.
//
// The half-edges go into one children array and one parents array,
// each node's span sized by its degree and filled in AddEdge order
// before the per-span sort.
func (b *Builder) Build(normalize bool) *Graph {
	if b.built {
		return b.g
	}
	kids, pars := b.degrees()
	for _, e := range b.edges {
		kids[e.u]++
		pars[e.v]++
	}
	scale := b.layout(normalize, kids, pars)
	for _, e := range b.edges {
		b.place(e.u, e.v, e.weight*scale)
	}
	b.edges = nil
	return b.finish()
}

// degrees returns zeroed per-node counts of children and of parents,
// for a freeze to fill.
func (b *Builder) degrees() (kids, pars []int) {
	n := len(b.g.interval)
	deg := make([]int, 2*n)
	return deg[:n], deg[n:]
}

// layout carves the children and parents arrays into spans of the
// counted degrees, one span per node, for place to fill, and returns
// the factor that place's weights take (1 unless normalize rescales).
func (b *Builder) layout(normalize bool, kids, pars []int) float64 {
	g := b.g
	scale := 1.0 // leaves every weight exact
	if normalize && g.maxWeight > 1 {
		scale = 1 / g.maxWeight
		g.maxWeight = 1
	}
	n := len(g.interval)
	g.children = make([][]Half, n)
	g.parents = make([][]Half, n)
	carve(g.children, kids, make([]Half, g.edges))
	carve(g.parents, pars, make([]Half, g.edges))
	return scale
}

// place lays out one accepted edge, u in the earlier interval, in both
// of its spans.
func (b *Builder) place(u, v int64, w float64) {
	g := b.g
	length := g.interval[v] - g.interval[u]
	g.children[u] = append(g.children[u], Half{Peer: v, Weight: w, Length: length})
	g.parents[v] = append(g.parents[v], Half{Peer: u, Weight: w, Length: length})
}

// finish sorts every span into its order and freezes the graph.
func (b *Builder) finish() *Graph {
	b.built = true
	g := b.g
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

// reserve sizes a fresh builder for the nodes of sets: the node arrays
// and one backing array for the per-interval id lists (an empty
// interval keeps a nil list, as AddNode leaves it), so none of them
// grows by append.
func (b *Builder) reserve(sets [][]cluster.Cluster) {
	n := 0
	for _, cs := range sets {
		n += len(cs)
	}
	b.g.interval = make([]int, 0, n)
	b.g.clusters = make([]cluster.Cluster, 0, n)
	ids := make([]int64, n)
	off := 0
	for i, cs := range sets {
		if k := len(cs); k > 0 {
			b.g.intervals[i] = ids[off : off : off+k]
			off += k
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
	// Theta is the minimum affinity for an edge (default
	// cluster.DefaultAffinityThreshold).
	Theta float64
	// Affinity scores cluster overlap. Nil is Jaccard, computed by the
	// prefix-filter join (internal/simjoin), which needs Theta in
	// (0, 1]; a non-nil function is evaluated on every cluster pair, so
	// cluster.Jaccard passed explicitly is the join's reference.
	Affinity cluster.AffinityFunc
	// UseSimJoin is accepted and ignored: Jaccard edges always come
	// from the prefix-filter join. The field stays only because
	// bench/build.go names it.
	UseSimJoin bool
	// Normalize rescales weights into (0,1] when an affinity (e.g.
	// intersection) produces weights above 1.
	Normalize bool
}

// FromClusters builds the cluster graph from per-interval cluster sets
// by evaluating the affinity between clusters of intervals at most
// Gap+1 apart and keeping pairs with affinity >= Theta.
func FromClusters(sets [][]cluster.Cluster, opts FromClustersOptions) (*Graph, error) {
	return FromClustersCtx(context.Background(), sets, opts)
}

// FromClustersCtx is FromClusters with cancellation: edge-generation
// tasks are dispatched through the context-aware worker pool, so a
// canceled build stops scheduling interval pairs and returns ctx's
// error.
func FromClustersCtx(ctx context.Context, sets [][]cluster.Cluster, opts FromClustersOptions) (*Graph, error) {
	m := len(sets)
	b, err := NewBuilder(m, opts.Gap)
	if err != nil {
		return nil, err
	}
	var tasks []intervalPair
	for i := 0; i < m; i++ {
		for j := i + 1; j <= i+opts.Gap+1 && j < m; j++ {
			tasks = append(tasks, intervalPair{i, j})
		}
	}
	results, err := edgePairs(ctx, sets, tasks, opts)
	if err != nil {
		return nil, err
	}

	b.reserve(sets)
	for i, cs := range sets {
		for _, c := range cs {
			if _, err := b.AddNode(i, c); err != nil {
				return nil, err
			}
		}
	}
	// The edges go from the tasks' spans straight into the layout, in
	// task order, as AddEdge and Build would lay them out: one pass
	// checks and counts them, a second places them. A task's first
	// interval is its earlier one, so each pair is already (earlier,
	// later).
	ids := b.g.intervals // interval → node ids, in set order
	kids, pars := b.degrees()
	for ti, t := range tasks {
		for _, p := range results[ti] {
			u, v, err := b.accept(ids[t.i][p.Left], ids[t.j][p.Right], p.Sim)
			if err != nil {
				return nil, err
			}
			kids[u]++
			pars[v]++
		}
	}
	scale := b.layout(opts.Normalize, kids, pars)
	for ti, t := range tasks {
		for _, p := range results[ti] {
			b.place(ids[t.i][p.Left], ids[t.j][p.Right], p.Sim*scale)
		}
	}
	return b.finish(), nil
}

// intervalPair names two linked intervals, i before j.
type intervalPair struct{ i, j int }

// edgePairs is the one edge generator behind FromClustersCtx and
// ExtendCtx: for each listed pair of intervals it evaluates the
// affinity between their cluster sets and keeps the (Left, Right)
// index pairs with affinity >= Theta. A nil affinity (Jaccard) runs the
// prefix-filter join; any other affinity is evaluated pair by pair.
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
	var run func(j *simjoin.Joiner, out []simjoin.Pair, t intervalPair) ([]simjoin.Pair, error)
	if aff := opts.Affinity; aff != nil {
		run = func(_ *simjoin.Joiner, out []simjoin.Pair, t intervalPair) ([]simjoin.Pair, error) {
			for a, ca := range sets[t.i] {
				for bj, cb := range sets[t.j] {
					if w := aff(ca, cb); w >= theta && w > 0 {
						out = append(out, simjoin.Pair{Left: a, Right: bj, Sim: w})
					}
				}
			}
			return out, nil
		}
	} else {
		recs, err := joinRecords(sets, tasks)
		if err != nil {
			return nil, err
		}
		run = func(j *simjoin.Joiner, out []simjoin.Pair, t intervalPair) ([]simjoin.Pair, error) {
			return j.AppendJoin(out, recs[t.i], recs[t.j], theta)
		}
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), len(tasks)))
	bufs := make([][]simjoin.Pair, workers)
	joiners := make([]simjoin.Joiner, workers)
	type span struct{ w, lo, hi int }
	spans := make([]span, len(tasks))
	if err := par.ForEachWorkerCtx(ctx, len(tasks), workers, func(w, ti int) error {
		lo := len(bufs[w])
		out, err := run(&joiners[w], bufs[w], tasks[ti])
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

// ExtendCtx grows an already-built graph by one interval and returns
// the extension as a NEW graph — g itself is never mutated, because
// queries against the previous generation may still be walking it.
// sets must be the full per-interval cluster sets, len(g.m)+1 long,
// whose first g.m entries produced g (same opts). The result is
// identical to FromClustersCtx over all of sets: node ids stay
// interval-major (new nodes come last), and the per-node half-edge
// orders — children by (weight desc, peer asc), parents by peer asc —
// are strict total orders (a peer appears at most once per list), so
// sorting the extended lists reproduces the one-shot build exactly.
// The new graph's solve index starts empty, and g's is left as it is:
// a new interval changes U and P all the way back to interval 0.
//
// Normalized graphs cannot be extended: normalization already rescaled
// the old weights by a maximum the new interval may change, so the
// caller must rebuild those from scratch.
func ExtendCtx(ctx context.Context, g *Graph, sets [][]cluster.Cluster, opts FromClustersOptions) (*Graph, error) {
	if opts.Normalize {
		return nil, fmt.Errorf("clustergraph: cannot extend a normalized graph; rebuild instead")
	}
	if opts.Gap != g.gap {
		return nil, fmt.Errorf("clustergraph: extend with gap %d, graph was built with %d", opts.Gap, g.gap)
	}
	m := g.m // the new interval's index
	if len(sets) != m+1 {
		return nil, fmt.Errorf("clustergraph: extend wants %d cluster sets, got %d", m+1, len(sets))
	}
	for i := 0; i < m; i++ {
		if len(sets[i]) != len(g.intervals[i]) {
			return nil, fmt.Errorf("clustergraph: interval %d has %d clusters, graph has %d nodes there", i, len(sets[i]), len(g.intervals[i]))
		}
	}
	// Only intervals within gap+1 of the new one can gain edges.
	tasks := make([]intervalPair, 0, g.gap+1)
	for i := max(0, m-g.gap-1); i < m; i++ {
		tasks = append(tasks, intervalPair{i, m})
	}
	results, err := edgePairs(ctx, sets, tasks, opts)
	if err != nil {
		return nil, err
	}

	// Copy-on-write: fresh outer slices, shared inner lists except where
	// the new interval's edges land.
	nOld := len(g.interval)
	nNew := nOld + len(sets[m])
	ng := &Graph{
		m:         m + 1,
		gap:       g.gap,
		interval:  make([]int, nOld, nNew),
		intervals: make([][]int64, m+1),
		parents:   make([][]Half, nNew),
		children:  make([][]Half, nNew),
		clusters:  make([]cluster.Cluster, nOld, nNew),
		edges:     g.edges,
		maxWeight: g.maxWeight,
	}
	copy(ng.interval, g.interval)
	copy(ng.intervals, g.intervals)
	copy(ng.parents, g.parents)
	copy(ng.children, g.children)
	copy(ng.clusters, g.clusters)
	newIDs := make([]int64, len(sets[m]))
	for j, c := range sets[m] {
		id := int64(nOld + j)
		ng.interval = append(ng.interval, m)
		c.ID = id
		c.Interval = m
		ng.clusters = append(ng.clusters, c)
		newIDs[j] = id
	}
	if len(newIDs) > 0 {
		ng.intervals[m] = newIDs
	}

	// Count the new edges per old node of the task intervals (gained,
	// at slot base[ti]+Left) and per new node (incoming). An old node's
	// children list is shared with g, which a previous generation may
	// still be serving, so a node that gains children gets a fresh span
	// of one new array, its old children copied in first; kids sizes
	// that array. The new nodes' parents fill a second one.
	base := make([]int, len(tasks)+1)
	for ti, t := range tasks {
		base[ti+1] = base[ti] + len(g.intervals[t.i])
	}
	gained := make([]int, base[len(tasks)])
	incoming := make([]int, len(newIDs))
	added, kids := 0, 0
	for ti, t := range tasks {
		for _, p := range results[ti] {
			if gained[base[ti]+p.Left] == 0 {
				kids += len(g.children[g.intervals[t.i][p.Left]])
			}
			gained[base[ti]+p.Left]++
			incoming[p.Right]++
			added++
		}
	}
	flat := make([]Half, kids+added)
	off := 0
	for ti, t := range tasks {
		for k, u := range g.intervals[t.i] {
			if c := gained[base[ti]+k]; c > 0 {
				old := g.children[u]
				end := off + len(old) + c
				ng.children[u] = append(flat[off:off:end], old...)
				off = end
			}
		}
	}
	carve(ng.parents[nOld:], incoming, make([]Half, added))

	for ti, t := range tasks {
		for _, p := range results[ti] {
			u, v := g.intervals[t.i][p.Left], newIDs[p.Right]
			ng.children[u] = append(ng.children[u], Half{Peer: v, Weight: p.Sim, Length: m - t.i})
			ng.parents[v] = append(ng.parents[v], Half{Peer: u, Weight: p.Sim, Length: m - t.i})
			if p.Sim > ng.maxWeight {
				ng.maxWeight = p.Sim
			}
		}
	}
	ng.edges += added
	for ti, t := range tasks {
		for k, u := range g.intervals[t.i] {
			if gained[base[ti]+k] > 0 {
				slices.SortStableFunc(ng.children[u], byWeightDescThenPeer)
			}
		}
	}
	for _, v := range newIDs {
		slices.SortStableFunc(ng.parents[v], byPeer)
	}
	return ng, nil
}
