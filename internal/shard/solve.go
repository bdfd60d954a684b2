package shard

import (
	"context"
	"fmt"
	"sync"

	blogclusters "repro"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/topk"
)

// coordState is the per-composite-generation cache state: the node-id
// offset map, the merged engine and the boundary-window engines. A push
// retires the state (curState builds a successor); retired states stay
// alive until Close because in-flight queries may still hold them.
type coordState struct {
	gen    int64
	starts []int
	m      int

	// bases caches the global node-id offsets: bases[i] is the number
	// of cluster nodes in global intervals [0, i), so a node that is
	// local to a sub-graph starting at interval i maps to the global id
	// by adding bases[i]. len(bases) == m+1.
	bases par.Memo[[]int]
	// merged caches the whole-corpus engine assembled from the gathered
	// cluster sets — the fallback route for every query shape that is
	// not decomposable.
	merged par.Memo[*blogclusters.Engine]
	// windows caches per-boundary-window engines, keyed [lo, hi).
	winMu   sync.Mutex
	windows map[[2]int]*par.Memo[*blogclusters.Engine]
}

// engines returns every engine this state has materialized, for Close.
func (st *coordState) engines() []*blogclusters.Engine {
	var out []*blogclusters.Engine
	if eng, ok := st.merged.Cached(); ok {
		out = append(out, eng)
	}
	st.winMu.Lock()
	for _, ce := range st.windows {
		if eng, ok := ce.Cached(); ok {
			out = append(out, eng)
		}
	}
	st.winMu.Unlock()
	return out
}

// curState returns the cache state of the current composite generation,
// building (and retiring the predecessor) when a push moved it.
func (c *Coordinator) curState() *coordState {
	gen, starts, m := c.snap()
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if c.state != nil && c.state.gen == gen {
		return c.state
	}
	st := &coordState{gen: gen, starts: starts, m: m, windows: map[[2]int]*par.Memo[*blogclusters.Engine]{}}
	if c.state != nil {
		c.retired = append(c.retired, c.state)
	}
	c.state = st
	return st
}

// nodeBases fills (once per generation) the prefix cluster counts that
// translate sub-graph node ids to global ones.
func (c *Coordinator) nodeBases(ctx context.Context, st *coordState) ([]int, error) {
	return st.bases.Get(ctx, func() ([]int, error) {
		perShard := make([][]int, len(c.backends))
		err := c.gather(ctx, len(c.backends), func(ctx context.Context, s int) error {
			width := st.starts[s+1] - st.starts[s]
			counts, err := hop(ctx, c, s, "cluster-counts", func(b Backend) ([]int, error) { return b.ClusterCounts(ctx, 0, width) })
			if err != nil {
				return err
			}
			if len(counts) < width {
				return fmt.Errorf("shard: shard %d returned %d cluster counts, want %d: %w", s, len(counts), width, ErrUnavailable)
			}
			perShard[s] = counts[:width]
			return nil
		})
		if err != nil {
			return nil, err
		}
		bases := make([]int, st.m+1)
		i := 0
		for _, counts := range perShard {
			for _, n := range counts {
				bases[i+1] = bases[i] + n
				i++
			}
		}
		return bases, nil
	})
}

// gatherSets fetches the cluster sets of global intervals [lo, hi) from
// the owning shards concurrently. Each cluster's Interval is re-stamped
// to stampBase+position (pass lo for global coordinates, 0 for a
// window-local engine); within-interval IDs are already canonical.
func (c *Coordinator) gatherSets(ctx context.Context, st *coordState, lo, hi, stampBase int) ([][]blogclusters.Cluster, error) {
	type span struct{ shard, from, to, off int } // off: global interval of from
	var spans []span
	for s := range c.backends {
		a, b := st.starts[s], st.starts[s+1]
		f, t := max(lo, a), min(hi, b)
		if f < t {
			spans = append(spans, span{s, f - a, t - a, f})
		}
	}
	out := make([][]blogclusters.Cluster, hi-lo)
	err := c.gather(ctx, len(spans), func(ctx context.Context, i int) error {
		sp := spans[i]
		sets, err := hop(ctx, c, sp.shard, "cluster-sets", func(b Backend) ([][]blogclusters.Cluster, error) {
			return b.ClusterSets(ctx, sp.from, sp.to)
		})
		if err != nil {
			return err
		}
		if len(sets) != sp.to-sp.from {
			return fmt.Errorf("shard: shard %d returned %d cluster sets for [%d,%d): %w", sp.shard, len(sets), sp.from, sp.to, ErrUnavailable)
		}
		for j, cs := range sets {
			gi := sp.off + j
			restamped := make([]blogclusters.Cluster, len(cs))
			for k, cl := range cs {
				cl.Interval = stampBase + (gi - lo)
				restamped[k] = cl
			}
			out[gi-lo] = restamped
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// openSetsEngine opens a cluster-set engine with the coordinator's
// session options — the same graph the shards (and the unsharded
// reference engine) build, so node ids and weights line up exactly.
func (c *Coordinator) openSetsEngine(sets [][]blogclusters.Cluster) (*blogclusters.Engine, error) {
	return blogclusters.Open(context.Background(), blogclusters.FromClusterSets(sets),
		blogclusters.WithGraphOptions(c.opts.Graph))
}

// mergedEngine fills (once per generation) the whole-corpus engine.
func (c *Coordinator) mergedEngine(ctx context.Context, st *coordState) (*blogclusters.Engine, error) {
	return st.merged.Get(ctx, func() (*blogclusters.Engine, error) {
		sets, err := c.gatherSets(ctx, st, 0, st.m, 0)
		if err != nil {
			return nil, err
		}
		return c.openSetsEngine(sets)
	})
}

// windowEngine fills (once per generation and window) the engine over
// global intervals [lo, hi), with intervals rebased to window-local.
func (c *Coordinator) windowEngine(ctx context.Context, st *coordState, lo, hi int) (*blogclusters.Engine, error) {
	st.winMu.Lock()
	ce, ok := st.windows[[2]int{lo, hi}]
	if !ok {
		ce = &par.Memo[*blogclusters.Engine]{}
		st.windows[[2]int{lo, hi}] = ce
	}
	st.winMu.Unlock()
	return ce.Get(ctx, func() (*blogclusters.Engine, error) {
		sets, err := c.gatherSets(ctx, st, lo, hi, 0)
		if err != nil {
			return nil, err
		}
		return c.openSetsEngine(sets)
	})
}

// scatterable reports whether the query decomposes into shard-local
// solves plus boundary windows: bounded-length top-k only. Full paths
// (L == m-1 or -1) span every shard; normalized and diverse variants
// rank against global state; TA requires l = m-1 of whatever graph it
// runs on, which no boundary window satisfies.
func scatterable(spec blogclusters.QuerySpec, m int) bool {
	if spec.Variant != core.VariantTopK {
		return false
	}
	if spec.L <= 0 || spec.L >= m-1 {
		return false
	}
	info, ok := core.Lookup(spec.Algorithm)
	return ok && !info.FullPathsOnly
}

// boundaryWindows returns the coalesced scatter windows for temporal
// length l: for each shard boundary b the window [max(0,b-l),
// min(m,b+l)) — every path of length l crossing b lies inside it —
// with overlapping windows merged so shared intervals are gathered and
// solved once.
func boundaryWindows(starts []int, m, l int) [][2]int {
	var out [][2]int
	for s := 1; s < len(starts)-1; s++ {
		b := starts[s]
		lo, hi := max(0, b-l), min(m, b+l)
		if n := len(out); n > 0 && lo <= out[n-1][1] {
			if hi > out[n-1][1] {
				out[n-1][1] = hi
			}
			continue
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// addStats folds one partial solve's work counters into the aggregate.
func addStats(dst *core.Stats, src core.Stats) {
	dst.NodeReads += src.NodeReads
	dst.NodeWrites += src.NodeWrites
	dst.EdgeReads += src.EdgeReads
	dst.HeapConsiders += src.HeapConsiders
	dst.Pruned += src.Pruned
	dst.Repushes += src.Repushes
	dst.RandomSeeks += src.RandomSeeks
	dst.PeakStatePaths += src.PeakStatePaths
}

// Solve answers a stable-cluster query over the sharded corpus,
// returning exactly what one unsharded Engine over the full corpus
// would. Bounded-length top-k scatters (shard-local solves plus
// boundary-window solves, merged through one deterministic top-k heap);
// everything else runs on the merged engine. With a single backend the
// whole query forwards verbatim — the shard is the corpus.
func (c *Coordinator) Solve(ctx context.Context, spec blogclusters.QuerySpec) (*blogclusters.Result, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel, err := c.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	if len(c.backends) == 1 {
		c.metrics.solves.With("forward").Inc()
		return c.solveOn(ctx, 0, spec)
	}
	st := c.curState()
	if scatterable(spec, st.m) {
		c.metrics.solves.With("scatter").Inc()
		return c.scatterSolve(ctx, st, spec)
	}
	c.metrics.solves.With("merged").Inc()
	eng, err := c.mergedEngine(ctx, st)
	if err != nil {
		return nil, err
	}
	return eng.Solve(ctx, spec)
}

// solveOn forwards spec to shard s.
func (c *Coordinator) solveOn(ctx context.Context, s int, spec blogclusters.QuerySpec) (*blogclusters.Result, error) {
	return hop(ctx, c, s, "solve", func(b Backend) (*blogclusters.Result, error) { return b.Solve(ctx, spec) })
}

// scatterSolve runs the decomposed top-k: every shard wide enough to
// hold a length-l path solves its own sub-graph, every boundary window
// is solved on a window engine, and the partials — remapped to global
// node ids by offset — merge through one topk.K. Exactness: a length-l
// path either lies within one shard (found by that shard's solve) or
// crosses a boundary b, in which case its intervals lie inside
// [b-l, b+l) and the window solve finds it. Work counters sum across
// partials.
func (c *Coordinator) scatterSolve(ctx context.Context, st *coordState, spec blogclusters.QuerySpec) (*blogclusters.Result, error) {
	l := spec.L
	bases, err := c.nodeBases(ctx, st)
	if err != nil {
		return nil, err
	}
	var locals []int
	for s := range c.backends {
		if st.starts[s+1]-st.starts[s] > l {
			locals = append(locals, s)
		}
	}
	wins := boundaryWindows(st.starts, st.m, l)

	n := len(locals) + len(wins)
	c.metrics.fanout.Observe(float64(n))
	c.metrics.partials.With("local").Add(float64(len(locals)))
	c.metrics.partials.With("window").Add(float64(len(wins)))
	partials := make([]*blogclusters.Result, n)
	offsets := make([]int64, n)
	err = c.gather(ctx, n, func(ctx context.Context, i int) error {
		var res *blogclusters.Result
		var err error
		if i < len(locals) {
			s := locals[i]
			res, err = c.solveOn(ctx, s, spec)
			offsets[i] = int64(bases[st.starts[s]])
		} else {
			w := wins[i-len(locals)]
			var eng *blogclusters.Engine
			eng, err = c.windowEngine(ctx, st, w[0], w[1])
			if err == nil {
				res, err = eng.Solve(ctx, spec)
			}
			offsets[i] = int64(bases[w[0]])
		}
		if err != nil {
			return err
		}
		partials[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge in deterministic order. Duplicates (a window path also found
	// by a shard) collapse by node-sequence identity inside Consider.
	best := topk.NewK(spec.K)
	var stats core.Stats
	for i, res := range partials {
		addStats(&stats, res.Stats)
		for _, p := range res.Paths {
			nodes := make([]int64, len(p.Nodes))
			for j, id := range p.Nodes {
				nodes[j] = id + offsets[i]
			}
			best.Consider(topk.Path{Nodes: nodes, Length: p.Length, Weight: p.Weight})
		}
	}
	return &blogclusters.Result{Paths: best.Items(), Stats: stats}, nil
}

// Describe renders a stable-cluster path (global node ids) with its
// keyword clusters, resolving through the merged engine's graph — the
// same graph, node for node, as the unsharded session's.
func (c *Coordinator) Describe(ctx context.Context, p blogclusters.Path) (string, error) {
	ctx, cancel, err := c.queryCtx(ctx)
	if err != nil {
		return "", err
	}
	defer cancel()
	eng, err := c.mergedEngine(ctx, c.curState())
	if err != nil {
		return "", err
	}
	return eng.Describe(ctx, p)
}

// ClusterSets returns the cluster sets of global intervals [from, to),
// gathered from the owning shards and re-stamped to global interval
// coordinates.
func (c *Coordinator) ClusterSets(ctx context.Context, from, to int) ([][]blogclusters.Cluster, error) {
	ctx, cancel, err := c.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	st := c.curState()
	if from < 0 || to < from || to > st.m {
		return nil, fmt.Errorf("shard: interval range [%d,%d) outside [0,%d]: %w", from, to, st.m, blogclusters.ErrInvalidQuery)
	}
	return c.gatherSets(ctx, st, from, to, from)
}
