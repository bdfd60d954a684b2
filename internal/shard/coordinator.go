package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	blogclusters "repro"
	"repro/internal/par"
)

// Options tunes a Coordinator.
type Options struct {
	// Graph is the session's cluster-graph options. It must match the
	// shards' own graph (the same -gap/-theta on every shard server) or
	// merged answers would be built on a different graph than
	// scattered ones.
	Graph blogclusters.GraphOptions
}

// statsTimeout bounds the best-effort shard fan-out behind ShardStats.
const statsTimeout = 2 * time.Second

// Coordinator fronts N shard Backends as one Engine-shaped session: it
// implements the same query surface (internal/server's Session), so the
// serving layer cannot tell it from a single Engine. See the package
// comment for the partition map, merge rules and failure policy.
type Coordinator struct {
	backends []Backend
	opts     Options
	metrics  *coordMetrics

	// root is canceled by Close; every query context joins it.
	root context.Context
	stop context.CancelFunc

	// mu guards the partition map and per-shard generations.
	mu        sync.Mutex
	counts    []int // per-shard interval counts
	shardGens []int64

	// gen is the composite generation: sum(shardGens) - N + 1.
	gen atomic.Int64

	// pushMu serializes Push (generations are a total order).
	pushMu sync.Mutex

	// stateMu guards the per-generation cache state. Retired states are
	// kept so their merged engines can be closed at Close (in-flight
	// queries may still hold them; see curState).
	stateMu sync.Mutex
	state   *coordState
	retired []*coordState

	queries atomic.Int64
	pushes  atomic.Int64
}

// NewCoordinator assembles a coordinator over backends (shard order is
// interval order: backends[0] owns the earliest intervals). It fetches
// each shard's Meta to build the partition map; every shard must
// already hold at least one interval. The coordinator owns the
// backends: Close closes them.
func NewCoordinator(ctx context.Context, backends []Backend, opts Options) (*Coordinator, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("shard: need at least one backend")
	}
	c := &Coordinator{
		backends:  backends,
		opts:      opts,
		metrics:   newCoordMetrics(),
		counts:    make([]int, len(backends)),
		shardGens: make([]int64, len(backends)),
	}
	c.root, c.stop = context.WithCancel(context.Background())
	metas := make([]Meta, len(backends))
	err := c.gather(ctx, len(backends), func(ctx context.Context, s int) (err error) {
		metas[s], err = hop(ctx, c, s, "meta", func(b Backend) (Meta, error) { return b.Meta(ctx) })
		return err
	})
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("shard: fetch shard meta: %w", err)
	}
	composite := int64(1 - len(backends))
	for s, m := range metas {
		if m.Intervals < 1 {
			c.stop()
			return nil, fmt.Errorf("shard: shard %d owns no intervals", s)
		}
		c.counts[s] = m.Intervals
		c.shardGens[s] = m.Generation
		composite += m.Generation
	}
	c.gen.Store(composite)
	return c, nil
}

// Close cancels in-flight queries, closes every backend and every
// merged engine built along the way. Idempotent.
func (c *Coordinator) Close() error {
	c.stop()
	var first error
	c.stateMu.Lock()
	states := append(c.retired, c.state)
	c.retired, c.state = nil, nil
	c.stateMu.Unlock()
	for _, st := range states {
		if st == nil {
			continue
		}
		for _, eng := range st.engines() {
			if err := eng.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	for _, b := range c.backends {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Generation returns the composite generation: 1 when every shard is at
// its open generation, +1 for every push routed through the
// coordinator — the same contract as Engine.Generation, so response
// caches key by it unchanged. Pushes applied directly to a shard
// (bypassing the coordinator) are not observed.
func (c *Coordinator) Generation() int64 { return c.gen.Load() }

// snap reads the composite generation and the partition map under one
// lock, so a caller never pairs a post-push partition with a pre-push
// generation (Push stores the new generation while still holding mu).
// starts[s] is the first global interval of shard s, starts[N] == m
// (the total width).
func (c *Coordinator) snap() (gen int64, starts []int, m int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	starts = make([]int, len(c.counts)+1)
	for s, n := range c.counts {
		starts[s+1] = starts[s] + n
	}
	return c.gen.Load(), starts, starts[len(c.counts)]
}

// shardFor locates the shard owning global interval gi under starts.
func shardFor(starts []int, gi int) int {
	for s := 0; s < len(starts)-1; s++ {
		if gi < starts[s+1] {
			return s
		}
	}
	return len(starts) - 2
}

// queryCtx joins the caller's context with the coordinator's lifetime.
func (c *Coordinator) queryCtx(ctx context.Context) (context.Context, context.CancelFunc, error) {
	if err := c.root.Err(); err != nil {
		return nil, nil, blogclusters.ErrEngineClosed
	}
	c.queries.Add(1)
	jctx, cancel := context.WithCancel(ctx)
	unlink := context.AfterFunc(c.root, cancel)
	return jctx, func() { unlink(); cancel() }, nil
}

// gather fans fn out over n items, one worker each (fan-out is I/O
// bound, not CPU bound), and returns the lowest-index error — the
// fail-closed policy: any failed shard fails the whole merge, never a
// silently truncated one.
func (c *Coordinator) gather(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return par.ForEachCtx(ctx, n, n, func(i int) error { return fn(ctx, i) })
}

// Push appends the next global interval: it must be interval m (else
// ErrOutOfOrderInterval), is rebased and routed to the last shard (the
// owner of the tail of the sequence), and on success bumps the
// composite generation — invalidating exactly the generation-keyed
// response-cache entries, like a single Engine's push would.
func (c *Coordinator) Push(ctx context.Context, iv blogclusters.Interval) (int64, error) {
	ctx, cancel, err := c.queryCtx(ctx)
	if err != nil {
		return 0, err
	}
	defer cancel()
	c.pushMu.Lock()
	defer c.pushMu.Unlock()

	_, starts, m := c.snap()
	if iv.Index != m {
		return 0, fmt.Errorf("shard: pushed interval %d, coordinator expects %d: %w", iv.Index, m, blogclusters.ErrOutOfOrderInterval)
	}
	last := len(c.backends) - 1
	local := iv.Index - starts[last]
	liv := blogclusters.Interval{Index: local, Label: iv.Label}
	liv.Docs = make([]blogclusters.Document, len(iv.Docs))
	for i, d := range iv.Docs {
		if d.Interval != iv.Index {
			// The shard would accept the rebased doc, so the coordinator
			// must apply the single-engine rule itself: every doc claims
			// the interval it is pushed into.
			return 0, fmt.Errorf("shard: document %d claims interval %d inside pushed interval %d: %w", d.ID, d.Interval, iv.Index, blogclusters.ErrMalformedInterval)
		}
		d.Interval = local
		liv.Docs[i] = d
	}
	gen, err := hop(ctx, c, last, "push", func(b Backend) (int64, error) { return b.Push(ctx, liv) })
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.counts[last]++
	c.shardGens[last] = gen
	composite := int64(1 - len(c.backends))
	for _, g := range c.shardGens {
		composite += g
	}
	c.gen.Store(composite)
	c.mu.Unlock()
	c.pushes.Add(1)
	return composite, nil
}

// ShardStat is one shard's slice of /debug/stats.
type ShardStat struct {
	// Shard is the shard index (interval order).
	Shard int `json:"shard"`
	// Start is the shard's first global interval; Intervals its width.
	Start     int `json:"start"`
	Intervals int `json:"intervals"`
	// Generation is the shard's own generation (the composite is the
	// sum over shards minus N-1).
	Generation int64 `json:"generation"`
	// Error is set when the shard's stats could not be fetched (stats
	// are best-effort; queries still fail closed).
	Error string `json:"error,omitempty"`
	// Engine is the shard's EngineStats (nil when Error is set).
	Engine *blogclusters.EngineStats `json:"engine,omitempty"`
}

// ShardStats snapshots every shard, best-effort: an unreachable shard
// contributes its partition-map row with Error set instead of failing
// the whole dashboard.
func (c *Coordinator) ShardStats() []ShardStat {
	_, starts, _ := c.snap()
	// A closed coordinator's root is canceled, so the fan-out fails fast.
	ctx, cancel := context.WithTimeout(c.root, statsTimeout)
	defer cancel()
	out := make([]ShardStat, len(c.backends))
	_ = c.gather(ctx, len(c.backends), func(ctx context.Context, s int) error {
		out[s] = ShardStat{Shard: s, Start: starts[s], Intervals: starts[s+1] - starts[s]}
		st, err := hop(ctx, c, s, "stats", func(b Backend) (blogclusters.EngineStats, error) { return b.Stats(ctx) })
		if err != nil {
			out[s].Error = err.Error()
			return nil // best-effort: report, don't fail the gather
		}
		out[s].Generation = st.Generation
		out[s].Engine = &st
		return nil
	})
	return out
}

// Stats aggregates the shards' EngineStats into one Engine-shaped
// snapshot: counters sum, stage timings merge, the generation is the
// composite and Intervals the total width. Per-shard detail is on
// ShardStats. Unreachable shards contribute nothing (best-effort, like
// ShardStats).
func (c *Coordinator) Stats() blogclusters.EngineStats {
	gen, _, m := c.snap()
	out := blogclusters.EngineStats{
		Generation: gen,
		Intervals:  m,
		Stages:     map[string]blogclusters.StageTiming{},
	}
	for _, ss := range c.ShardStats() {
		if ss.Engine == nil {
			continue
		}
		mergeEngineStats(&out, *ss.Engine)
	}
	return out
}

// mergeEngineStats accumulates src's counters into dst (generation and
// intervals are owned by the caller).
func mergeEngineStats(dst *blogclusters.EngineStats, src blogclusters.EngineStats) {
	dst.Queries += src.Queries
	dst.Pushes += src.Pushes
	dst.IndexSegments += src.IndexSegments
	dst.IndexCompactions += src.IndexCompactions
	dst.IndexIO.Add(src.IndexIO)
	dst.IndexCache.Hits += src.IndexCache.Hits
	dst.IndexCache.Misses += src.IndexCache.Misses
	dst.IndexCache.Bytes += src.IndexCache.Bytes
	for name, t := range src.Stages {
		cur := dst.Stages[name]
		cur.Builds += t.Builds
		cur.Total += t.Total
		dst.Stages[name] = cur
	}
	dst.Planner.Merge(src.Planner)
}
