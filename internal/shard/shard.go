// Package shard scales the serving layer past one machine: a
// Coordinator owns N Engine shards partitioned by contiguous interval
// ranges and answers the whole Engine query surface by scatter-gather —
// route each query to the shards whose ranges overlap it, gather the
// partial results concurrently, merge them into exactly what a single
// unsharded Engine over the full corpus would have returned.
//
// Partition map. Shard s owns the contiguous global intervals
// [starts[s], starts[s+1]); every shard holds its sub-corpus with
// interval indexes rebased to 0, so a shard is an ordinary Engine (or
// an ordinary blogserved instance) that knows nothing about sharding.
// The coordinator translates global↔local interval indexes at the
// boundary, and node ids by offset: cluster-graph node ids are assigned
// sequentially interval by interval, so a shard-local node id maps to
// the global id by adding the cumulative cluster count of all earlier
// intervals.
//
// Merge rules:
//
//   - Interval-scoped queries (Search, Refine, Correlations) route to
//     the single owning shard with the interval rebased.
//   - TimeSeries and per-interval doc totals concatenate in shard
//     order. Bursts cannot concatenate (the Kleinberg automaton is
//     global over the trajectory), so the coordinator gathers counts
//     and totals and runs the automaton itself.
//   - Bounded-length top-k (variant topk, 0 < l < m-1) scatters: each
//     wide-enough shard solves locally, and for each shard boundary b
//     the coordinator solves the window [b-l, b+l) of gathered cluster
//     sets — any path of temporal length l that crosses b lies inside
//     that window, so shard-local top-k plus per-boundary window top-k
//     together contain the exact global top-k. Partials merge through
//     one topk.K with deterministic duplicate handling.
//   - Everything else (normalized, diverse, full paths, TA) is not
//     decomposable — the answer depends on global state — so the
//     coordinator assembles a merged engine from the gathered cluster
//     sets (canonical per interval, hence identical to the unsharded
//     engine's) and answers on it. Correct for every variant, at the
//     cost of gathering all sets once per generation.
//   - Push routes to the last shard (the next global interval is
//     always in its range) and bumps the composite generation.
//
// Generations compose as sum(shard generations) - N + 1: 1 at open,
// +1 per push — indistinguishable from a single Engine's generation,
// so the serving layer's g<gen>| response-cache keys and invalidation
// carry over unchanged.
//
// Failure policy: fail closed. Any shard error fails the whole query —
// a merge missing one shard's contribution would be a silently wrong
// answer, not a degraded one. Transient shard failures surface as
// ErrUnavailable so the serving layer maps them to 503 (retryable),
// while shard-side validation sentinels pass through unchanged.
//
// One transport implements Backend: internal/server's Client, which
// speaks the serving layer's JSON API to shard servers, remote ones or
// in-process ones reached without a socket. This package holds no wire
// format; the interface keeps server → shard the only import direction.
// Every backend call goes through hop, which meters it.
package shard

import (
	"context"
	"errors"

	blogclusters "repro"
)

// ErrUnavailable marks transient fan-out failures: a shard that cannot
// be reached, is shedding load, or answered with a server-side error.
// The serving layer maps it to 503 + Retry-After; the query may succeed
// on retry without any client-side change.
var ErrUnavailable = errors.New("shard: shard unavailable")

// Meta is a shard's self-description: how many intervals it owns, its
// ingest generation, and its per-interval document totals (the burst
// denominators, gathered so the coordinator can run the global burst
// automaton).
type Meta struct {
	Intervals  int
	Generation int64
	Totals     []int64
}

// Backend is one shard as the coordinator sees it: the Engine query
// surface in shard-local interval coordinates. Implementations must be
// safe for concurrent use.
type Backend interface {
	// Meta describes the shard's current state.
	Meta(ctx context.Context) (Meta, error)
	// ClusterSets returns the cluster sets of local intervals [from, to).
	ClusterSets(ctx context.Context, from, to int) ([][]blogclusters.Cluster, error)
	// ClusterCounts returns the per-interval cluster counts of local
	// intervals [from, to) — enough to build node-id offset maps without
	// shipping the keyword sets.
	ClusterCounts(ctx context.Context, from, to int) ([]int, error)
	// Solve answers a stable-cluster query over the shard's sub-graph.
	Solve(ctx context.Context, spec blogclusters.QuerySpec) (*blogclusters.Result, error)
	// TimeSeries returns the keyword's per-interval document frequency
	// alongside the matching per-interval totals (trimmed to the same
	// width, so burst inputs always line up).
	TimeSeries(ctx context.Context, keyword string) (counts, totals []int64, err error)
	// Search returns the ids of local-interval documents containing
	// every term.
	Search(ctx context.Context, terms []string, interval int) ([]int64, error)
	// Refine returns the other keywords of the cluster containing the
	// query keyword in the local interval.
	Refine(ctx context.Context, query string, interval int) ([]string, error)
	// Correlations returns the keyword's strongest correlations in the
	// local interval.
	Correlations(ctx context.Context, keyword string, interval, n int) ([]blogclusters.Correlation, error)
	// Push appends the next local interval and returns the shard's new
	// generation.
	Push(ctx context.Context, iv blogclusters.Interval) (int64, error)
	// Stats snapshots the shard's EngineStats.
	Stats(ctx context.Context) (blogclusters.EngineStats, error)
	// Close releases whatever the backend owns (the Engine of an
	// in-process shard; nothing for a remote one).
	Close() error
}
