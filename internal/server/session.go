package server

import (
	"context"

	blogclusters "repro"
)

// Session is the query surface the server fronts: everything the /v1
// routes need from whatever answers them. *blogclusters.Engine
// satisfies it directly (one loaded corpus), and so does
// shard.Coordinator (N corpora scattered over shard backends and
// gathered back) — the handlers, response cache and generation keying
// cannot tell the two apart, which is the point: sharding is a
// deployment decision, not an API one.
//
// The Server does not own the Session: the caller closes it after
// draining HTTP.
type Session interface {
	// Generation increments on every successful Push; the response
	// cache keys sequence-dependent answers by it.
	Generation() int64
	Solve(ctx context.Context, spec blogclusters.QuerySpec) (*blogclusters.Result, error)
	Describe(ctx context.Context, p blogclusters.Path) (string, error)
	TimeSeries(ctx context.Context, keyword string) ([]int64, error)
	DocTotals(ctx context.Context) ([]int64, error)
	Bursts(ctx context.Context, keyword string) ([]blogclusters.KeywordBurst, error)
	Search(ctx context.Context, terms []string, interval int) ([]int64, error)
	Refine(ctx context.Context, query string, interval int) ([]string, error)
	Correlations(ctx context.Context, keyword string, interval, n int) ([]blogclusters.Correlation, error)
	ClusterSets(ctx context.Context, from, to int) ([][]blogclusters.Cluster, error)
	Push(ctx context.Context, iv blogclusters.Interval) (int64, error)
	Stats() blogclusters.EngineStats
}

// sessionBox wraps a Session for atomic.Pointer storage (interfaces
// cannot be stored atomically without a concrete box).
type sessionBox struct{ s Session }
