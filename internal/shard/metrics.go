package shard

import (
	"context"
	"io"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// coordMetrics is the coordinator's own registry. The serving layer
// appends it to the server exposition (see internal/server's
// metricsAppender), so every family here is prefixed coordinator_ or
// shard_ to keep the merged output collision-free. Per-hop series are
// live (recorded by hop); per-shard state gauges are mirrored from
// ShardStats at scrape time.
type coordMetrics struct {
	reg *metrics.Registry

	// Live, per backend hop.
	hopDur  *metrics.Vec // coordinator_shard_gather_duration_seconds{shard,method}
	hopErrs *metrics.Vec // coordinator_backend_errors_total{shard,method}

	// Live, per Solve.
	solves   *metrics.Vec    // coordinator_solves_total{route}
	partials *metrics.Vec    // coordinator_scatter_partials_total{kind}
	fanout   *metrics.Series // coordinator_fanout_width

	// Scrape-time mirrors of ShardStats.
	shardGen         *metrics.Vec // shard_generation{shard}
	shardIntervals   *metrics.Vec // shard_intervals{shard}
	shardQueries     *metrics.Vec // shard_queries_total{shard}
	shardPushes      *metrics.Vec // shard_pushes_total{shard}
	shardUnreachable *metrics.Vec // shard_unreachable{shard}
}

// fanoutBuckets covers realistic scatter widths: a handful of shards
// plus their boundary windows.
var fanoutBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

func newCoordMetrics() *coordMetrics {
	reg := metrics.NewRegistry()
	m := &coordMetrics{reg: reg}
	m.hopDur = reg.Histogram("coordinator_shard_gather_duration_seconds",
		"Latency of one backend hop during a gather, by shard and method.",
		nil, "shard", "method")
	m.hopErrs = reg.Counter("coordinator_backend_errors_total",
		"Failed backend hops, by shard and method.", "shard", "method")
	m.solves = reg.Counter("coordinator_solves_total",
		"Coordinator Solve calls, by route (forward: single backend; scatter: decomposed top-k; merged: whole-corpus engine).", "route")
	m.partials = reg.Counter("coordinator_scatter_partials_total",
		"Partial solves issued by scatterSolve, by kind (local: one shard's sub-graph; window: a boundary-window engine).", "kind")
	m.fanout = reg.Histogram("coordinator_fanout_width",
		"Concurrent partial solves per scattered query (shard-local plus boundary-window).",
		fanoutBuckets).With()
	m.shardGen = reg.Gauge("shard_generation",
		"Per-shard ingest generation.", "shard")
	m.shardIntervals = reg.Gauge("shard_intervals",
		"Per-shard corpus width in intervals.", "shard")
	m.shardQueries = reg.Counter("shard_queries_total",
		"Per-shard Engine query calls (mirrored from the shard's stats).", "shard")
	m.shardPushes = reg.Counter("shard_pushes_total",
		"Per-shard successful pushes (mirrored from the shard's stats).", "shard")
	m.shardUnreachable = reg.Gauge("shard_unreachable",
		"1 when the shard's stats could not be fetched on the last scrape.", "shard")
	return m
}

// WriteMetrics renders the coordinator registry after refreshing the
// per-shard gauges from a best-effort ShardStats fan-out. The serving
// layer calls this from /metrics after its own registry; shard rows
// that do not answer within the stats timeout expose
// shard_unreachable=1 instead of stale numbers.
func (c *Coordinator) WriteMetrics(w io.Writer) (int64, error) {
	for _, ss := range c.ShardStats() {
		label := strconv.Itoa(ss.Shard)
		c.metrics.shardIntervals.With(label).Set(float64(ss.Intervals))
		if ss.Error != "" || ss.Engine == nil {
			c.metrics.shardUnreachable.With(label).Set(1)
			continue
		}
		c.metrics.shardUnreachable.With(label).Set(0)
		c.metrics.shardGen.With(label).Set(float64(ss.Generation))
		c.metrics.shardQueries.With(label).Set(float64(ss.Engine.Queries))
		c.metrics.shardPushes.With(label).Set(float64(ss.Engine.Pushes))
	}
	return c.metrics.reg.WriteTo(w)
}

// hop runs one backend call with the per-hop accounting: it observes
// the {shard,method} latency histogram, counts a failed call in the
// error counter and, when the request context carries a ?trace=1 span
// recorder, records the hop as a "shard<N>.<method>" span. Every
// backend call goes through it, NewCoordinator's Meta handshake
// included.
func hop[T any](ctx context.Context, c *Coordinator, s int, method string, call func(Backend) (T, error)) (T, error) {
	start := time.Now()
	out, err := call(c.backends[s])
	label := strconv.Itoa(s)
	c.metrics.hopDur.With(label, method).Observe(time.Since(start).Seconds())
	if err != nil {
		c.metrics.hopErrs.With(label, method).Inc()
	}
	if rec := obs.RecorderFrom(ctx); rec != nil {
		rec.Record("shard"+label+"."+method, start, err)
	}
	return out, err
}
