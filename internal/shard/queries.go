package shard

import (
	"context"
	"fmt"

	blogclusters "repro"
	"repro/internal/burst"
)

// gatherSeries fetches one keyword's (counts, totals) from every shard
// and concatenates them in shard order into the global trajectory. Each
// shard's pair is clamped to its partition width, so a racing
// direct-to-shard push cannot skew the global alignment.
func (c *Coordinator) gatherSeries(ctx context.Context, st *coordState, keyword string) (counts, totals []int64, err error) {
	perC := make([][]int64, len(c.backends))
	perT := make([][]int64, len(c.backends))
	err = c.gather(ctx, len(c.backends), func(ctx context.Context, s int) error {
		var ts []int64
		cs, err := hop(ctx, c, s, "timeseries", func(b Backend) ([]int64, error) {
			cs, t, err := b.TimeSeries(ctx, keyword)
			ts = t
			return cs, err
		})
		if err != nil {
			return err
		}
		width := st.starts[s+1] - st.starts[s]
		perC[s] = clampSeries(cs, width)
		perT[s] = clampSeries(ts, width)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	counts = make([]int64, 0, st.m)
	totals = make([]int64, 0, st.m)
	for s := range c.backends {
		counts = append(counts, perC[s]...)
		totals = append(totals, perT[s]...)
	}
	return counts, totals, nil
}

// clampSeries trims or zero-pads s to exactly width entries.
func clampSeries(s []int64, width int) []int64 {
	if len(s) == width {
		return s
	}
	out := make([]int64, width)
	copy(out, s)
	return out
}

// TimeSeries returns the keyword's per-interval document frequency over
// the whole sharded corpus (shard series concatenated in interval
// order).
func (c *Coordinator) TimeSeries(ctx context.Context, keyword string) ([]int64, error) {
	ctx, cancel, err := c.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	counts, _, err := c.gatherSeries(ctx, c.curState(), keyword)
	return counts, err
}

// DocTotals returns the per-interval document totals across all shards.
func (c *Coordinator) DocTotals(ctx context.Context) ([]int64, error) {
	ctx, cancel, err := c.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	st := c.curState()
	perT := make([][]int64, len(c.backends))
	err = c.gather(ctx, len(c.backends), func(ctx context.Context, s int) error {
		m, err := hop(ctx, c, s, "meta", func(b Backend) (Meta, error) { return b.Meta(ctx) })
		if err != nil {
			return err
		}
		perT[s] = clampSeries(m.Totals, st.starts[s+1]-st.starts[s])
		return nil
	})
	if err != nil {
		return nil, err
	}
	totals := make([]int64, 0, st.m)
	for s := range c.backends {
		totals = append(totals, perT[s]...)
	}
	return totals, nil
}

// Bursts returns the keyword's information bursts over the whole
// corpus. Burst detection cannot scatter — the Kleinberg automaton's
// state at interval i depends on the entire prefix, and a burst may
// span a shard boundary — so the coordinator gathers the per-shard
// (counts, totals) pairs, concatenates them, and runs the automaton
// itself: the exact computation the unsharded engine performs.
func (c *Coordinator) Bursts(ctx context.Context, keyword string) ([]blogclusters.KeywordBurst, error) {
	ctx, cancel, err := c.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	counts, totals, err := c.gatherSeries(ctx, c.curState(), keyword)
	if err != nil {
		return nil, err
	}
	return burst.Kleinberg(counts, totals, burst.KleinbergOptions{})
}

// route resolves a global interval to (shard, local interval),
// rejecting out-of-range intervals with the same sentinel (and shape)
// the Engine uses.
func (c *Coordinator) route(st *coordState, interval int) (shard, local int, err error) {
	if interval < 0 || interval >= st.m {
		return 0, 0, fmt.Errorf("shard: interval %d outside [0,%d): %w", interval, st.m, blogclusters.ErrInvalidQuery)
	}
	s := shardFor(st.starts, interval)
	return s, interval - st.starts[s], nil
}

// Search returns the ids of interval documents containing every term,
// routed to the single shard owning the interval.
func (c *Coordinator) Search(ctx context.Context, terms []string, interval int) ([]int64, error) {
	ctx, cancel, err := c.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	s, local, err := c.route(c.curState(), interval)
	if err != nil {
		return nil, err
	}
	return hop(ctx, c, s, "search", func(b Backend) ([]int64, error) { return b.Search(ctx, terms, local) })
}

// Refine returns the other keywords of the interval cluster containing
// the query keyword, routed to the owning shard.
func (c *Coordinator) Refine(ctx context.Context, query string, interval int) ([]string, error) {
	ctx, cancel, err := c.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	s, local, err := c.route(c.curState(), interval)
	if err != nil {
		return nil, err
	}
	return hop(ctx, c, s, "refine", func(b Backend) ([]string, error) { return b.Refine(ctx, query, local) })
}

// Correlations returns the keyword's strongest in-interval
// correlations, routed to the owning shard.
func (c *Coordinator) Correlations(ctx context.Context, keyword string, interval, n int) ([]blogclusters.Correlation, error) {
	ctx, cancel, err := c.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	s, local, err := c.route(c.curState(), interval)
	if err != nil {
		return nil, err
	}
	return hop(ctx, c, s, "correlations", func(b Backend) ([]blogclusters.Correlation, error) {
		return b.Correlations(ctx, keyword, local, n)
	})
}
