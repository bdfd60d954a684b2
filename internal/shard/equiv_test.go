package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	blogclusters "repro"
	"repro/internal/corpus"
	"repro/internal/server"
	"repro/internal/shard"
)

// The shard subsystem's contract is exact equivalence: a Coordinator
// over any shard count, on either carrier of server.Client (in-memory
// or a loopback socket), answers every query with
// byte-for-byte the same result as one unsharded Engine over the full
// corpus — before and after a push. These tests check that contract on
// a corpus with events deliberately spanning shard boundaries (the
// paths a naive shard-local solve would miss).

// equivGraph is the one graph every party builds: the reference
// engine, the shard engines and the coordinator's merged/window
// engines must agree on it or node ids and weights drift.
var equivGraph = blogclusters.GraphOptions{Gap: 1, Theta: 0.1}

func equivCollection(t testing.TB, m int) *blogclusters.Collection {
	t.Helper()
	cfg := blogclusters.NewsWeekCorpus(42, 0)
	cfg.NumIntervals = m
	cfg.BackgroundPosts = 120
	cfg.BackgroundVocab = 100
	cfg.WordsPerPost = 6
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	cfg.Events = []corpus.Event{
		{Name: "span", Phases: []corpus.Phase{{
			Keywords: []string{"alpha", "beta", "gamma"}, Intervals: all, Posts: 25,
		}}},
		{Name: "drift", Phases: []corpus.Phase{
			{Keywords: []string{"delta", "epsilon"}, Intervals: all[:m/2+1], Posts: 20},
			{Keywords: []string{"epsilon", "zeta"}, Intervals: all[m/2:], Posts: 20},
		}},
	}
	col, err := blogclusters.GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func engineOpts() []blogclusters.Option {
	return []blogclusters.Option{blogclusters.WithGraphOptions(equivGraph)}
}

func coordOpts() shard.Options {
	return shard.Options{Graph: equivGraph}
}

// quietConfig is a shard server config with access logs discarded.
func quietConfig() server.Config {
	return server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

// openCoordinator builds a coordinator over n shards of col, reached
// through server.Client on the given carrier: "inproc" (in-memory
// transport, server.OpenInProcess) or "http" (loopback httptest
// servers).
func openCoordinator(t testing.TB, col *blogclusters.Collection, n int, transport string) *shard.Coordinator {
	t.Helper()
	ctx := context.Background()
	if transport == "inproc" {
		c, err := server.OpenInProcess(ctx, col, n, quietConfig(), coordOpts(), engineOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	subs, err := shard.SplitCollection(col, n)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]shard.Backend, n)
	for s, sub := range subs {
		eng, err := blogclusters.Open(ctx, blogclusters.FromCollection(sub), engineOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		srv := server.New(quietConfig())
		srv.SetEngine(eng)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		b, err := server.NewClient(ts.URL, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		backends[s] = b
	}
	c, err := shard.NewCoordinator(ctx, backends, coordOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertSame fails unless got and want marshal to identical JSON —
// the same byte-identity the HTTP layer would serve.
func assertSame(t *testing.T, what string, got, want any) {
	t.Helper()
	g, w := mustJSON(t, got), mustJSON(t, want)
	if g != w {
		t.Errorf("%s diverged:\n  coordinator: %s\n  engine:      %s", what, g, w)
	}
}

// equivSpecs covers every solve route: scatterable bounded top-k
// (named and default algorithms), full paths and brute force
// (merged route), and the normalized and diverse variants.
func equivSpecs() []blogclusters.QuerySpec {
	return []blogclusters.QuerySpec{
		{Variant: "topk", K: 5, L: 2},
		{Variant: "topk", K: 3, L: 1, Algorithm: "bfs"},
		{Variant: "topk", K: 5, L: 3, Algorithm: "dfs"},
		{Variant: "topk", K: 6, L: 4, Algorithm: "brute"},
		{Variant: "topk", K: 4, L: -1},
		{Variant: "topk", K: 4, L: -1, Algorithm: "ta"},
		{Variant: "normalized", K: 4, LMin: 2},
		{Variant: "diverse", K: 4, L: 2, Mode: "endpoints"},
		{Variant: "diverse", K: 3, L: 3, Mode: "disjoint"},
	}
}

// checkEquivalence runs the full query surface against both sessions
// and compares rendered answers.
func checkEquivalence(t *testing.T, c *shard.Coordinator, ref *blogclusters.Engine) {
	t.Helper()
	ctx := context.Background()
	m := ref.NumIntervals()

	if got, want := c.Generation(), ref.Generation(); got != want {
		t.Errorf("generation: coordinator %d, engine %d", got, want)
	}
	if got := c.Stats().Intervals; got != m {
		t.Errorf("intervals: coordinator %d, engine %d", got, m)
	}

	for _, spec := range equivSpecs() {
		res, err := c.Solve(ctx, spec)
		if err != nil {
			t.Fatalf("coordinator solve %+v: %v", spec, err)
		}
		want, err := ref.Solve(ctx, spec)
		if err != nil {
			t.Fatalf("engine solve %+v: %v", spec, err)
		}
		assertSame(t, fmt.Sprintf("solve %+v", spec), res.Paths, want.Paths)
	}

	for _, kw := range []string{"alpha", "epsilon", "zeta"} {
		gc, err := c.TimeSeries(ctx, kw)
		if err != nil {
			t.Fatalf("coordinator timeseries %q: %v", kw, err)
		}
		wc, err := ref.TimeSeries(ctx, kw)
		if err != nil {
			t.Fatalf("engine timeseries %q: %v", kw, err)
		}
		assertSame(t, "timeseries "+kw, gc, wc)

		gb, err := c.Bursts(ctx, kw)
		if err != nil {
			t.Fatalf("coordinator bursts %q: %v", kw, err)
		}
		wb, err := ref.Bursts(ctx, kw)
		if err != nil {
			t.Fatalf("engine bursts %q: %v", kw, err)
		}
		assertSame(t, "bursts "+kw, gb, wb)
	}

	gt, err := c.DocTotals(ctx)
	if err != nil {
		t.Fatalf("coordinator doc totals: %v", err)
	}
	wt, err := ref.DocTotals(ctx)
	if err != nil {
		t.Fatalf("engine doc totals: %v", err)
	}
	assertSame(t, "doc totals", gt, wt)

	for iv := 0; iv < m; iv++ {
		gids, err := c.Search(ctx, []string{"alpha", "beta"}, iv)
		if err != nil {
			t.Fatalf("coordinator search iv=%d: %v", iv, err)
		}
		wids, err := ref.Search(ctx, []string{"alpha", "beta"}, iv)
		if err != nil {
			t.Fatalf("engine search iv=%d: %v", iv, err)
		}
		assertSame(t, "search", gids, wids)

		gkw, err := c.Refine(ctx, "alpha", iv)
		if err != nil {
			t.Fatalf("coordinator refine iv=%d: %v", iv, err)
		}
		wkw, err := ref.Refine(ctx, "alpha", iv)
		if err != nil {
			t.Fatalf("engine refine iv=%d: %v", iv, err)
		}
		assertSame(t, "refine", gkw, wkw)

		gco, err := c.Correlations(ctx, "alpha", iv, 5)
		if err != nil {
			t.Fatalf("coordinator correlations iv=%d: %v", iv, err)
		}
		wco, err := ref.Correlations(ctx, "alpha", iv, 5)
		if err != nil {
			t.Fatalf("engine correlations iv=%d: %v", iv, err)
		}
		assertSame(t, "correlations", gco, wco)
	}

	gsets, err := c.ClusterSets(ctx, 0, m)
	if err != nil {
		t.Fatalf("coordinator cluster sets: %v", err)
	}
	wsets, err := ref.ClusterSets(ctx, 0, m)
	if err != nil {
		t.Fatalf("engine cluster sets: %v", err)
	}
	assertSame(t, "cluster sets", gsets, wsets)

	// Describe the reference engine's best full paths through both
	// sessions: global node ids must resolve to the same clusters.
	res, err := ref.Solve(ctx, blogclusters.QuerySpec{Variant: "topk", K: 3, L: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Paths {
		gd, err := c.Describe(ctx, p)
		if err != nil {
			t.Fatalf("coordinator describe %v: %v", p.Nodes, err)
		}
		wd, err := ref.Describe(ctx, p)
		if err != nil {
			t.Fatalf("engine describe %v: %v", p.Nodes, err)
		}
		if gd != wd {
			t.Errorf("describe %v diverged:\n  coordinator: %q\n  engine:      %q", p.Nodes, gd, wd)
		}
	}
}

// pushInterval builds the next interval (global index m) with docs
// that extend the cross-boundary events.
func pushInterval(m int) blogclusters.Interval {
	iv := blogclusters.Interval{Index: m, Label: "pushed"}
	for i := 0; i < 30; i++ {
		kws := []string{"alpha", "beta", "gamma"}
		if i%2 == 0 {
			kws = []string{"epsilon", "zeta"}
		}
		iv.Docs = append(iv.Docs, blogclusters.Document{
			ID: int64(900000 + i), Interval: m, Keywords: kws,
		})
	}
	return iv
}

func TestCoordinatorMatchesEngine(t *testing.T) {
	const m = 7
	col := equivCollection(t, m)
	ctx := context.Background()

	ref, err := blogclusters.Open(ctx, blogclusters.FromCollection(col), engineOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	// Drive the reference through the same pre/post-push states the
	// coordinators will see.
	pushed := false
	ensurePushed := func(t *testing.T) {
		if pushed {
			return
		}
		if _, err := ref.Push(ctx, pushInterval(m)); err != nil {
			t.Fatal(err)
		}
		pushed = true
	}

	for _, transport := range []string{"inproc", "http"} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", transport, shards), func(t *testing.T) {
				if pushed {
					t.Fatal("test ordering bug: pushes must come after all pre-push subtests")
				}
				c := openCoordinator(t, col, shards, transport)
				checkEquivalence(t, c, ref)
			})
		}
	}

	// Push through the coordinator and re-check: the composite
	// generation must advance in lockstep with the unsharded engine's
	// and every answer must track the grown corpus.
	for _, transport := range []string{"inproc", "http"} {
		t.Run(transport+"/push", func(t *testing.T) {
			c := openCoordinator(t, col, 2, transport)
			preGen := c.Generation()
			gen, err := c.Push(ctx, pushInterval(m))
			if err != nil {
				t.Fatal(err)
			}
			if gen != preGen+1 {
				t.Errorf("push generation: got %d, want %d", gen, preGen+1)
			}
			ensurePushed(t)
			checkEquivalence(t, c, ref)
		})
	}
}

// TestConcurrentPushAndQuery hammers the coordinator with the full
// query surface while pushes land, under -race: every answer must be
// internally consistent (a query sees one generation's partition, not
// a torn mix), and after the dust settles the coordinator must still
// match a reference engine that took the same pushes.
func TestConcurrentPushAndQuery(t *testing.T) {
	const m = 6
	const pushes = 3
	col := equivCollection(t, m)
	ctx := context.Background()

	for _, transport := range []string{"inproc", "http"} {
		t.Run(transport, func(t *testing.T) {
			c := openCoordinator(t, col, 2, transport)
			stop := make(chan struct{})
			done := make(chan struct{})
			var qerr error
			go func() {
				defer close(done)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := c.Solve(ctx, blogclusters.QuerySpec{Variant: "topk", K: 3, L: 2}); err != nil {
						qerr = err
						return
					}
					if _, err := c.TimeSeries(ctx, "alpha"); err != nil {
						qerr = err
						return
					}
					if _, err := c.Search(ctx, []string{"alpha"}, i%m); err != nil {
						qerr = err
						return
					}
				}
			}()
			for p := 0; p < pushes; p++ {
				if _, err := c.Push(ctx, pushInterval(m+p)); err != nil {
					t.Fatalf("push %d: %v", p, err)
				}
			}
			close(stop)
			<-done
			if qerr != nil {
				t.Fatalf("concurrent query failed: %v", qerr)
			}
			if got := c.Generation(); got != 1+pushes {
				t.Errorf("generation %d after %d pushes, want %d", got, pushes, 1+pushes)
			}

			ref, err := blogclusters.Open(ctx, blogclusters.FromCollection(col), engineOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ref.Close() })
			for p := 0; p < pushes; p++ {
				if _, err := ref.Push(ctx, pushInterval(m+p)); err != nil {
					t.Fatal(err)
				}
			}
			checkEquivalence(t, c, ref)
		})
	}
}

// TestCoordinatorStats checks the aggregate and per-shard stats views.
func TestCoordinatorStats(t *testing.T) {
	col := equivCollection(t, 6)
	c := openCoordinator(t, col, 3, "inproc")
	ctx := context.Background()
	if _, err := c.Solve(ctx, blogclusters.QuerySpec{Variant: "topk", K: 3, L: 2}); err != nil {
		t.Fatal(err)
	}

	rows := c.ShardStats()
	if len(rows) != 3 {
		t.Fatalf("got %d shard rows, want 3", len(rows))
	}
	total := 0
	for s, row := range rows {
		if row.Shard != s {
			t.Errorf("row %d has shard index %d", s, row.Shard)
		}
		if row.Error != "" || row.Engine == nil {
			t.Errorf("shard %d stats unavailable: %q", s, row.Error)
		}
		if row.Start != total {
			t.Errorf("shard %d starts at %d, want %d", s, row.Start, total)
		}
		total += row.Intervals
	}
	if total != 6 {
		t.Errorf("partition covers %d intervals, want 6", total)
	}

	agg := c.Stats()
	if agg.Generation != c.Generation() {
		t.Errorf("aggregate generation %d, want %d", agg.Generation, c.Generation())
	}
	if agg.Intervals != 6 {
		t.Errorf("aggregate intervals %d, want 6", agg.Intervals)
	}
	if agg.Queries == 0 {
		t.Error("aggregate queries is 0 after a scatter solve")
	}
}

// TestHopLabels checks every backend call is metered: after the
// equivalence suite's operations, a push and a metrics scrape (whose
// per-shard gauges fetch stats), the per-hop latency histogram carries
// exactly the ten method labels, on both carriers.
func TestHopLabels(t *testing.T) {
	const m = 6
	col := equivCollection(t, m)
	ctx := context.Background()
	ref, err := blogclusters.Open(ctx, blogclusters.FromCollection(col), engineOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	if _, err := ref.Push(ctx, pushInterval(m)); err != nil {
		t.Fatal(err)
	}
	want := []string{"cluster-counts", "cluster-sets", "correlations", "meta", "push", "refine", "search", "solve", "stats", "timeseries"}
	label := regexp.MustCompile(`^coordinator_shard_gather_duration_seconds_count\{.*method="([a-z-]+)"`)
	for _, transport := range []string{"inproc", "http"} {
		t.Run(transport, func(t *testing.T) {
			c := openCoordinator(t, col, 2, transport)
			if _, err := c.Push(ctx, pushInterval(m)); err != nil {
				t.Fatal(err)
			}
			checkEquivalence(t, c, ref)
			var buf bytes.Buffer
			if _, err := c.WriteMetrics(&buf); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, line := range strings.Split(buf.String(), "\n") {
				if sm := label.FindStringSubmatch(line); sm != nil {
					seen[sm[1]] = true
				}
			}
			got := slices.Sorted(maps.Keys(seen))
			if !slices.Equal(got, want) {
				t.Errorf("hop method labels %v, want %v", got, want)
			}
		})
	}
}
