package blogclusters_test

// The one go-test benchmark, BenchmarkShardScatterGather over the
// shard-by-interval scatter-gather coordinator (internal/shard), is NOT
// the repo's benchmark: bench/ + BENCHMARK.json is, and it times every
// layer (DESIGN.md "Benchmarks"). It stays only because an open ROADMAP
// decision still needs a before/after that bench/ cannot yet supply;
// its doc comment names the item that retires it. `make bench` prints
// it to standard output; nothing is recorded or gated. External test
// package because internal/shard and internal/server import the root
// package.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"testing"

	blogclusters "repro"
	"repro/internal/server"
	"repro/internal/shard"
)

// benchShardCollection is the demo news week with a heavier background
// so the shard solves have real work to scatter.
func benchShardCollection(b *testing.B) *blogclusters.Collection {
	b.Helper()
	col, err := blogclusters.GenerateCorpus(blogclusters.NewsWeekCorpus(2007, 120))
	if err != nil {
		b.Fatal(err)
	}
	return col
}

// BenchmarkShardScatterGather measures the decomposed bounded top-k
// (shard-local solves + boundary windows + deterministic merge) at 1,
// 2 and 4 in-process shard servers (server.OpenInProcess: each hop
// encodes and decodes the JSON API over an in-memory transport). hot is
// the steady state: the coordinator's per-generation caches (node-id
// offsets, window engines) and the shard servers' response caches are
// warm, and each iteration pays gather + solve + merge. cold is first-query-
// after-open: shard engines, partition map and scatter caches all
// build inside the iteration — the price of a fresh deployment or a
// post-push generation. Kept for ROADMAP item 7(a): bench/ has no sharded
// workload yet; goes when `serve_sharded` lands there.
func BenchmarkShardScatterGather(b *testing.B) {
	ctx := context.Background()
	col := benchShardCollection(b)
	spec := blogclusters.QuerySpec{Variant: "topk", K: 5, L: 2}
	cfg := server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}

	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d/hot", shards), func(b *testing.B) {
			c, err := server.OpenInProcess(ctx, col, shards, cfg, shard.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Solve(ctx, spec); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Solve(ctx, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("shards=%d/cold", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := server.OpenInProcess(ctx, col, shards, cfg, shard.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Solve(ctx, spec); err != nil {
					b.Fatal(err)
				}
				c.Close()
			}
		})
	}
}
