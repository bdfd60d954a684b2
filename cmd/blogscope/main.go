// Command blogscope is a miniature of the search-and-analysis system
// the paper is built on (Section 1): given a corpus and a query
// keyword, it reports the keyword's document-frequency time series,
// its information bursts, its strongest pairwise correlations per
// interval, the keyword cluster it falls into, and query-refinement
// suggestions.
//
// Usage:
//
//	blogscope -demo -query somalia
//	blogscope -input posts.jsonl -query iphone -interval 3
//	blogscope -demo -query somalia -index disk -indexcache 4194304
//
// With -index=disk the keyword primitives are served from an on-disk
// posting segment (see README.md) instead of the mem backend's resident
// grouped postings, so corpora larger than RAM stay queryable.
//
// The command is one Engine session: the index, the interval keyword
// graph and the interval clusters are each built once and shared by
// the report's queries. Ctrl-C cancels mid-build.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	blogclusters "repro"
	"repro/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("blogscope: ")

	var shared cli.EngineFlags
	shared.Register(flag.CommandLine)
	var (
		query    = flag.String("query", "", "query keyword (required)")
		interval = flag.Int("interval", -1, "interval for cluster/correlation detail (-1 = the keyword's peak)")
		topN     = flag.Int("top", 5, "number of correlations to show")
	)
	flag.Parse()
	if *query == "" {
		log.Fatal("need -query KEYWORD")
	}
	src, err := shared.Source()
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	eng, err := blogclusters.Open(ctx, src, shared.Options(blogclusters.ClusterOptions{}, blogclusters.GraphOptions{})...)
	if err != nil {
		log.Fatal(err)
	}
	// Close (removing a temp disk segment) before any fatal exit:
	// log.Fatal would skip a defer.
	err = report(ctx, eng, *query, *interval, *topN)
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
}

// report renders the whole analysis for one keyword: time series,
// bursts, correlations, cluster membership and refinements. Every
// query runs against the shared Engine session.
func report(ctx context.Context, eng *blogclusters.Engine, query string, interval, topN int) error {
	fmt.Printf("query %q\n\n", query)

	// Time series + bursts.
	series, err := eng.TimeSeries(ctx, query)
	if err != nil {
		return fmt.Errorf("time series: %w", err)
	}
	fmt.Println("documents per interval:")
	peak, peakAt := int64(-1), 0
	for i, c := range series {
		bar := strings.Repeat("#", int(min(c, 60)))
		fmt.Printf("  t%-3d %6d %s\n", i, c, bar)
		if c > peak {
			peak, peakAt = c, i
		}
	}
	bursts, err := eng.Bursts(ctx, query)
	if err != nil {
		return fmt.Errorf("bursts: %w", err)
	}
	if len(bursts) == 0 {
		fmt.Println("\nno information bursts detected")
	} else {
		fmt.Println("\ninformation bursts:")
		for _, b := range bursts {
			fmt.Printf("  intervals %d..%d (score %.1f)\n", b.Start, b.End, b.Score)
		}
	}

	day := interval
	if day < 0 {
		day = peakAt
	}

	// Strongest correlations on the chosen day.
	correlations, err := eng.Correlations(ctx, query, day, topN)
	if err != nil {
		return fmt.Errorf("correlations: %w", err)
	}
	fmt.Printf("\nstrongest correlations at t%d:\n", day)
	for _, c := range correlations {
		fmt.Printf("  %-20s ρ=%.3f  together in %d posts\n", c.Keyword, c.Rho, c.Count)
	}

	// Cluster membership + refinement.
	refinements, err := eng.Refine(ctx, query, day)
	if err != nil {
		return fmt.Errorf("refine: %w", err)
	}
	if refinements == nil {
		fmt.Printf("\n%q is not in any keyword cluster at t%d\n", query, day)
		return nil
	}
	fmt.Printf("\nkeyword cluster at t%d: %v\n", day, append([]string{query}, refinements...))
	fmt.Printf("query refinements: %v\n", refinements)
	return nil
}
