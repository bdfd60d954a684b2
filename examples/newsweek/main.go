// Newsweek reproduces the paper's qualitative study (Section 5.3) on a
// synthetic stand-in for the BlogScope week of Jan 6–12 2007. The five
// injected events carry the same temporal signatures as the paper's
// figures:
//
//	Figure 1  — stem-cell discovery burst on Jan 8
//	Figure 2  — Beckham-to-LA-Galaxy burst on Jan 12
//	Figure 4  — FA-cup story with a two-day gap (Jan 6, 9, 10)
//	Figure 15 — iPhone topic drifting into the Cisco lawsuit
//	Figure 16 — Somalia conflict persisting all seven days
//
// The study needs two cluster graphs (gap 2 for the FA-cup bridge,
// gap 0 for the full-week stories). An Engine serves one graph, so the
// gap-2 study opens a second engine from the first one's cluster sets
// (FromClusterSets): both graphs share one Section 3 pass.
//
// Run with: go run ./examples/newsweek
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	blogclusters "repro"
	"repro/internal/corpus"
)

func main() {
	ctx := context.Background()
	gap0 := blogclusters.GraphOptions{Gap: 0, Theta: 0.1}
	eng, err := blogclusters.Open(ctx,
		blogclusters.FromGenerator(blogclusters.NewsWeekCorpus(2007, 600)),
		blogclusters.WithGraphOptions(gap0))
	if err != nil {
		log.Fatalf("open engine: %v", err)
	}
	defer eng.Close()
	totals, err := eng.DocTotals(ctx)
	if err != nil {
		log.Fatal(err)
	}
	posts := int64(0)
	for _, n := range totals {
		posts += n
	}
	labels := corpus.DayLabels(time.Date(2007, 1, 6, 0, 0, 0, 0, time.UTC), 7)
	fmt.Printf("synthetic blogosphere week: %d posts over %d days\n\n", posts, eng.NumIntervals())

	sets, err := eng.Clusters(ctx)
	if err != nil {
		log.Fatalf("cluster generation: %v", err)
	}

	// Figures 1 and 2: single-day event clusters.
	fmt.Println("=== single-day clusters (cf. paper Figures 1 and 2) ===")
	show := func(day int, keyword string) {
		for _, c := range sets[day] {
			if c.Contains(keyword) {
				fmt.Printf("%s: %v\n", labels[day], c.Keywords)
				return
			}
		}
		fmt.Printf("%s: no cluster containing %q\n", labels[day], keyword)
	}
	show(2, "stem")    // Jan 8: stem-cell discovery
	show(6, "beckham") // Jan 12: Beckham joins LA Galaxy

	// Figure 4: a story with a gap — the FA cup is discussed Jan 6,
	// vanishes Jan 7–8, returns Jan 9–10. With g = 2 the stable-cluster
	// machinery bridges the gap. The gap-2 engine starts from the
	// cluster sets built above, so only its graph is new work.
	fmt.Println("\n=== stable cluster across a gap (cf. Figure 4, g=2) ===")
	eng2, err := blogclusters.Open(ctx, blogclusters.FromClusterSets(sets),
		blogclusters.WithGraphOptions(blogclusters.GraphOptions{Gap: 2, Theta: 0.1}))
	if err != nil {
		log.Fatal(err)
	}
	defer eng2.Close()
	g2, err := eng2.Graph(ctx)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng2.StableClusters(ctx, "bfs", 50, 4)
	if err != nil {
		log.Fatal(err)
	}
	found := false
	for _, p := range res.Paths {
		if g2.Cluster(p.Nodes[0]).Contains("liverpool") {
			fmt.Println(describeWithLabels(g2, p, labels))
			found = true
			break
		}
	}
	if !found {
		fmt.Println("(FA-cup path not in the top-50 — background chatter outweighed it this seed)")
	}

	// Figures 15 and 16: topic drift and a full-week story, gap 0 (the
	// first engine's graph).
	fmt.Println("\n=== full-week stable clusters (cf. Figures 15 and 16) ===")
	g0, err := eng.Graph(ctx)
	if err != nil {
		log.Fatal(err)
	}
	full, err := eng.StableClusters(ctx, "bfs", 3, blogclusters.FullPaths)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range full.Paths {
		fmt.Printf("#%d %s\n", i+1, describeWithLabels(g0, p, labels))
	}

	// The iPhone drift: a 4-day path over Jan 9–12 in which the cluster
	// contents shift from launch features to the trademark lawsuit —
	// the paper's point that consecutive-interval affinity tracks
	// evolving stories.
	fmt.Println("\n=== topic drift (cf. Figure 15) ===")
	drift, err := eng.StableClusters(ctx, "bfs", 12, 3)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range drift.Paths {
		if g0.Cluster(p.Nodes[0]).Contains("iphon") {
			fmt.Println(describeWithLabels(g0, p, labels))
			break
		}
	}
}

func describeWithLabels(g *blogclusters.ClusterGraph, p blogclusters.Path, labels []string) string {
	s := fmt.Sprintf("weight %.3f, length %d:", p.Weight, p.Length)
	for _, id := range p.Nodes {
		s += fmt.Sprintf("\n  %-11s %v", labels[g.Interval(id)], g.Cluster(id).Keywords)
	}
	return s
}
