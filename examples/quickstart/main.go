// Quickstart: generate a small synthetic blog corpus with one embedded
// story, open an Engine session over it, and ask for the per-day
// keyword clusters and the most stable cluster path across the week.
//
// The Engine is the session API: the corpus is loaded once by Open,
// and each stage artifact (cluster sets, cluster graph) is built
// lazily on first use and reused by every later query.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	blogclusters "repro"
)

func main() {
	// A 5-day corpus: background chatter plus one story ("rocket
	// launch") discussed on every day.
	cfg := blogclusters.CorpusConfig{
		Seed:            1,
		NumIntervals:    5,
		BackgroundPosts: 400,
		BackgroundVocab: 1500,
		WordsPerPost:    7,
		Events: []blogclusters.CorpusEvent{{
			Name: "launch",
			Phases: []blogclusters.CorpusPhase{{
				Keywords:  []string{"rocket", "launch", "orbit", "payload"},
				Intervals: []int{0, 1, 2, 3, 4},
				Posts:     90,
			}},
		}},
	}
	ctx := context.Background()
	eng, err := blogclusters.Open(ctx, blogclusters.FromGenerator(cfg),
		blogclusters.WithGraphOptions(blogclusters.GraphOptions{Gap: 0, Theta: 0.1}))
	if err != nil {
		log.Fatalf("open engine: %v", err)
	}
	defer eng.Close()
	totals, err := eng.DocTotals(ctx)
	if err != nil {
		log.Fatalf("document totals: %v", err)
	}
	posts := int64(0)
	for _, n := range totals {
		posts += n
	}
	fmt.Printf("corpus: %d posts over %d days\n", posts, eng.NumIntervals())

	// Section 3: keyword graph → χ²/ρ pruning → biconnected components.
	sets, err := eng.Clusters(ctx)
	if err != nil {
		log.Fatalf("cluster generation: %v", err)
	}
	for day, cs := range sets {
		fmt.Printf("day %d: %d keyword clusters\n", day, len(cs))
	}

	// Section 4: cluster graph + kl-stable clusters. The graph is built
	// once here and shared with the query below.
	g, err := eng.Graph(ctx)
	if err != nil {
		log.Fatalf("cluster graph: %v", err)
	}
	fmt.Printf("cluster graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	res, err := eng.StableClusters(ctx, "bfs", 3, blogclusters.FullPaths)
	if err != nil {
		log.Fatalf("stable clusters: %v", err)
	}
	fmt.Printf("\ntop stable clusters spanning all %d days:\n", eng.NumIntervals())
	for i, p := range res.Paths {
		desc, err := eng.Describe(ctx, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("#%d %s\n", i+1, desc)
	}
	if len(res.Paths) == 0 {
		fmt.Println("(none found — try lowering theta)")
	}
}
