// Tags applies the pipeline to a social-tagging stream (flickr.com /
// del.icio.us style), the generalization the paper's introduction
// promises: "related processing ... can be conducted on tags as well."
// A tagged item is a document whose bag of words is its tag set; no
// stemming or stop-word removal is wanted, so the collection is built
// directly and handed to the Engine via FromCollection.
//
// Run with: go run ./examples/tags
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	blogclusters "repro"
)

func main() {
	ctx := context.Background()
	eng, err := blogclusters.Open(ctx, blogclusters.FromCollection(buildTagStream()),
		// Tag vocabularies are small; keep weak pairs out with a higher
		// correlation bar.
		blogclusters.WithClusterOptions(blogclusters.ClusterOptions{RhoThreshold: 0.25}),
		blogclusters.WithGraphOptions(blogclusters.GraphOptions{Gap: 1, Theta: 0.1}))
	if err != nil {
		log.Fatalf("open engine: %v", err)
	}
	defer eng.Close()
	totals, err := eng.DocTotals(ctx)
	if err != nil {
		log.Fatal(err)
	}
	items := int64(0)
	for _, n := range totals {
		items += n
	}
	fmt.Printf("tag stream: %d tagged items over %d weeks\n", items, eng.NumIntervals())

	sets, err := eng.Clusters(ctx)
	if err != nil {
		log.Fatalf("cluster generation: %v", err)
	}
	for week, cs := range sets {
		fmt.Printf("week %d:\n", week)
		for _, c := range cs {
			fmt.Printf("  %v\n", c.Keywords)
		}
	}

	g, err := eng.Graph(ctx)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Solve(ctx, blogclusters.QuerySpec{Variant: "normalized", K: 3, LMin: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmost stable tag communities (normalized, lmin=2):")
	for i, p := range res.Paths {
		fmt.Printf("#%d stability %.3f over %d weeks:\n", i+1, p.Weight, p.Length+1)
		for _, id := range p.Nodes {
			fmt.Printf("   week %d: %v\n", g.Interval(id), g.Cluster(id).Keywords)
		}
	}
}

// buildTagStream fabricates six weeks of photo tags: a persistent
// "travel japan" community, a seasonal "snow ski" community in the
// early weeks, and random single-tag noise.
func buildTagStream() *blogclusters.Collection {
	rng := rand.New(rand.NewSource(7))
	noise := []string{"cat", "sunset", "friends", "food", "street", "music",
		"portrait", "flower", "beach", "car", "city", "night"}
	japan := []string{"travel", "japan", "tokyo", "temple"}
	ski := []string{"snow", "ski", "alps"}

	col := &blogclusters.Collection{Intervals: make([]blogclusters.Interval, 6)}
	var id int64
	add := func(week int, tags []string) {
		col.Intervals[week].Docs = append(col.Intervals[week].Docs,
			blogclusters.Document{ID: id, Interval: week, Keywords: tags})
		id++
	}
	for week := 0; week < 6; week++ {
		col.Intervals[week].Index = week
		// Background: items with 2-3 random tags.
		for i := 0; i < 150; i++ {
			n := 2 + rng.Intn(2)
			tags := map[string]struct{}{}
			for len(tags) < n {
				tags[noise[rng.Intn(len(noise))]] = struct{}{}
			}
			var ts []string
			for t := range tags {
				ts = append(ts, t)
			}
			add(week, ts)
		}
		// The japan community posts every week.
		for i := 0; i < 40; i++ {
			var ts []string
			for _, t := range japan {
				if rng.Float64() < 0.85 {
					ts = append(ts, t)
				}
			}
			if len(ts) < 2 {
				ts = japan[:2]
			}
			add(week, ts)
		}
		// The ski community only in weeks 0-2.
		if week <= 2 {
			for i := 0; i < 35; i++ {
				var ts []string
				for _, t := range ski {
					if rng.Float64() < 0.9 {
						ts = append(ts, t)
					}
				}
				if len(ts) < 2 {
					ts = ski[:2]
				}
				add(week, ts)
			}
		}
	}
	return col
}
