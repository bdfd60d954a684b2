// Streaming demonstrates live ingest end to end: the session opens
// over day 0 only, and every later blog day arrives through
// Engine.Push — the keyword index gains the day's postings, the memoized
// cluster sets and graph grow by exactly one interval (Section 4.6's
// incremental regime), and the generation counter ticks. After each
// push a BFS solve over the grown graph reports the best length-3
// stable cluster so far; nothing is rebuilt for past days.
//
// Run with: go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"

	blogclusters "repro"
)

func main() {
	// Ten days; a story ("election") that heats up mid-stream.
	cfg := blogclusters.CorpusConfig{
		Seed:            42,
		NumIntervals:    10,
		BackgroundPosts: 300,
		BackgroundVocab: 1200,
		WordsPerPost:    7,
		Events: []blogclusters.CorpusEvent{
			{Name: "election", Phases: []blogclusters.CorpusPhase{{
				Keywords:  []string{"election", "ballot", "recount"},
				Intervals: []int{3, 4, 5, 6, 7, 8, 9},
				Posts:     80,
			}}},
			{Name: "storm", Phases: []blogclusters.CorpusPhase{{
				Keywords:  []string{"storm", "flood"},
				Intervals: []int{0, 1, 2},
				Posts:     70,
			}}},
		},
	}
	full, err := blogclusters.GenerateCorpus(cfg)
	if err != nil {
		log.Fatalf("generate corpus: %v", err)
	}

	// The session starts with only the first day loaded; the rest of
	// the corpus plays the role of the live crawl.
	day0 := &blogclusters.Collection{Intervals: full.Intervals[:1:1]}
	ctx := context.Background()
	eng, err := blogclusters.Open(ctx, blogclusters.FromCollection(day0),
		blogclusters.WithGraphOptions(blogclusters.GraphOptions{Gap: 1, Theta: 0.1}))
	if err != nil {
		log.Fatalf("open engine: %v", err)
	}
	defer eng.Close()

	// The index is built on first use; open it now so that every push
	// below appends the day's postings to it.
	if _, err := eng.TimeSeries(ctx, "election"); err != nil {
		log.Fatalf("index: %v", err)
	}

	const k, l = 3, 3
	var res *blogclusters.Result
	for day := 0; day < len(full.Intervals); day++ {
		if day > 0 {
			// The day's posts arrive: one Push appends them to the index
			// and extends every cached artifact in place of a rebuild.
			gen, err := eng.Push(ctx, full.Intervals[day])
			if err != nil {
				log.Fatalf("day %d push: %v", day, err)
			}
			fmt.Printf("ingested day %d (generation %d): ", day, gen)
		} else {
			fmt.Printf("opened with day 0 (generation %d): ", eng.Generation())
		}
		clusters, err := eng.ClustersAt(ctx, day)
		if err != nil {
			log.Fatalf("day %d clusters: %v", day, err)
		}
		fmt.Printf("%d clusters, ", len(clusters))
		// A length-l path spans l+1 days.
		if day >= l {
			if res, err = eng.StableClusters(ctx, "bfs", k, l); err != nil {
				log.Fatalf("day %d solve: %v", day, err)
			}
		}
		if res == nil || len(res.Paths) == 0 {
			fmt.Printf("no length-%d stable clusters yet\n", l)
			continue
		}
		fmt.Printf("best length-%d path weight %.3f\n", l, res.Paths[0].Weight)
	}

	fmt.Println("\nfinal top stable clusters:")
	for i, p := range res.Paths {
		desc, err := eng.Describe(ctx, p)
		if err != nil {
			log.Fatalf("describe: %v", err)
		}
		fmt.Printf("#%d %s\n", i+1, desc)
	}
	st := res.Stats
	fmt.Printf("\nlast solve: %d node reads, %d node writes, %d edge reads, %d heap offers, peak %d paths held\n",
		st.NodeReads, st.NodeWrites, st.EdgeReads, st.HeapConsiders, st.PeakStatePaths)
	es := eng.Stats()
	fmt.Printf("session: generation %d, %d pushes, %d index segments (disk backend only)\n",
		es.Generation, es.Pushes, es.IndexSegments)
}
