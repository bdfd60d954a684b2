// Command blogstable runs the end-to-end pipeline of the paper: read a
// temporally ordered corpus (JSONL of {"id","interval","keywords"}
// documents, or a synthetic news week), extract per-interval keyword
// clusters, build the cluster graph, and report the top-k stable
// clusters.
//
// Usage:
//
//	blogstable -demo                          # synthetic news week
//	blogstable -input posts.jsonl -k 5 -l 3   # your own corpus
//	blogstable -input posts.jsonl -normalized -lmin 2
//	blogstable -input posts.jsonl -raw        # analyze raw text first
//
// With -raw, each JSONL document's keywords are treated as raw text
// fragments and run through the tokenizer/stemmer/stop-word filter
// before the session opens (after any -intervals slice is cut).
//
// Cluster-graph edges are weighted by Jaccard affinity and come from
// the prefix-filter similarity join, which takes -theta in (0, 1].
//
// The flags -k, -l, -lmin, -normalized and -algorithm make one
// stable-cluster query (a QuerySpec; -normalized selects the normalized
// variant), validated before the session opens. -algorithm=auto is a
// spelling of the variant's default solver (bfs; normalized under
// -normalized); name one (bfs, dfs, ta, brute; normalized or
// brute-normalized under -normalized) to run it instead. The solvers
// are the paper's sequential algorithms; cluster and edge generation
// run one task per interval (pair) on a GOMAXPROCS-sized pool.
//
// The run is one Engine session: cluster sets, cluster graph and (for
// -bursts) the keyword index are built once and shared; -clusters
// starts the session at the Section 4 boundary from a saved cluster
// file. Ctrl-C cancels mid-build.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	blogclusters "repro"
	"repro/internal/cli"
	"repro/internal/cluster"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("blogstable: ")

	var shared cli.EngineFlags
	shared.Register(flag.CommandLine)
	var (
		raw        = flag.Bool("raw", false, "analyze document keywords as raw text (tokenize/stem/stop words)")
		algorithm  = flag.String("algorithm", "auto", "stable-cluster algorithm: auto = bfs/normalized, bfs, dfs, ta, brute; normalized, brute-normalized under -normalized")
		k          = flag.Int("k", 5, "number of top stable clusters")
		l          = flag.Int("l", -1, "temporal path length (-1 = full paths)")
		gap        = flag.Int("gap", 1, "gap g: intervals a story may skip")
		theta      = flag.Float64("theta", 0.1, "minimum Jaccard affinity for a cluster-graph edge, in (0, 1]")
		rho        = flag.Float64("rho", 0.2, "correlation-coefficient pruning threshold")
		minSize    = flag.Int("mincluster", 2, "minimum keywords per cluster")
		normalized = flag.Bool("normalized", false, "solve the normalized problem instead (stability = weight/length)")
		lmin       = flag.Int("lmin", 2, "minimum length for -normalized")
		burstsQ    = flag.String("bursts", "", "comma-separated keywords: report their information bursts before clustering")
		quiet      = flag.Bool("quiet", false, "suppress per-interval cluster listings")
		saveSets   = flag.String("saveclusters", "", "write per-interval clusters to this JSONL file")
		loadSets   = flag.String("clusters", "", "skip cluster generation and load clusters from this JSONL file")
	)
	flag.Parse()

	spec := blogclusters.QuerySpec{Algorithm: *algorithm, K: *k, L: *l, LMin: *lmin}
	if *normalized {
		spec.Variant = "normalized"
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}

	ctx, stop := cli.SignalContext(context.Background())
	defer stop()

	opts := shared.Options(
		blogclusters.ClusterOptions{RhoThreshold: *rho, MinClusterSize: *minSize},
		blogclusters.GraphOptions{Gap: *gap, Theta: *theta},
	)
	var eng *blogclusters.Engine
	if *loadSets != "" {
		if *burstsQ != "" {
			log.Fatal("-bursts needs a corpus (-input or -demo), not -clusters")
		}
		f, err := os.Open(*loadSets)
		if err != nil {
			log.Fatal(err)
		}
		sets, err := cluster.ReadSetsJSONL(f)
		f.Close()
		if err != nil {
			log.Fatalf("read clusters: %v", err)
		}
		eng, err = blogclusters.Open(ctx, blogclusters.FromClusterSets(sets), opts...)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var src blogclusters.Source
		var err error
		if *raw {
			var col *blogclusters.Collection
			if col, err = shared.Corpus(); err == nil {
				reanalyze(col)
				src = blogclusters.FromCollection(col)
			}
		} else {
			src, err = shared.Source()
		}
		if err != nil {
			log.Fatal(err)
		}
		eng, err = blogclusters.Open(ctx, src, opts...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("corpus: %d documents across %d intervals\n", eng.Collection().NumDocs(), len(eng.Collection().Intervals))
	}
	// Close the session (removing a temp disk segment) before any fatal
	// exit: log.Fatal would skip a defer.
	err := run(ctx, eng, spec, *burstsQ, *saveSets, *gap, *theta, *quiet)
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, eng *blogclusters.Engine, spec blogclusters.QuerySpec, burstsQ, saveSets string, gap int, theta float64, quiet bool) error {
	if burstsQ != "" {
		if err := reportBursts(ctx, eng, burstsQ); err != nil {
			return err
		}
	}
	sets, err := eng.Clusters(ctx)
	if err != nil {
		return fmt.Errorf("cluster generation: %w", err)
	}
	if saveSets != "" {
		// Re-number ids graph-wide so the saved file is self-contained.
		id := int64(0)
		for i := range sets {
			for j := range sets[i] {
				sets[i][j].ID = id
				id++
			}
		}
		f, err := os.Create(saveSets)
		if err != nil {
			return err
		}
		err = cluster.WriteSetsJSONL(f, sets)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("save clusters: %w", err)
		}
		fmt.Printf("saved clusters to %s\n", saveSets)
	}
	for i, cs := range sets {
		fmt.Printf("interval %d: %d clusters\n", i, len(cs))
		if !quiet {
			for _, c := range cs {
				fmt.Printf("  %v\n", c.Keywords)
			}
		}
	}

	g, err := eng.Graph(ctx)
	if err != nil {
		return fmt.Errorf("cluster graph: %w", err)
	}
	fmt.Printf("cluster graph: %d nodes, %d edges (gap %d, theta %g)\n\n", g.NumNodes(), g.NumEdges(), gap, theta)

	res, err := eng.Solve(ctx, spec)
	if err != nil {
		return fmt.Errorf("stable clusters: %w", err)
	}
	if spec.Variant == "normalized" {
		fmt.Printf("top %d normalized stable clusters (lmin=%d):\n", spec.K, spec.LMin)
	} else {
		fmt.Printf("top %d stable clusters (%s):\n", spec.K, spec.Algorithm)
	}
	if len(res.Paths) == 0 {
		fmt.Println("  none found — lower -theta, raise -gap, or shorten -l")
		return nil
	}
	for i, p := range res.Paths {
		desc, err := eng.Describe(ctx, p)
		if err != nil {
			return err
		}
		fmt.Printf("#%d %s\n", i+1, desc)
	}
	st := res.Stats
	fmt.Printf("\nwork: %d node reads, %d node writes, %d edge reads, %d heap offers, %d prunes\n",
		st.NodeReads, st.NodeWrites, st.EdgeReads, st.HeapConsiders, st.Pruned)
	return nil
}

// reportBursts prints each keyword's information bursts, serving the
// time series from the session's index backend (-index=disk keeps the
// posting lists on disk; only term statistics are resident). The
// per-interval totals are computed once and shared across keywords.
func reportBursts(ctx context.Context, eng *blogclusters.Engine, query string) error {
	a := blogclusters.NewAnalyzer()
	for _, raw := range strings.Split(query, ",") {
		raw = strings.TrimSpace(raw)
		// An unanalyzable keyword is a per-keyword notice; everything
		// else (failed index build, I/O errors) fails the command.
		if kws := a.Keywords(raw); len(kws) == 0 {
			fmt.Printf("bursts %q: no analyzable keyword\n", raw)
			continue
		}
		bursts, err := eng.Bursts(ctx, raw)
		if err != nil {
			return fmt.Errorf("bursts %q: %w", raw, err)
		}
		if len(bursts) == 0 {
			fmt.Printf("bursts %q: none\n", raw)
			continue
		}
		fmt.Printf("bursts %q:", raw)
		for _, b := range bursts {
			fmt.Printf(" t%d..t%d (score %.1f)", b.Start, b.End, b.Score)
		}
		fmt.Println()
	}
	return nil
}

// reanalyze pushes every document's keyword list through the text
// analyzer, so corpora exported with raw text fragments behave like
// the paper's stemmed, stop-word-free input. It runs on the collection
// before the session opens over it.
func reanalyze(col *blogclusters.Collection) {
	a := blogclusters.NewAnalyzer()
	for i := range col.Intervals {
		for j := range col.Intervals[i].Docs {
			d := &col.Intervals[i].Docs[j]
			d.Keywords = a.Keywords(strings.Join(d.Keywords, " "))
		}
	}
}
