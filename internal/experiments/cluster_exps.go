package experiments

import (
	"fmt"
	"time"

	"repro/internal/bicc"
	"repro/internal/cooccur"
	"repro/internal/corpus"
	"repro/internal/stats"
)

// dayCorpus generates a two-day corpus dense enough that the keyword
// graph dwarfs the vertex count, as in the paper's Table 1 (2.9M
// keywords, 138M edges for one day of BlogScope). The synthetic stand-in
// is laptop-sized; the shape (edges >> keywords) is what matters.
func dayCorpus(scale Scale, seed int64) (*corpus.Collection, error) {
	posts := scale.nodes(4000)
	return corpus.Generate(corpus.GeneratorConfig{
		Seed:            seed,
		NumIntervals:    2,
		BackgroundPosts: posts,
		BackgroundVocab: scale.nodes(6000),
		WordsPerPost:    12,
		Events: []corpus.Event{
			{Name: "e1", Phases: []corpus.Phase{{
				Keywords:  []string{"stem", "cell", "amniot", "fluid", "research"},
				Intervals: []int{0}, Posts: posts / 20,
			}}},
			{Name: "e2", Phases: []corpus.Phase{{
				Keywords:  []string{"somalia", "mogadishu", "airstrik"},
				Intervals: []int{0, 1}, Posts: posts / 25,
			}}},
		},
	})
}

// buildOptions translates the experiment configuration into the
// keyword-graph build options.
func buildOptions(cfg Config) cooccur.BuildOptions {
	return cooccur.BuildOptions{MemBudget: cfg.MemBudget}
}

// Table1 reproduces Table 1: keyword-graph sizes for two consecutive
// days (keywords, edges, plus the bytes the triplet file would occupy).
func Table1(cfg Config) (*Table, error) {
	col, err := dayCorpus(cfg.Scale, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table1",
		Title:  "keyword graph sizes per day (paper: Jan 6/7 2007, 2.9M keywords, 138M edges)",
		Header: []string{"day", "posts", "keywords", "edges", "triplet bytes"},
		Notes:  "synthetic corpus at laptop scale; expect edges >> keywords, stable across days",
	}
	for day := 0; day < 2; day++ {
		g, err := cooccur.BuildCtx(cfg.Context(), col, day, day, buildOptions(cfg))
		if err != nil {
			return nil, err
		}
		var bytes int64
		for _, e := range g.Edges {
			bytes += int64(len(g.Keywords[e.U]) + len(g.Keywords[e.V]) + 12)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("day %d", day),
			itoa(len(col.Intervals[day].Docs)),
			itoa(g.NumVertices()),
			itoa(g.NumEdges()),
			i64toa(bytes),
		})
	}
	return t, nil
}

// Fig6 reproduces Figure 6: running time of the full cluster-generation
// procedure (read, χ² test, ρ pruning, Art algorithm) as the ρ pruning
// threshold increases. Time must fall sharply with ρ.
func Fig6(cfg Config) (*Table, error) {
	col, err := dayCorpus(cfg.Scale, 2)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig6",
		Title:  "cluster generation time vs ρ threshold (Art algorithm, Section 3)",
		Header: []string{"rho", "edges after prune", "clusters", "vertices after prune", "seconds"},
		Notes:  "paper shape: time decreases drastically as ρ increases (fewer edges/vertices survive pruning)",
	}
	// The raw keyword graph is built and annotated once; the paper's
	// ρ-dependent cost is the pruning plus the Art run over what
	// survives.
	g, err := cooccur.BuildCtx(cfg.Context(), col, 0, 0, buildOptions(cfg))
	if err != nil {
		return nil, err
	}
	g.AnnotateStats()
	for _, rho := range []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		start := time.Now()
		pruned := g.Prune(stats.ChiSquared95, rho)
		bg := bicc.NewGraph(pruned.NumVertices())
		for _, e := range pruned.Edges {
			bg.AddEdge(e.U, e.V)
		}
		clusters := bicc.Decompose(bg).Clusters(2)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", rho),
			itoa(pruned.NumEdges()),
			itoa(len(clusters)),
			itoa(pruned.NumVertices()),
			fmtDur(time.Since(start)),
		})
	}
	return t, nil
}

// Qualitative reproduces the Section 5.3 study: the news-week corpus,
// per-day clusters for the figures' events, and the counts the paper
// reports (1100–1500 clusters per day at BlogScope scale; proportional
// here).
func Qualitative(cfg Config) (*Table, error) {
	sets, err := weekSets(cfg, 2007)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "qualitative",
		Title:  "Section 5.3 qualitative week (events per figure; see examples/newsweek for full paths)",
		Header: []string{"day", "clusters", "figure event found"},
		Notes:  "paper: 1100-1500 clusters/day, 42 full-week paths at BlogScope scale",
	}
	probe := map[int]string{0: "liverpool", 2: "stem", 3: "iphon", 5: "cisco", 6: "beckham"}
	for day, clusters := range sets {
		found := "-"
		if kw, ok := probe[day]; ok {
			found = fmt.Sprintf("%s: no", kw)
			for _, c := range clusters {
				if c.Contains(kw) {
					found = fmt.Sprintf("%s: yes (cluster of %d keywords)", kw, c.Size())
				}
			}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("Jan %d", day+6), itoa(len(clusters)), found})
	}
	return t, nil
}
