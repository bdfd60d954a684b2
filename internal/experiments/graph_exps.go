package experiments

import (
	"time"

	"repro/internal/bicc"
	"repro/internal/cluster"
	"repro/internal/clustergraph"
	"repro/internal/cooccur"
	"repro/internal/corpus"
	"repro/internal/stats"
)

// weekSets runs the Section 3 pipeline over every day of the news-week
// corpus and returns the per-interval cluster sets that feed Section 4.
func weekSets(cfg Config, seed int64) ([][]cluster.Cluster, error) {
	col, err := corpus.Generate(corpus.NewsWeek(seed, cfg.Scale.nodes(600)))
	if err != nil {
		return nil, err
	}
	sets := make([][]cluster.Cluster, len(col.Intervals))
	for day := range col.Intervals {
		pruned, err := cooccur.BuildPrunedCtx(cfg.Context(), col, day, day, stats.ChiSquared95, stats.DefaultRhoThreshold)
		if err != nil {
			return nil, err
		}
		bg := bicc.NewGraph(pruned.NumVertices())
		for _, e := range pruned.Edges {
			bg.AddEdge(e.U, e.V)
		}
		for _, comp := range bicc.Decompose(bg).Clusters(2) {
			kws := make([]string, len(comp))
			for i, v := range comp {
				kws[i] = pruned.Keywords[v]
			}
			sets[day] = append(sets[day], cluster.New(int64(len(sets[day])), day, kws))
		}
	}
	return sets, nil
}

// ClusterGraph measures Section 4.1 cluster-graph construction over the
// news week: the prefix-filter similarity join every Jaccard build runs
// against the pair loop over cluster.Jaccard passed explicitly, its
// reference. Both variants build the identical graph (the equivalence
// tests assert it); this table records what each costs.
func ClusterGraph(cfg Config) (*Table, error) {
	sets, err := weekSets(cfg, 2007)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "clustergraph",
		Title:  "cluster-graph construction: pair loop vs prefix-filter join (Section 4.1)",
		Header: []string{"variant", "nodes", "edges", "seconds"},
		Notes:  "identical graphs by construction; the join interns the token vocabulary once per run",
	}
	variants := []struct {
		name string
		opts clustergraph.FromClustersOptions
	}{
		{"pair-loop", clustergraph.FromClustersOptions{Gap: 1, Theta: 0.1, Affinity: cluster.Jaccard}},
		{"join", clustergraph.FromClustersOptions{Gap: 1, Theta: 0.1}},
	}
	for _, v := range variants {
		start := time.Now()
		g, err := clustergraph.FromClusters(sets, v.opts)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			v.name,
			itoa(g.NumNodes()),
			itoa(g.NumEdges()),
			fmtDur(time.Since(start)),
		})
	}
	return t, nil
}
