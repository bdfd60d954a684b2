package experiments

import (
	"time"

	"repro/internal/bicc"
	"repro/internal/cluster"
	"repro/internal/clustergraph"
	"repro/internal/cooccur"
	"repro/internal/corpus"
	"repro/internal/simjoin"
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
// news week at gap 1 and θ 0.1: the graph build, whose edges come from
// the prefix-filter similarity join, against the pair loop of
// simjoin.JoinBrute over the same interval pairs, its reference. Both
// find the same edges (the equivalence tests assert it); this table
// records what each costs.
func ClusterGraph(cfg Config) (*Table, error) {
	const gap, theta = 1, 0.1
	sets, err := weekSets(cfg, 2007)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "clustergraph",
		Title:  "cluster-graph construction: pair loop vs prefix-filter join (Section 4.1)",
		Header: []string{"variant", "nodes", "edges", "seconds"},
		Notes:  "the same edges by construction; the pair-loop row only scores pairs, the join row builds the whole graph",
	}
	start := time.Now()
	nodes, edges := 0, 0
	for i, cs := range sets {
		nodes += len(cs)
		for j := i + 1; j <= i+gap+1 && j < len(sets); j++ {
			pairs, err := simjoin.JoinBrute(cs, sets[j], theta)
			if err != nil {
				return nil, err
			}
			edges += len(pairs)
		}
	}
	t.Rows = append(t.Rows, []string{"pair-loop", itoa(nodes), itoa(edges), fmtDur(time.Since(start))})
	start = time.Now()
	g, err := clustergraph.FromClusters(sets, clustergraph.FromClustersOptions{Gap: gap, Theta: theta})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"join", itoa(g.NumNodes()), itoa(g.NumEdges()), fmtDur(time.Since(start))})
	return t, nil
}
