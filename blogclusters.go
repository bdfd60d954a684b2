// Package blogclusters is a from-scratch Go reproduction of
// "Seeking Stable Clusters in the Blogosphere" (Bansal, Chiang, Koudas,
// Tompa; VLDB 2007).
//
// The library turns a temporally ordered text stream (blog posts
// bucketed into intervals) into:
//
//  1. per-interval keyword clusters — keyword co-occurrence graphs are
//     built with a single pass plus external-memory sort, pruned with a
//     χ² independence test and the correlation coefficient ρ, and
//     decomposed into biconnected components (Section 3 of the paper);
//  2. stable clusters — top-k highest-weight paths of a chosen temporal
//     length through the cluster graph, via BFS, DFS or threshold-
//     algorithm solvers, plus the normalized (stability-ranked) variant
//     (Section 4); Engine.Push grows every artifact by one interval for
//     live ingest.
//
// The package is a facade over the internal packages; everything needed
// for end-to-end use is re-exported here. See DESIGN.md for the paper →
// module map and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
//
// The entry point is the Engine (engine.go): a session object that
// loads the corpus once and memoizes every stage artifact across
// queries, with context cancellation end to end. Stable-cluster
// queries go through Engine.Solve (or the StableClusters wrappers),
// which normalizes and validates a QuerySpec once ("auto" resolves to
// the variant's default solver there) and runs the solver it names. A
// handful of stateless helpers (per-interval
// clustering, cluster-set serialization, corpus generation) remain as
// free functions.
package blogclusters

import (
	"context"
	"fmt"
	"io"

	"repro/internal/bicc"
	"repro/internal/burst"
	"repro/internal/cluster"
	"repro/internal/clustergraph"
	"repro/internal/cooccur"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/diskstore"
	"repro/internal/faultfs"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/text"
	"repro/internal/topk"
)

// Re-exported building blocks. Downstream users program against these
// names; the internal packages stay private.
type (
	// Document is one blog post as a bag of analyzed keywords.
	Document = corpus.Document
	// Interval is one temporal bucket of documents.
	Interval = corpus.Interval
	// Collection is a temporally ordered sequence of intervals.
	Collection = corpus.Collection
	// Cluster is a set of correlated keywords in one interval.
	Cluster = cluster.Cluster
	// ClusterGraph is the graph whose nodes are per-interval clusters.
	ClusterGraph = clustergraph.Graph
	// Path is a weighted path of cluster nodes (a stable cluster).
	Path = topk.Path
	// Result carries the top-k paths plus work counters.
	Result = core.Result
	// Analyzer tokenizes, stems and stop-word-filters raw text.
	Analyzer = text.Analyzer
	// KeywordGraph is the per-interval keyword co-occurrence graph.
	KeywordGraph = cooccur.Graph
	// QuerySpec is the normalized description of a stable-cluster query
	// (variant, algorithm, k, lengths, diversity mode) shared by
	// Engine.Solve and the HTTP layer's parameter parsing and cache
	// keys. The zero value plus K is a valid top-k query; Algorithm ""
	// or "auto" means the variant's default solver.
	QuerySpec = plan.QuerySpec
)

// NewAnalyzer returns the paper's text pipeline: stemming on, default
// English stop words, bare numbers dropped.
func NewAnalyzer() *Analyzer { return text.NewAnalyzer() }

// ReadJSONL loads a collection from a JSONL stream of documents
// ({"id","interval","keywords"} per line).
func ReadJSONL(r io.Reader) (*Collection, error) { return corpus.ReadJSONL(r) }

// FullPaths requests paths spanning all intervals (l = m−1).
const FullPaths = core.FullPaths

// ClusterOptions configures per-interval cluster generation (Section 3).
type ClusterOptions struct {
	// Chi2Critical is the χ² pruning threshold; default 3.84 (95%
	// confidence, the paper's setting).
	Chi2Critical float64
	// RhoThreshold prunes edges with correlation coefficient ρ at or
	// below it; default 0.2 (the paper's setting).
	RhoThreshold float64
	// MinClusterSize drops clusters with fewer keywords; default 2.
	MinClusterSize int
	// SortMemoryBudget is accepted and ignored: a spill is one sorted
	// run of the pair table, and the merge reads every run through one
	// fixed buffer. The field stays only because bench/build.go names it.
	SortMemoryBudget int
	// MinPairCount drops keyword pairs seen in fewer documents before
	// statistics run; 0 keeps everything.
	MinPairCount int64
	// MemBudget bounds the resident bytes of the pair-counting hash
	// tables; a table over its share spills sorted runs to disk. The
	// cluster stage splits the budget across its concurrent interval
	// builds so total residency stays bounded regardless of how many
	// intervals are in flight. 0 means the 256 MiB default.
	MemBudget int
}

func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.Chi2Critical == 0 {
		o.Chi2Critical = stats.ChiSquared95
	}
	if o.RhoThreshold == 0 {
		o.RhoThreshold = stats.DefaultRhoThreshold
	}
	if o.MinClusterSize == 0 {
		o.MinClusterSize = 2
	}
	return o
}

// intervalClustersCtx runs the Section 3 pipeline for one interval of
// the collection: keyword graph → χ²/ρ pruning → biconnected components
// → keyword clusters. Cluster IDs are local to the call (0,1,2…); the
// cluster graph assigns graph-wide ids.
func intervalClustersCtx(ctx context.Context, c *Collection, interval int, opts ClusterOptions) ([]Cluster, error) {
	opts = opts.withDefaults()
	kg, err := cooccur.BuildCtx(ctx, c, interval, interval, cooccur.BuildOptions{
		MinPairCount: opts.MinPairCount,
		MemBudget:    opts.MemBudget,
	})
	if err != nil {
		return nil, fmt.Errorf("blogclusters: interval %d keyword graph: %w", interval, err)
	}
	kg.AnnotateStats()
	pruned := kg.Prune(opts.Chi2Critical, opts.RhoThreshold)

	bg := bicc.NewGraph(pruned.NumVertices())
	for _, e := range pruned.Edges {
		bg.AddEdge(e.U, e.V)
	}
	dec := bicc.Decompose(bg)
	var out []Cluster
	for _, comp := range dec.Clusters(opts.MinClusterSize) {
		kws := make([]string, len(comp))
		for i, v := range comp {
			kws[i] = pruned.Keywords[v]
		}
		out = append(out, cluster.New(int64(len(out)), interval, kws))
	}
	return out, nil
}

// WriteClusterSets persists per-interval cluster sets as JSONL so the
// cluster-generation and stable-cluster stages can run separately.
func WriteClusterSets(w io.Writer, sets [][]Cluster) error {
	return cluster.WriteSetsJSONL(w, sets)
}

// ReadClusterSets loads cluster sets written by WriteClusterSets.
func ReadClusterSets(r io.Reader) ([][]Cluster, error) {
	return cluster.ReadSetsJSONL(r)
}

// GraphOptions configures cluster-graph construction (Section 4.1).
type GraphOptions struct {
	// Gap is g, the number of intervals a story may skip; default 0.
	Gap int
	// Theta is the minimum affinity for an edge; default 0.1 (the
	// paper's θ).
	Theta float64
	// Affinity names the overlap measure: "jaccard" (default),
	// "intersection" or "overlap".
	Affinity string
	// UseSimJoin computes Jaccard edges with the prefix-filter
	// similarity join instead of the quadratic pair loop. The join's
	// token vocabulary is interned once for the whole run.
	UseSimJoin bool
}

// resolveAffinity maps GraphOptions.Affinity to the affinity function
// plus the normalization flag (intersection weights exceed 1).
func resolveAffinity(opts GraphOptions) (cluster.AffinityFunc, bool, error) {
	if opts.Affinity == "" || opts.Affinity == "jaccard" {
		return nil, false, nil
	}
	f, err := cluster.ParseAffinity(opts.Affinity)
	if err != nil {
		return nil, false, err
	}
	return f, true, nil
}

// DescribePath renders a stable-cluster path with its keyword clusters,
// for reports and examples.
func DescribePath(g *ClusterGraph, p Path) string {
	s := fmt.Sprintf("weight %.3f, length %d:", p.Weight, p.Length)
	for _, id := range p.Nodes {
		c := g.Cluster(id)
		s += fmt.Sprintf("\n  t%d %v", g.Interval(id), c.Keywords)
	}
	return s
}

// IndexReader is the backend-neutral keyword-index interface: the
// in-memory index and the disk-backed segment layout answer the same
// primitives through it.
type IndexReader = index.Reader

// IndexStore is the live multi-segment keyword index behind an Engine:
// a base segment built at Open plus one small delta segment per pushed
// interval, folded back into the base by background compaction. It
// implements IndexReader (queries route to the segment covering the
// interval) and replaces the former immutable-corpus helpers
// (BuildIndex, OpenIndexReader) — a segment set that can grow is the
// only index surface now.
type IndexStore = index.Store

// IndexOptions selects and configures the index backend.
type IndexOptions struct {
	// Backend is "mem" (default: everything resident) or "disk" (the
	// EMBANKS-style segment file: resident dictionaries, postings on
	// disk behind an LRU block cache).
	Backend string
	// Path is where the disk backend's segment file lives. Empty means
	// a private temporary file, removed when the reader is closed.
	Path string
	// MemBudget bounds the disk backend's block-cache bytes (same
	// convention as ClusterOptions.MemBudget); 0 means the default.
	MemBudget int
	// SortMemoryBudget is accepted and ignored: the disk segment is
	// built one interval at a time in memory, with no external sorter.
	// The field stays only because bench/build.go names it.
	SortMemoryBudget int
	// FS is the filesystem beneath the disk backend's segment build and
	// reads. Nil means the real OS; tests substitute a faultfs.Injector
	// to exercise the retry and cleanup paths end to end.
	FS faultfs.FS
	// Retry bounds how the disk backend retries transient read faults
	// (EIO, short reads). The zero value uses the diskstore defaults.
	Retry diskstore.RetryPolicy
	// CompactAfter is the store's compaction threshold: once more than
	// CompactAfter delta segments accumulate from pushes, the Engine
	// folds them into the base in the background. 0 means the default
	// (index.DefaultCompactAfter); negative disables compaction.
	CompactAfter int
}

// config translates the facade options into the index package's
// unified Config. lifetime bounds the opened segments' retry backoff
// for as long as the store lives (the Engine passes its session
// context).
func (o IndexOptions) config(lifetime context.Context) index.Config {
	return index.Config{
		MemBudget:    o.MemBudget,
		FS:           o.FS,
		Retry:        o.Retry,
		Ctx:          lifetime,
		CompactAfter: o.CompactAfter,
	}
}

// OpenIndexStore indexes the collection with the selected backend and
// returns the live multi-segment store. Close it when done; the mem
// backend's Close is a no-op, the disk backend's closes every segment
// (and removes them when Path was empty and the store owns a private
// temporary directory).
//
// For repeated index queries — and for pushing new intervals — prefer
// an Engine with WithIndexOptions: it opens the store once, shares it
// across queries, grows it on Push and closes it with the session.
func OpenIndexStore(ctx context.Context, c *Collection, opts IndexOptions) (*IndexStore, error) {
	return openIndexStoreCtx(ctx, context.Background(), c, opts)
}

// openIndexStoreCtx builds and opens the selected backend. ctx bounds
// the build; lifetime bounds the opened store's retry backoff sleeps
// (the store usually outlives the query that built it).
func openIndexStoreCtx(ctx, lifetime context.Context, c *Collection, opts IndexOptions) (*index.Store, error) {
	return index.OpenStore(ctx, c, opts.Backend, opts.Path, opts.config(lifetime))
}

// KeywordBurst is one bursty stretch of intervals for a keyword.
type KeywordBurst = burst.Burst

// DetectBurstsIn finds the intervals in which keyword w bursts — the
// "information bursts" BlogScope surfaces (paper Section 1) — over any
// index backend: the keyword's
// document-frequency trajectory comes straight from the reader's
// resident term statistics (no posting I/O on the disk backend).
//
// Each call rebuilds the per-interval totals slice from the reader;
// Engine.Bursts computes it once per session and shares it.
func DetectBurstsIn(r IndexReader, w string) ([]KeywordBurst, error) {
	counts, err := r.TimeSeries(w)
	if err != nil {
		return nil, err
	}
	return kleinbergBursts(counts, intervalTotals(r))
}

// intervalTotals reads the per-interval document totals the burst
// detector divides by.
func intervalTotals(r IndexReader) []int64 {
	totals := make([]int64, r.NumIntervals())
	for i := range totals {
		totals[i] = int64(r.NumDocs(i))
	}
	return totals
}

// kleinbergBursts runs the default burst automaton over one keyword's
// trajectory.
func kleinbergBursts(counts, totals []int64) ([]KeywordBurst, error) {
	return burst.Kleinberg(counts, totals, burst.KleinbergOptions{})
}

// RefineQuery implements the introduction's query-refinement use case:
// "If a search query for a specific interval falls in a cluster, the
// rest of the keywords in that cluster are good candidates for query
// refinement." Given the interval's clusters and a query keyword, it
// returns the other keywords of the cluster containing the keyword
// (empty when the keyword is unclustered). The query is analyzed with
// the same stemmer as the corpus, so surface forms match.
func RefineQuery(clusters []Cluster, query string) []string {
	kws := NewAnalyzer().Keywords(query)
	if len(kws) == 0 {
		return nil
	}
	kw := kws[0]
	for _, c := range clusters {
		if !c.Contains(kw) {
			continue
		}
		out := make([]string, 0, c.Size()-1)
		for _, w := range c.Keywords {
			if w != kw {
				out = append(out, w)
			}
		}
		return out
	}
	return nil
}

// DiversityMode re-exports the constrained kl-variant modes (paths with
// shared prefixes/suffixes discarded; see Section 4 of the paper).
type DiversityMode = core.DiversityMode

// Diversity modes for Engine.DiverseStableClusters.
const (
	DistinctEndpoints = core.DistinctEndpoints
	DistinctPrefix    = core.DistinctPrefix
	DistinctSuffix    = core.DistinctSuffix
	DisjointNodes     = core.DisjointNodes
)

// GenerateCorpus builds a synthetic blog corpus (the BlogScope-data
// substitution; see DESIGN.md).
func GenerateCorpus(cfg corpus.GeneratorConfig) (*Collection, error) { return corpus.Generate(cfg) }

// NewsWeekCorpus returns the preset configuration mirroring the
// paper's qualitative week of Jan 6–12 2007.
func NewsWeekCorpus(seed int64, backgroundPosts int) corpus.GeneratorConfig {
	return corpus.NewsWeek(seed, backgroundPosts)
}

// CorpusEvent and CorpusPhase re-export the synthetic generator's event
// model so callers can script their own stories.
type (
	CorpusEvent  = corpus.Event
	CorpusPhase  = corpus.Phase
	CorpusConfig = corpus.GeneratorConfig
)
