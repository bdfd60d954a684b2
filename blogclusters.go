// Package blogclusters is a from-scratch Go reproduction of
// "Seeking Stable Clusters in the Blogosphere" (Bansal, Chiang, Koudas,
// Tompa; VLDB 2007).
//
// The library turns a temporally ordered text stream (blog posts
// bucketed into intervals) into:
//
//  1. per-interval keyword clusters — keyword co-occurrence graphs are
//     counted row by row (each keyword's partners gathered through the
//     documents that hold it), pruned with a χ² independence test and
//     the correlation coefficient ρ, and decomposed into biconnected
//     components (Section 3 of the paper);
//  2. stable clusters — top-k highest-weight paths of a chosen temporal
//     length through the cluster graph, via BFS, DFS or threshold-
//     algorithm solvers, plus the normalized (stability-ranked) variant
//     (Section 4); Engine.Push grows every artifact by one interval for
//     live ingest.
//
// The package is a facade over the internal packages; everything needed
// for end-to-end use is re-exported here. See DESIGN.md for the paper →
// module map; cmd/experiments regenerates the paper's evaluation
// (Section 5) on synthetic data.
//
// The entry point is the Engine (engine.go): a session object that
// loads the corpus once and memoizes every stage artifact across
// queries, with context cancellation end to end. Stable-cluster
// queries go through Engine.Solve, which normalizes and validates a
// QuerySpec once ("auto" resolves to the variant's default solver
// there) and hands it to the solver core. Corpus generation remains a
// free function.
package blogclusters

import (
	"context"
	"fmt"
	"slices"

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
	// QuerySpec is the one description of a stable-cluster query
	// (variant, algorithm, k, lengths, diversity mode): the solver
	// core's Request, shared by Engine.Solve and the HTTP layer's
	// parameter parsing and cache keys. The zero value plus K is a
	// valid top-k query; Algorithm "" or "auto" means the variant's
	// default solver.
	QuerySpec = core.Request
)

// NewAnalyzer returns the paper's text pipeline: stemming on, default
// English stop words, bare numbers dropped.
func NewAnalyzer() *Analyzer { return text.NewAnalyzer() }

// FullPaths requests paths spanning all intervals (l = m−1).
const FullPaths = core.FullPaths

// ClusterOptions configures per-interval cluster generation (Section 3).
type ClusterOptions struct {
	// RhoThreshold prunes edges with correlation coefficient ρ at or
	// below it; default 0.2 (the paper's setting).
	RhoThreshold float64
	// MinClusterSize drops clusters with fewer keywords; default 2.
	MinClusterSize int
	// SortMemoryBudget is accepted and ignored: the keyword-graph build
	// sorts no pair stream. The field stays only because bench/build.go
	// names it.
	SortMemoryBudget int
	// MemBudget is accepted and ignored: the keyword-graph build holds
	// no pair table and writes no file; what it holds grows with the
	// interval's keyword occurrences (DESIGN.md "Keyword-graph
	// construction"). The field stays only because bench/build.go
	// names it.
	MemBudget int
}

func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.RhoThreshold == 0 {
		o.RhoThreshold = stats.DefaultRhoThreshold
	}
	if o.MinClusterSize == 0 {
		o.MinClusterSize = 2
	}
	return o
}

// intervalBuilder is one worker's Section 3 build, kept from interval
// to interval: the keyword-graph builder (A(u), the row pass's arrays,
// G′'s arrays), the bicc graph it fills from G′ and the
// decomposer with its working arrays. Each interval's G′ and
// decomposition live only until the builder's next interval; the
// clusters it returns share none of that.
type intervalBuilder struct {
	kw  cooccur.Builder
	bg  bicc.Graph
	dec bicc.Decomposer
}

// clusters runs keyword graph → χ²/ρ pruning → biconnected components
// → keyword clusters for one interval. Cluster IDs are local to the
// call (0,1,2…); the cluster graph assigns graph-wide ids.
func (b *intervalBuilder) clusters(ctx context.Context, tk *corpus.Tokens, interval int, opts ClusterOptions) ([]Cluster, error) {
	opts = opts.withDefaults()
	pruned, err := b.kw.BuildPruned(ctx, tk, stats.ChiSquared95, opts.RhoThreshold)
	if err != nil {
		return nil, fmt.Errorf("blogclusters: interval %d keyword graph: %w", interval, err)
	}

	b.bg.Reset(pruned.NumVertices(), len(pruned.Edges))
	for _, e := range pruned.Edges {
		b.bg.AddEdge(e.U, e.V)
	}
	b.dec.Decompose(&b.bg)
	comps := b.dec.Clusters(opts.MinClusterSize)
	if len(comps) == 0 {
		return nil, nil
	}
	// One keyword array for the interval, each cluster a capped span of
	// it sorted in place: a component's vertices are distinct and so are
	// their keywords, so the span is what cluster.New would return (the
	// vertex order is not the keywords' lexicographic order).
	n := 0
	for _, comp := range comps {
		n += len(comp)
	}
	kws := make([]string, 0, n)
	out := make([]Cluster, len(comps))
	for i, comp := range comps {
		start := len(kws)
		for _, v := range comp {
			kws = append(kws, pruned.Keywords[v])
		}
		span := kws[start:len(kws):len(kws)]
		slices.Sort(span)
		out[i] = Cluster{ID: int64(i), Interval: interval, Keywords: span}
	}
	return out, nil
}

// GraphOptions configures cluster-graph construction (Section 4.1).
type GraphOptions struct {
	// Gap is g, the number of intervals a story may skip; default 0.
	Gap int
	// Theta is the minimum Jaccard affinity for an edge, in (0, 1];
	// default 0.1 (the paper's θ). Edges come from the prefix-filter
	// similarity join.
	Theta float64
	// UseSimJoin is accepted and ignored: Jaccard edges always come
	// from the prefix-filter join. The field stays only because
	// bench/build.go names it.
	UseSimJoin bool
}

// validate rejects a Theta outside (0, 1] once 0 is read as the
// default 0.1: below it every overlapping pair would be an edge, above
// it none.
func (o GraphOptions) validate() error {
	if !(o.Theta >= 0 && o.Theta <= 1) {
		return fmt.Errorf("blogclusters: jaccard theta %g outside (0, 1]: %w", o.Theta, ErrInvalidQuery)
	}
	return nil
}

// IndexReader is the keyword-index interface: the mem backend's
// grouped postings and the disk backend's segment store answer the same
// primitives through it.
type IndexReader = index.Reader

// IndexOptions selects and configures the index backend. The mem
// backend keeps each interval's postings grouped by term in memory and
// reads none of the other fields; the disk backend holds the
// EMBANKS-style segment layout in files: resident term dictionaries,
// and posting blocks read through an LRU block cache.
type IndexOptions struct {
	// Backend picks where the postings live: "mem" (default) in
	// memory, "disk" in segment files.
	Backend string
	// Path is where the disk backend's segment file lives. Empty means
	// a private temporary file, removed when the reader is closed. The
	// file is rebuilt at every session's first index use and replaces
	// whatever is at Path; it is never reopened.
	Path string
	// MemBudget bounds the block-cache bytes of each disk segment; 0
	// means the default (8 MiB).
	MemBudget int
	// SortMemoryBudget is accepted and ignored: a segment is built one
	// interval at a time in memory, with no external sorter.
	// The field stays only because bench/build.go names it.
	SortMemoryBudget int
	// FS is the filesystem beneath the disk backend's segment build and
	// reads. Nil means the real OS; tests substitute a faultfs.Injector
	// to exercise the retry and cleanup paths end to end.
	FS faultfs.FS
	// Retry bounds how the disk backend retries transient read faults
	// (EIO, short reads). The zero value uses the diskstore defaults.
	Retry diskstore.RetryPolicy
	// CompactAfter is the disk store's compaction threshold: once more
	// than CompactAfter delta segments accumulate from pushes, the
	// Engine folds them into the base in the background. 0 means the
	// default (index.DefaultCompactAfter); negative disables
	// compaction.
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

// KeywordBurst is one bursty stretch of intervals for a keyword.
type KeywordBurst = burst.Burst

// kleinbergBursts runs the default burst automaton over one keyword's
// trajectory.
func kleinbergBursts(counts, totals []int64) ([]KeywordBurst, error) {
	return burst.Kleinberg(counts, totals, burst.KleinbergOptions{})
}

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
