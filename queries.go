package blogclusters

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cooccur"
	"repro/internal/core"
	"repro/internal/obs"
)

// DocTotals returns the per-interval document totals of the current
// generation — the denominators the burst detector divides by, and the
// series a shard coordinator concatenates to run burst detection
// globally. Read from the snapshot's tokens, as Bursts reads them.
func (e *Engine) DocTotals(ctx context.Context) ([]int64, error) {
	if e.noCorpus {
		return nil, ErrNoCorpus
	}
	st := e.state.Load()
	if err := e.admit(); err != nil {
		return nil, err
	}
	return st.docCounts(), nil
}

// docCounts returns each interval's document count: the denominators
// the burst detector divides by.
func (st *engineState) docCounts() []int64 {
	totals := make([]int64, len(st.ivs))
	for i, rec := range st.ivs {
		totals[i] = int64(rec.toks.NumDocs())
	}
	return totals
}

// analyzed pushes a raw query term through the corpus analyzer and
// returns its first keyword (the paper analyzes queries exactly like
// documents, so surface forms match stemmed index terms).
func analyzed(raw string) (string, error) {
	kws := NewAnalyzer().Keywords(raw)
	if len(kws) == 0 {
		return "", fmt.Errorf("blogclusters: query %q has no analyzable keyword: %w", raw, ErrInvalidQuery)
	}
	return kws[0], nil
}

// Solve answers a stable-cluster query described by a QuerySpec over
// the session's cluster graph. It is the one solve entry for all three
// query variants (topk, normalized, diverse): the spec is normalized
// and validated once — which also resolves "auto" to the variant's
// default solver — and handed to core.Solve. The HTTP layer routes
// here too.
func (e *Engine) Solve(ctx context.Context, spec QuerySpec) (*Result, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g, err := e.Graph(ctx)
	if err != nil {
		return nil, err
	}
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()

	start := time.Now()
	res, err := core.Solve(ctx, g, spec)
	// Failed and cancelled solves get their span too: the solve that hit
	// its deadline is the one an operator traces. A finished one carries
	// its work counters, boxed only when the request is traced.
	if rec := obs.RecorderFrom(ctx); rec != nil {
		var work any
		if err == nil {
			work = res.Stats
		}
		rec.RecordWork("solve:"+spec.Algorithm, start, err, work)
	}
	if err != nil {
		return nil, err
	}
	e.solveMu.Lock()
	e.solves.recordSolve(spec.Algorithm, time.Since(start).Nanoseconds(), res.Stats)
	e.solveMu.Unlock()
	return res, nil
}

// StableClusters answers Problem 1 (top-k highest-weight paths of
// temporal length l) over the session's cluster graph. Algorithm is
// "auto" (or "") for the default solver, or one of "bfs", "dfs", "ta",
// "brute" to name one.
func (e *Engine) StableClusters(ctx context.Context, algorithm string, k, l int) (*Result, error) {
	return e.Solve(ctx, QuerySpec{Algorithm: algorithm, K: k, L: l})
}

// TimeSeries returns the keyword's per-interval document frequency
// A(w). The query term is analyzed like corpus text first.
func (e *Engine) TimeSeries(ctx context.Context, keyword string) ([]int64, error) {
	kw, err := analyzed(keyword)
	if err != nil {
		return nil, err
	}
	r, err := e.Index(ctx)
	if err != nil {
		return nil, err
	}
	return r.TimeSeries(kw)
}

// Bursts returns the keyword's information bursts (Kleinberg
// two-state automaton over its document-frequency trajectory, against
// the snapshot's per-interval document totals).
func (e *Engine) Bursts(ctx context.Context, keyword string) ([]KeywordBurst, error) {
	st := e.state.Load()
	counts, err := e.TimeSeries(ctx, keyword)
	if err != nil {
		return nil, err
	}
	totals := st.docCounts()
	// The store is shared across generations, so a concurrent push may
	// have grown it past this snapshot; trim to the snapshot's width so
	// counts and totals always line up.
	if len(counts) > len(totals) {
		counts = counts[:len(totals)]
	}
	return kleinbergBursts(counts, totals)
}

// Search returns the sorted ids of interval-i documents containing
// every given term (terms are analyzed like corpus text; terms with no
// analyzable keyword are rejected). An interval outside the corpus is
// ErrInvalidQuery, as for Refine and Correlations.
func (e *Engine) Search(ctx context.Context, terms []string, interval int) ([]int64, error) {
	if n := e.NumIntervals(); interval < 0 || interval >= n {
		return nil, fmt.Errorf("blogclusters: interval %d outside [0,%d): %w", interval, n, ErrInvalidQuery)
	}
	kws := make([]string, len(terms))
	for i, t := range terms {
		kw, err := analyzed(t)
		if err != nil {
			return nil, err
		}
		kws[i] = kw
	}
	r, err := e.Index(ctx)
	if err != nil {
		return nil, err
	}
	return r.Search(kws, interval)
}

// Refine answers the introduction's query-refinement use case: "If a
// search query for a specific interval falls in a cluster, the rest of
// the keywords in that cluster are good candidates for query
// refinement." It returns the other keywords of the interval cluster
// containing the query keyword, or nil when the keyword is unclustered
// or the query has no analyzable keyword. The query is analyzed with
// the same stemmer as the corpus, so surface forms match.
func (e *Engine) Refine(ctx context.Context, query string, interval int) ([]string, error) {
	cs, err := e.ClustersAt(ctx, interval)
	if err != nil {
		return nil, err
	}
	kws := NewAnalyzer().Keywords(query)
	if len(kws) == 0 {
		return nil, nil
	}
	kw := kws[0]
	for _, c := range cs {
		if !c.Contains(kw) {
			continue
		}
		out := make([]string, 0, c.Size()-1)
		for _, w := range c.Keywords {
			if w != kw {
				out = append(out, w)
			}
		}
		return out, nil
	}
	return nil, nil
}

// Correlation re-exports the keyword-graph correlation record:
// a keyword associated with the query keyword, with ρ and the
// co-occurrence count.
type Correlation = cooccur.Correlated

// Correlations returns up to n keywords most strongly correlated with
// the (analyzed) query keyword in the given interval, by descending ρ
// over the χ²-significant pairs. The interval's annotated keyword
// graph is built once per session.
func (e *Engine) Correlations(ctx context.Context, keyword string, interval, n int) ([]Correlation, error) {
	kw, err := analyzed(keyword)
	if err != nil {
		return nil, err
	}
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	kg, err := e.kwGraph(ctx, e.state.Load(), interval)
	if err != nil {
		return nil, err
	}
	return kg.StrongestCorrelations(kw, n), nil
}

// Describe renders a stable-cluster path with its keyword clusters,
// for reports and examples, resolving cluster contents through the
// session's graph. Node ids outside the graph, and more nodes than the
// graph has intervals (a path holds at most one node per interval),
// fail with ErrInvalidQuery, so remote callers get a client error
// instead of a panic or a rendering that grows with their input.
func (e *Engine) Describe(ctx context.Context, p Path) (string, error) {
	g, err := e.Graph(ctx)
	if err != nil {
		return "", err
	}
	if len(p.Nodes) > g.NumIntervals() {
		return "", fmt.Errorf("blogclusters: %d nodes, but a path over %d intervals holds at most %d: %w", len(p.Nodes), g.NumIntervals(), g.NumIntervals(), ErrInvalidQuery)
	}
	for _, id := range p.Nodes {
		if id < 0 || id >= int64(g.NumNodes()) {
			return "", fmt.Errorf("blogclusters: node %d outside graph [0,%d): %w", id, g.NumNodes(), ErrInvalidQuery)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "weight %.3f, length %d:", p.Weight, p.Length)
	for _, id := range p.Nodes {
		fmt.Fprintf(&b, "\n  t%d %v", g.Interval(id), g.Cluster(id).Keywords)
	}
	return b.String(), nil
}
