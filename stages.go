package blogclusters

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/clustergraph"
	"repro/internal/cooccur"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
)

// releaseTokens drops the token memo once the index store and the
// cluster sets both exist. A later reader tokenizes its interval
// afresh, a pure function of it.
func (st *engineState) releaseTokens() {
	if _, ok := st.index.Cached(); !ok {
		return
	}
	if _, ok := st.sets.Cached(); !ok {
		return
	}
	st.tokMu.Lock()
	st.toks = nil
	st.tokMu.Unlock()
}

// tokens returns interval i's tokens: from the snapshot's memo while it
// is held, else tokenized afresh and kept by no one. tz is the calling
// worker's tokenizer, or nil.
func (e *Engine) tokens(ctx context.Context, st *engineState, i int, tz *corpus.Tokenizer) (*corpus.Tokens, error) {
	st.tokMu.Lock()
	toks := st.toks
	st.tokMu.Unlock()
	ivs := st.col.Intervals[i : i+1]
	if toks == nil {
		return e.tokenize(ctx, ivs, tz), nil
	}
	return toks[i].Get(ctx, func() (*corpus.Tokens, error) {
		return e.tokenize(ctx, ivs, tz), nil
	})
}

// tokenSource is the snapshot's TokenSource for the pooled builds.
func (e *Engine) tokenSource(st *engineState) corpus.TokenSource {
	return func(ctx context.Context, i int, tz *corpus.Tokenizer) (*corpus.Tokens, error) {
		return e.tokens(ctx, st, i, tz)
	}
}

// tokenize is the "tokens" stage: one interval's tokens, counted in
// EngineStats. tz may be nil.
func (e *Engine) tokenize(ctx context.Context, ivs []Interval, tz *corpus.Tokenizer) *corpus.Tokens {
	defer e.stage(ctx, "tokens")()
	if tz == nil {
		tz = new(corpus.Tokenizer)
	}
	return tz.Tokenize(ivs)
}

// Index materializes (once per generation lineage) and returns the
// keyword-index store. The store is owned by the Engine: do not Close
// it; Engine.Close releases it.
func (e *Engine) Index(ctx context.Context) (IndexReader, error) {
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	return e.indexStore(ctx, e.state.Load())
}

// indexStore materializes the snapshot's index store. The store is the
// mutable segment set shared by successive generations: once built, a
// Push reuses it by appending a delta segment; the memo only rebuilds
// when the index had never been materialized at push time.
func (e *Engine) indexStore(ctx context.Context, st *engineState) (*index.Store, error) {
	if st.col == nil {
		return nil, ErrNoCorpus
	}
	s, err := st.index.Get(ctx, func() (*index.Store, error) {
		defer e.stage(ctx, "index")()
		// e.root (the session lifetime) bounds the disk backend's retry
		// backoff sleeps: the store outlives this query's context.
		s, err := openIndexStoreCtx(ctx, e.root, st.col, e.tokenSource(st), e.cfg.index)
		if err != nil {
			return nil, err
		}
		// Hand ownership to the session under closeMu: a Close that ran
		// while the build was past its last cancellation poll must not
		// leak the store (or its temp disk segments).
		e.closeMu.Lock()
		defer e.closeMu.Unlock()
		if e.closed {
			s.Close()
			return nil, ErrEngineClosed
		}
		e.ownedReaders = append(e.ownedReaders, s)
		return s, nil
	})
	if err == nil {
		st.releaseTokens()
	}
	return s, err
}

// Clusters materializes (once per generation) and returns the
// per-interval cluster sets — the Section 3 pipeline over every
// interval. The result is shared; callers must not mutate it.
func (e *Engine) Clusters(ctx context.Context) ([][]Cluster, error) {
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	return e.clusters(ctx, e.state.Load())
}

// clusters is Clusters pinned to one generation snapshot, for internal
// reuse by callers that already hold a joined context.
func (e *Engine) clusters(ctx context.Context, st *engineState) ([][]Cluster, error) {
	sets, err := st.sets.Get(ctx, func() ([][]Cluster, error) {
		if st.col == nil {
			return nil, ErrNoCorpus
		}
		defer e.stage(ctx, "clusters")()
		sets, err := allIntervalClustersCtx(ctx, st.col, e.tokenSource(st), e.cfg.cluster)
		if err == nil {
			st.primeRecords(sets)
		}
		return sets, err
	})
	if err == nil {
		st.releaseTokens()
	}
	return sets, err
}

// ClustersAt returns the cluster set of one interval from the
// interval's record: primed when the full sets are materialized
// (Clusters ran, a push extended them, or the session was opened from
// cluster sets), else built for just that interval — a single-day
// query (Refine, blogscope's report, streaming's day-by-day pushes)
// never pays for the whole corpus. The per-interval build is
// canonical, so mixing ClustersAt with a later Clusters yields
// identical slices; intervals are immutable once pushed, so the record
// survives generations.
func (e *Engine) ClustersAt(ctx context.Context, interval int) ([]Cluster, error) {
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	return e.clustersAt(ctx, e.state.Load(), interval)
}

// clustersAt is ClustersAt pinned to one generation snapshot, for
// internal reuse by callers that already hold a joined context.
func (e *Engine) clustersAt(ctx context.Context, st *engineState, interval int) ([]Cluster, error) {
	if interval < 0 || interval >= len(st.ivs) {
		return nil, fmt.Errorf("blogclusters: interval %d outside [0,%d): %w", interval, len(st.ivs), ErrInvalidQuery)
	}
	return st.ivs[interval].clusters.Get(ctx, func() ([]Cluster, error) {
		tk, err := e.tokens(ctx, st, interval, nil)
		if err != nil {
			return nil, err
		}
		defer e.stage(ctx, "interval-clusters")()
		return intervalClustersCtx(ctx, tk, interval, e.cfg.cluster)
	})
}

// ClusterSets returns the cluster sets of the intervals in [from, to),
// one slice per interval in order, each answered by ClustersAt, so a
// shard coordinator gathering a boundary window never pays for the
// whole corpus. The returned slices are shared with the session's
// memos; callers must not mutate them.
func (e *Engine) ClusterSets(ctx context.Context, from, to int) ([][]Cluster, error) {
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	st := e.state.Load()
	if n := len(st.ivs); from < 0 || to < from || to > n {
		return nil, fmt.Errorf("blogclusters: interval range [%d,%d) outside [0,%d]: %w", from, to, n, ErrInvalidQuery)
	}
	out := make([][]Cluster, to-from)
	for i := range out {
		cs, err := e.clustersAt(ctx, st, from+i)
		if err != nil {
			return nil, err
		}
		out[i] = cs
	}
	return out, nil
}

// Graph materializes (once per generation) and returns the cluster
// graph built with the session's GraphOptions. After a Push a
// materialized graph is already extended in the new generation; an
// unbuilt one follows the usual lazy path over the grown corpus.
func (e *Engine) Graph(ctx context.Context) (*ClusterGraph, error) {
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	st := e.state.Load()
	return st.graph.Get(ctx, func() (*ClusterGraph, error) {
		sets, err := e.clusters(ctx, st)
		if err != nil {
			return nil, err
		}
		defer e.stage(ctx, "graph")()
		return buildClusterGraphCtx(ctx, sets, e.cfg.graph)
	})
}

// kwGraph memoizes the χ²-annotated, significance-pruned keyword graph
// of one interval (the substrate of Correlations) in the interval's
// record.
func (e *Engine) kwGraph(ctx context.Context, st *engineState, interval int) (*cooccur.Graph, error) {
	if st.col == nil {
		return nil, ErrNoCorpus
	}
	if interval < 0 || interval >= len(st.ivs) {
		return nil, fmt.Errorf("blogclusters: interval %d outside corpus (%d intervals): %w", interval, len(st.ivs), ErrInvalidQuery)
	}
	return st.ivs[interval].kwGraph.Get(ctx, func() (*cooccur.Graph, error) {
		tk, err := e.tokens(ctx, st, interval, nil)
		if err != nil {
			return nil, err
		}
		defer e.stage(ctx, "kwgraph")()
		// Keep every significant, positively correlated pair.
		return cooccur.BuildPrunedTokens(ctx, tk, stats.ChiSquared95, 0)
	})
}

// stage emits the started event and returns the closure recording the
// finished event plus timing. Usage: defer e.stage(ctx, "clusters")().
// A traced request (obs.Recorder in ctx) additionally gets the build
// as a span — only requests that actually triggered the single-flight
// build see it, which is the honest answer: a memo hit did no work.
func (e *Engine) stage(ctx context.Context, name string) func() {
	start := time.Now()
	gen := e.Generation()
	e.emit(StageEvent{Stage: name, Generation: gen})
	return func() {
		d := time.Since(start)
		e.timings.record(name, d)
		obs.RecorderFrom(ctx).Record(name, start, nil)
		e.emit(StageEvent{Stage: name, Done: true, Duration: d, Generation: gen})
	}
}

func (e *Engine) emit(ev StageEvent) {
	if e.cfg.progress != nil {
		e.cfg.progress(ev)
	}
}

// allIntervalClustersCtx builds every interval's cluster set from the
// tokens src gives — the Engine's cluster stage: whole interval builds
// run on a pool of min(GOMAXPROCS, m) workers, each build sequential
// inside. Each worker
// keeps one tokenizer and one intervalBuilder from interval to
// interval, so its scratch is allocated once per stage, not per
// interval.
func allIntervalClustersCtx(ctx context.Context, c *Collection, src corpus.TokenSource, opts ClusterOptions) ([][]Cluster, error) {
	m := len(c.Intervals)
	workers := max(1, min(runtime.GOMAXPROCS(0), m))
	sets := make([][]Cluster, m)
	tzs := make([]corpus.Tokenizer, workers)
	bs := make([]intervalBuilder, workers)
	if err := par.ForEachWorkerCtx(ctx, m, workers, func(w, i int) error {
		tk, err := src(ctx, i, &tzs[w])
		if err != nil {
			return err
		}
		sets[i], err = bs[w].clusters(ctx, tk, i, opts)
		return err
	}); err != nil {
		return nil, err
	}
	return sets, nil
}

// buildClusterGraphCtx is the Engine's graph stage.
func buildClusterGraphCtx(ctx context.Context, sets [][]Cluster, opts GraphOptions) (*ClusterGraph, error) {
	return clustergraph.FromClustersCtx(ctx, sets, clustergraph.FromClustersOptions{Gap: opts.Gap, Theta: opts.Theta})
}
