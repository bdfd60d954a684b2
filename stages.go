package blogclusters

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/clustergraph"
	"repro/internal/cooccur"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
)

// Index materializes (once per generation lineage) and returns the
// keyword index. The index is owned by the Engine: do not Close it;
// Engine.Close releases it.
func (e *Engine) Index(ctx context.Context) (IndexReader, error) {
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	return e.indexStore(ctx, e.state.Load())
}

// indexStore materializes the snapshot's index, on the backend the
// options name (index.OpenStoreTokens chooses). The index is shared by
// successive generations: once built, a Push appends its interval to
// it; the memo only rebuilds when the index had never been
// materialized at push time.
func (e *Engine) indexStore(ctx context.Context, st *engineState) (index.Live, error) {
	if e.noCorpus {
		return nil, ErrNoCorpus
	}
	return st.index.Get(ctx, func() (index.Live, error) {
		defer e.stage(ctx, "index")()
		// e.root (the session lifetime) bounds the disk backend's retry
		// backoff sleeps: the store outlives this query's context.
		o := e.cfg.index
		s, err := index.OpenStoreTokens(ctx, st.tokens(), o.Backend, o.Path, o.config(e.root))
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
// reuse by callers that already hold a joined context. The sets are
// the interval records' cluster sets: the build fills every record on
// a pool of min(GOMAXPROCS, m) workers, each build sequential inside,
// and keeps a record that ClustersAt or a push already built. Each
// worker keeps one intervalBuilder from interval to interval, so its
// scratch is allocated once per stage, not per interval. A cluster-set
// session's sets are primed at Open, so only a corpus session builds
// them here.
func (e *Engine) clusters(ctx context.Context, st *engineState) ([][]Cluster, error) {
	return st.sets.Get(ctx, func() ([][]Cluster, error) {
		defer e.stage(ctx, "clusters")()
		m := len(st.ivs)
		workers := max(1, min(runtime.GOMAXPROCS(0), m))
		sets := make([][]Cluster, m)
		bs := make([]intervalBuilder, workers)
		if err := par.ForEachWorkerCtx(ctx, m, workers, func(w, i int) (err error) {
			rec := st.ivs[i]
			sets[i], err = rec.clusters.Get(ctx, func() ([]Cluster, error) {
				return bs[w].clusters(ctx, rec.toks, i, e.cfg.cluster)
			})
			return err
		}); err != nil {
			return nil, err
		}
		return sets, nil
	})
}

// ClustersAt returns the cluster set of one interval from the
// interval's record, built for just that interval on first use — a
// single-day query (Refine, blogscope's report, streaming's day-by-day
// pushes) never pays for the whole corpus. The record is the only
// place an interval's clusters are built: Clusters fills the records
// ClustersAt left unbuilt and returns the ones it built, so both see
// the same slices; intervals are immutable once pushed, so the record
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
// internal reuse by callers that already hold a joined context: it
// fills one record on a fresh intervalBuilder.
func (e *Engine) clustersAt(ctx context.Context, st *engineState, interval int) ([]Cluster, error) {
	if interval < 0 || interval >= len(st.ivs) {
		return nil, fmt.Errorf("blogclusters: interval %d outside [0,%d): %w", interval, len(st.ivs), ErrInvalidQuery)
	}
	rec := st.ivs[interval]
	return rec.clusters.Get(ctx, func() ([]Cluster, error) {
		defer e.stage(ctx, "interval-clusters")()
		return new(intervalBuilder).clusters(ctx, rec.toks, interval, e.cfg.cluster)
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
	if e.noCorpus {
		return nil, ErrNoCorpus
	}
	if interval < 0 || interval >= len(st.ivs) {
		return nil, fmt.Errorf("blogclusters: interval %d outside corpus (%d intervals): %w", interval, len(st.ivs), ErrInvalidQuery)
	}
	rec := st.ivs[interval]
	return rec.kwGraph.Get(ctx, func() (*cooccur.Graph, error) {
		defer e.stage(ctx, "kwgraph")()
		// Keep every significant, positively correlated pair.
		return cooccur.BuildPrunedTokens(ctx, rec.toks, stats.ChiSquared95, 0)
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

// buildClusterGraphCtx is the Engine's graph stage.
func buildClusterGraphCtx(ctx context.Context, sets [][]Cluster, opts GraphOptions) (*ClusterGraph, error) {
	return clustergraph.FromClustersCtx(ctx, sets, clustergraph.FromClustersOptions{Gap: opts.Gap, Theta: opts.Theta})
}
