package blogclusters

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"runtime"

	"repro/internal/clustergraph"
	"repro/internal/cooccur"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/diskstore"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/stats"
)

// Engine is the stateful, session-oriented entry point to the whole
// pipeline — the shape of the paper's BlogScope system, which loads a
// corpus once and answers many analysis queries over it. Open loads
// (or generates) the corpus; every stage artifact downstream of it —
// the keyword index, the per-interval cluster sets, the cluster
// graph(s), the per-interval keyword graphs and the burst totals — is
// materialized lazily on first use, memoized, and shared by all
// subsequent queries. Builds are single-flight: concurrent first
// queries wait for one build instead of duplicating it, and
// EngineStats counts exactly how many times each stage ran.
//
// The session is LIVE: Push appends one new interval, extending the
// index with a delta segment and every memoized artifact incrementally
// — the new interval's clusters are built, cached cluster graphs grow
// by one interval, burst totals gain one entry — never by rebuilding
// from scratch. Each Push advances a monotonic generation
// (Engine.Generation); artifacts belong to the generation they were
// built under, and queries always see a consistent generation snapshot
// because the whole snapshot is swapped atomically.
//
// All methods are safe for concurrent use. Every query takes a
// context; cancellation propagates into the long-running internals
// (worker pools, external sort merges, the solvers, disk segment
// builds), which poll it at their loop boundaries. Closing the Engine
// cancels in-flight builds and releases the index backend.
type Engine struct {
	cfg engineConfig

	// state is the current generation's snapshot: the corpus and every
	// generation-scoped artifact memo. Push builds a successor snapshot
	// and swaps the pointer; in-flight queries keep the snapshot they
	// loaded, so they observe one generation end to end.
	state atomic.Pointer[engineState]
	// pushMu serializes Push (generations are a total order).
	pushMu sync.Mutex

	// root is canceled by Close; every query context is joined with it.
	root context.Context
	stop context.CancelFunc
	// closeMu orders Close against index-build completion: builds
	// register their store under it before returning, so either Close
	// sees the store and releases it, or the builder sees closed and
	// releases it itself — a store can never slip through the gap.
	closeMu      sync.Mutex
	closed       bool
	ownedReaders []IndexReader

	// intervalSets memoizes single-interval cluster sets. Intervals are
	// immutable once pushed, so this cache is generation-independent and
	// lives on the Engine, shared by every snapshot.
	intervalMu   sync.Mutex
	intervalSets map[int]*memo[[]Cluster]
	// kwGraphs memoizes per-interval keyword graphs — also
	// generation-independent (each belongs to one immutable interval).
	kwMu     sync.Mutex
	kwGraphs map[int]*memo[*KeywordGraph]

	// solveMu guards solves, the per-algorithm accounting of completed
	// solves.
	solveMu sync.Mutex
	solves  plan.Stats

	queries     atomic.Int64
	pushes      atomic.Int64
	compactions atomic.Int64
	timings     stageTimings
	// compacting gates the background fold (at most one in flight);
	// compactWG lets Close wait it out.
	compacting atomic.Bool
	compactWG  sync.WaitGroup
}

// engineState is one generation's snapshot. Everything here is either
// immutable or a single-flight memo; Push never mutates a published
// snapshot — it builds the next one and swaps the Engine's pointer.
type engineState struct {
	gen int64
	col *corpus.Collection // nil for cluster-set sources

	index  *memo[*index.Store]
	sets   *memo[[][]Cluster]
	totals *memo[[]int64]

	graphsMu sync.Mutex
	graphs   map[GraphOptions]*memo[*ClusterGraph]
}

func newEngineState(gen int64, col *corpus.Collection) *engineState {
	return &engineState{
		gen:    gen,
		col:    col,
		index:  &memo[*index.Store]{},
		sets:   &memo[[][]Cluster]{},
		totals: &memo[[]int64]{},
		graphs: map[GraphOptions]*memo[*ClusterGraph]{},
	}
}

// engineConfig is the resolved option set of one Engine.
type engineConfig struct {
	cluster  ClusterOptions
	graph    GraphOptions
	index    IndexOptions
	progress func(StageEvent)
}

// Option configures an Engine at Open time.
type Option func(*engineConfig)

// WithClusterOptions sets the Section 3 pipeline options used when the
// per-interval cluster sets are materialized.
func WithClusterOptions(o ClusterOptions) Option {
	return func(c *engineConfig) { c.cluster = o }
}

// WithGraphOptions sets the default cluster-graph options. Queries use
// the graph built with these options unless they ask for an explicit
// variant via GraphWith/StableClustersOn.
func WithGraphOptions(o GraphOptions) Option {
	return func(c *engineConfig) { c.graph = o }
}

// WithIndexOptions selects and configures the keyword-index backend
// materialized by index-backed queries (Search, TimeSeries, Bursts)
// and grown by Push.
func WithIndexOptions(o IndexOptions) Option {
	return func(c *engineConfig) { c.index = o }
}

// WithProgress registers a hook invoked at the start and end of every
// stage build (corpus load, index, clusters, graph, keyword graph) and
// of every ingest transition ("push", "graph-extend", "compact") —
// this is the Watch channel for live sessions: a monitor receives the
// push-started event, the per-artifact extension events and the
// push-finished event carrying the new generation. The hook must be
// safe for concurrent use; it is called on the goroutine running the
// build.
func WithProgress(fn func(StageEvent)) Option {
	return func(c *engineConfig) { c.progress = fn }
}

// StageEvent describes one stage-build transition for progress hooks.
type StageEvent struct {
	// Stage names the artifact: "corpus", "index", "clusters", "graph",
	// "kwgraph", "totals", "interval-clusters" — or the ingest
	// transitions "push", "graph-extend" and "compact".
	Stage string
	// Done is false for the build-started event, true for the finished
	// one.
	Done bool
	// Duration is the build's wall-clock time (finished events only).
	Duration time.Duration
	// Err is the build error, if any (finished events only).
	Err error
	// Generation is the engine generation the event was emitted under;
	// a finished "push" event carries the NEW generation.
	Generation int64
}

// Source names where an Engine's corpus comes from. Construct one with
// FromCollection, FromJSONL, FromJSONLFile, FromGenerator or
// FromClusterSets.
type Source struct {
	col    *corpus.Collection
	reader io.Reader
	path   string
	gen    *CorpusConfig
	sets   [][]Cluster
}

// FromCollection serves an already-loaded collection. The Engine does
// not copy it; the caller must not mutate it afterwards.
func FromCollection(c *Collection) Source { return Source{col: c} }

// FromJSONL reads a JSONL document stream at Open time.
func FromJSONL(r io.Reader) Source { return Source{reader: r} }

// FromJSONLFile opens and reads a JSONL corpus file at Open time.
func FromJSONLFile(path string) Source { return Source{path: path} }

// FromGenerator synthesizes a corpus at Open time (the BlogScope-data
// substitution; see DESIGN.md).
func FromGenerator(cfg CorpusConfig) Source { return Source{gen: &cfg} }

// FromClusterSets starts the session at the Section 4 boundary:
// per-interval cluster sets stand in for the corpus, so graph- and
// path-level queries work while corpus-backed ones (Search,
// TimeSeries, Bursts, Correlations, Push) return ErrNoCorpus. This is
// the saved-clusters workflow of cmd/blogstable.
func FromClusterSets(sets [][]Cluster) Source { return Source{sets: sets} }

// ErrNoCorpus is returned by corpus-backed queries on an Engine opened
// from cluster sets alone.
var ErrNoCorpus = errors.New("blogclusters: engine opened from cluster sets; no corpus available")

// ErrEngineClosed is returned by queries issued after Close.
var ErrEngineClosed = errors.New("blogclusters: engine is closed")

// ErrOutOfOrderInterval is returned by Push when the interval's index
// is not exactly the next one: intervals are an append-only temporal
// sequence, so interval m can only arrive once intervals 0..m-1 are
// in.
var ErrOutOfOrderInterval = errors.New("blogclusters: pushed interval is not the next interval")

// ErrMalformedInterval is returned by Push for intervals that fail
// validation: a document claiming a different interval, a negative or
// duplicate document id, or a keyword with NUL/newline bytes (which
// the disk segment encoding forbids).
var ErrMalformedInterval = errors.New("blogclusters: malformed interval")

// ErrInvalidQuery marks query-validation failures — an interval
// outside the corpus, a query term with no analyzable keyword, an
// unknown solver algorithm. It is the solver core's sentinel, so a
// validation failure raised anywhere between the HTTP layer's
// QuerySpec parsing and a solver's Request check matches the same
// errors.Is test; callers serving remote clients (internal/server)
// map it to a client error (400) instead of sniffing message text.
var ErrInvalidQuery = core.ErrInvalidRequest

// Open starts a session: the corpus is loaded (or generated)
// immediately; everything downstream is built lazily by the first
// query that needs it. Close the Engine when done.
func Open(ctx context.Context, src Source, opts ...Option) (*Engine, error) {
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine{
		cfg:          cfg,
		intervalSets: map[int]*memo[[]Cluster]{},
		kwGraphs:     map[int]*memo[*KeywordGraph]{},
	}
	e.root, e.stop = context.WithCancel(context.Background())

	if src.sets != nil {
		st := newEngineState(1, nil)
		st.sets.prime(src.sets)
		e.state.Store(st)
		return e, nil
	}
	start := time.Now()
	e.emit(StageEvent{Stage: "corpus"})
	col, err := loadSource(ctx, src)
	e.emit(StageEvent{Stage: "corpus", Done: true, Duration: time.Since(start), Err: err})
	if err != nil {
		e.stop()
		return nil, err
	}
	e.state.Store(newEngineState(1, col))
	e.timings.record("corpus", time.Since(start))
	return e, nil
}

func loadSource(ctx context.Context, src Source) (*corpus.Collection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch {
	case src.col != nil:
		return src.col, nil
	case src.reader != nil:
		return corpus.ReadJSONL(src.reader)
	case src.path != "":
		f, err := os.Open(src.path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		col, err := corpus.ReadJSONL(f)
		if err != nil {
			return nil, fmt.Errorf("blogclusters: read %s: %w", src.path, err)
		}
		return col, nil
	case src.gen != nil:
		return corpus.Generate(*src.gen)
	default:
		return nil, errors.New("blogclusters: empty Source (use FromCollection, FromJSONL, FromJSONLFile, FromGenerator or FromClusterSets)")
	}
}

// Close cancels in-flight builds, waits out a background compaction,
// releases the index backend (removing temporary disk segments, if
// built) and marks the Engine closed. Close is idempotent; queries
// issued afterwards return ErrEngineClosed.
func (e *Engine) Close() error {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		return nil
	}
	e.closed = true
	e.stop()
	readers := e.ownedReaders
	e.ownedReaders = nil
	e.closeMu.Unlock()
	// The fold goroutine may be blocked inside the store; root is
	// canceled so it unwinds promptly, and waiting outside closeMu
	// avoids deadlocking against anything it still needs.
	e.compactWG.Wait()
	var first error
	for _, r := range readers {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Collection returns the corpus of the current generation (nil for
// cluster-set sources). Callers must treat it as read-only; Push
// publishes a grown snapshot rather than mutating this one.
func (e *Engine) Collection() *Collection { return e.state.Load().col }

// Generation returns the monotonic ingest generation: 1 at Open
// (leaving 0 to mean "no session" for monitors), incremented by every
// successful Push. Response caches key dependent entries by it.
func (e *Engine) Generation() int64 { return e.state.Load().gen }

// NumIntervals returns the current corpus width (the number of
// intervals in this generation). For cluster-set sessions it is the
// number of cluster sets.
func (e *Engine) NumIntervals() int { return numIntervals(e.state.Load()) }

func numIntervals(st *engineState) int {
	if st.col != nil {
		return len(st.col.Intervals)
	}
	if sets, ok := st.sets.cached(); ok {
		return len(sets)
	}
	return 0
}

// queryCtx joins the caller's context with the Engine's lifetime, so
// either cancels the work. The returned cancel must always be called.
func (e *Engine) queryCtx(ctx context.Context) (context.Context, context.CancelFunc, error) {
	if err := e.root.Err(); err != nil {
		return nil, nil, ErrEngineClosed
	}
	e.queries.Add(1)
	jctx, cancel := context.WithCancel(ctx)
	unlink := context.AfterFunc(e.root, cancel)
	return jctx, func() { unlink(); cancel() }, nil
}

// --- live ingest ---

// Push appends one interval to the session and returns the new
// generation. The interval must be the next one (iv.Index ==
// len(Collection().Intervals), else ErrOutOfOrderInterval) and
// well-formed (ErrMalformedInterval otherwise). Materialized artifacts
// are extended incrementally for the new interval only: the index
// gains a delta segment, cached cluster graphs grow by one interval
// via clustergraph.ExtendCtx, burst totals gain one entry — a push
// never rebuilds a full-corpus artifact (EngineStats.Stages build
// counters prove it). Unbuilt artifacts simply stay unbuilt; their
// first use after the push sees the grown corpus.
//
// Normalized-affinity cluster graphs are the one exception: their
// weights were rescaled by a maximum the new interval may change, so
// they are dropped from the new generation and lazily rebuilt.
//
// Pushes are serialized; queries keep running against the previous
// generation's snapshot until the swap and are never blocked.
func (e *Engine) Push(ctx context.Context, iv Interval) (int64, error) {
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return 0, err
	}
	defer cancel()
	e.pushMu.Lock()
	defer e.pushMu.Unlock()

	cur := e.state.Load()
	if cur.col == nil {
		return 0, ErrNoCorpus
	}
	next := len(cur.col.Intervals)
	if iv.Index != next {
		return 0, fmt.Errorf("blogclusters: pushed interval %d, engine expects %d: %w", iv.Index, next, ErrOutOfOrderInterval)
	}
	if err := validateInterval(iv); err != nil {
		return 0, err
	}
	e.emit(StageEvent{Stage: "push", Generation: cur.gen})
	start := time.Now()
	newGen, err := e.push(ctx, cur, iv)
	e.emit(StageEvent{Stage: "push", Done: true, Duration: time.Since(start), Err: err, Generation: newGen})
	obs.RecorderFrom(ctx).Record("push", start, err)
	if err != nil {
		return 0, err
	}
	e.timings.record("push", time.Since(start))
	e.pushes.Add(1)
	return newGen, nil
}

// push does the work of Push after validation: build the next
// snapshot's artifacts from the current one, push the index delta
// (the only mutation shared with the current generation — done last,
// so a failed push leaves the session exactly as it was), then swap.
func (e *Engine) push(ctx context.Context, cur *engineState, iv Interval) (int64, error) {
	next := iv.Index
	newCol := &corpus.Collection{Intervals: append(cur.col.Intervals[:next:next], iv)}
	st := newEngineState(cur.gen+1, newCol)

	// Extend the cluster sets (and everything downstream of them) only
	// if they are materialized; an unbuilt artifact stays lazy.
	var newSets [][]Cluster
	setsBuilt := false
	if sets, ok := cur.sets.cached(); ok {
		setsBuilt = true
		var ivSet []Cluster
		var err error
		func() {
			defer e.stage(ctx, "interval-clusters")()
			ivSet, err = intervalClustersCtx(ctx, newCol, next, e.cfg.cluster)
		}()
		if err != nil {
			return 0, err
		}
		newSets = append(sets[:len(sets):len(sets)], ivSet)
		st.sets.prime(newSets)
	}

	// Grow each cached cluster graph by the new interval. Normalized
	// graphs cannot extend (their old weights were already rescaled);
	// they are dropped and lazily rebuilt on next use.
	if setsBuilt {
		cur.graphsMu.Lock()
		cached := make(map[GraphOptions]*ClusterGraph, len(cur.graphs))
		for opts, m := range cur.graphs {
			if g, ok := m.cached(); ok {
				cached[opts] = g
			}
		}
		cur.graphsMu.Unlock()
		for opts, g := range cached {
			aff, normalize, err := resolveAffinity(opts)
			if err != nil || normalize {
				continue
			}
			var ng *ClusterGraph
			func() {
				defer e.stage(ctx, "graph-extend")()
				ng, err = clustergraph.ExtendCtx(ctx, g, newSets, clustergraph.FromClustersOptions{
					Gap:        opts.Gap,
					Theta:      opts.Theta,
					Affinity:   aff,
					UseSimJoin: opts.UseSimJoin,
				})
			}()
			if err != nil {
				return 0, err
			}
			m := &memo[*ClusterGraph]{}
			m.prime(ng)
			st.graphs[opts] = m
		}
	}

	if totals, ok := cur.totals.cached(); ok {
		st.totals.prime(append(totals[:len(totals):len(totals)], int64(len(iv.Docs))))
	}

	// The index store is shared across generations (it is the mutable
	// segment set itself), so pushing into it is the point of no
	// return: do it last.
	if store, ok := cur.index.cached(); ok {
		if err := store.Push(ctx, iv); err != nil {
			return 0, err
		}
		st.index.prime(store)
		e.maybeCompact(store)
	}

	e.state.Store(st)

	// The new interval's single-interval cluster set is now immutable;
	// seed the shared cache so ClustersAt(next) is free. (Only after
	// the swap — a failed push must leave no trace of its docs.)
	if setsBuilt {
		e.intervalMu.Lock()
		if _, ok := e.intervalSets[next]; !ok {
			m := &memo[[]Cluster]{}
			m.prime(newSets[next])
			e.intervalSets[next] = m
		}
		e.intervalMu.Unlock()
	}
	return st.gen, nil
}

// maybeCompact starts the background fold when the delta count crosses
// the policy threshold and no fold is already running.
func (e *Engine) maybeCompact(store *index.Store) {
	if !store.NeedsCompaction() || !e.compacting.CompareAndSwap(false, true) {
		return
	}
	e.compactWG.Add(1)
	go func() {
		defer e.compactWG.Done()
		defer e.compacting.Store(false)
		start := time.Now()
		e.emit(StageEvent{Stage: "compact", Generation: e.Generation()})
		err := store.Compact(e.root)
		e.emit(StageEvent{Stage: "compact", Done: true, Duration: time.Since(start), Err: err, Generation: e.Generation()})
		if err == nil {
			e.timings.record("compact", time.Since(start))
			e.compactions.Add(1)
		}
	}()
}

// validateInterval rejects malformed pushes before any state changes.
func validateInterval(iv Interval) error {
	seen := make(map[int64]struct{}, len(iv.Docs))
	for _, d := range iv.Docs {
		if d.Interval != iv.Index {
			return fmt.Errorf("blogclusters: document %d claims interval %d, pushed as %d: %w", d.ID, d.Interval, iv.Index, ErrMalformedInterval)
		}
		if d.ID < 0 {
			return fmt.Errorf("blogclusters: document id %d is negative: %w", d.ID, ErrMalformedInterval)
		}
		if _, dup := seen[d.ID]; dup {
			return fmt.Errorf("blogclusters: duplicate document id %d: %w", d.ID, ErrMalformedInterval)
		}
		seen[d.ID] = struct{}{}
		for _, w := range d.Keywords {
			if strings.ContainsAny(w, "\x00\n") {
				return fmt.Errorf("blogclusters: document %d keyword %q contains NUL or newline: %w", d.ID, w, ErrMalformedInterval)
			}
		}
	}
	return nil
}

// --- stage artifacts ---

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
	return st.index.get(ctx, func() (*index.Store, error) {
		defer e.stage(ctx, "index")()
		// e.root (the session lifetime) bounds the disk backend's retry
		// backoff sleeps: the store outlives this query's context.
		s, err := openIndexStoreCtx(ctx, e.root, st.col, e.cfg.index)
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
// reuse by callers that already hold a joined context.
func (e *Engine) clusters(ctx context.Context, st *engineState) ([][]Cluster, error) {
	return st.sets.get(ctx, func() ([][]Cluster, error) {
		if st.col == nil {
			return nil, ErrNoCorpus
		}
		defer e.stage(ctx, "clusters")()
		return allIntervalClustersCtx(ctx, st.col, e.cfg.cluster)
	})
}

// ClustersAt returns the cluster set of one interval. When the full
// sets are already materialized (Clusters ran, or the session was
// opened from cluster sets) it answers from them; otherwise it builds
// and memoizes just that interval — a single-day query (Refine,
// blogscope's report, streaming's day-by-day pushes) never pays for
// the whole corpus. The per-interval build is canonical, so mixing
// ClustersAt with a later Clusters yields identical slices; intervals
// are immutable once pushed, so the per-interval cache survives
// generations.
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
	if sets, ok := st.sets.cached(); ok {
		if interval < 0 || interval >= len(sets) {
			return nil, fmt.Errorf("blogclusters: interval %d outside [0,%d): %w", interval, len(sets), ErrInvalidQuery)
		}
		return sets[interval], nil
	}
	if st.col == nil {
		return nil, ErrNoCorpus
	}
	if interval < 0 || interval >= len(st.col.Intervals) {
		return nil, fmt.Errorf("blogclusters: interval %d outside [0,%d): %w", interval, len(st.col.Intervals), ErrInvalidQuery)
	}
	e.intervalMu.Lock()
	m, ok := e.intervalSets[interval]
	if !ok {
		m = &memo[[]Cluster]{}
		e.intervalSets[interval] = m
	}
	e.intervalMu.Unlock()
	return m.get(ctx, func() ([]Cluster, error) {
		defer e.stage(ctx, "interval-clusters")()
		return intervalClustersCtx(ctx, st.col, interval, e.cfg.cluster)
	})
}

// ClusterSets returns the cluster sets of the intervals in [from, to),
// one slice per interval in order. Like ClustersAt it answers from the
// materialized full sets when available and builds (and memoizes) only
// the requested intervals otherwise, so a shard coordinator gathering a
// boundary window never pays for the whole corpus. The returned slices
// are shared with the session's memos; callers must not mutate them.
func (e *Engine) ClusterSets(ctx context.Context, from, to int) ([][]Cluster, error) {
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	st := e.state.Load()
	n := numIntervals(st)
	if from < 0 || to < from || to > n {
		return nil, fmt.Errorf("blogclusters: interval range [%d,%d) outside [0,%d]: %w", from, to, n, ErrInvalidQuery)
	}
	if sets, ok := st.sets.cached(); ok {
		return sets[from:to:to], nil
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

// DocTotals returns the per-interval document totals of the current
// generation — the denominators the burst detector divides by, and the
// series a shard coordinator concatenates to run burst detection
// globally. Computed from the keyword index (and memoized per
// generation) so it agrees exactly with Bursts.
func (e *Engine) DocTotals(ctx context.Context) ([]int64, error) {
	st := e.state.Load()
	if st.col == nil {
		return nil, ErrNoCorpus
	}
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	return e.docTotals(ctx, st)
}

// Graph materializes (once per generation) and returns the cluster
// graph built with the session's default GraphOptions.
func (e *Engine) Graph(ctx context.Context) (*ClusterGraph, error) {
	return e.GraphWith(ctx, e.cfg.graph)
}

// GraphWith returns the cluster graph for an explicit option set,
// memoized per distinct options — sessions that study several gaps or
// affinities (see examples/newsweek) share one cluster-set build
// across all of them. After a Push, graphs that were materialized are
// already extended in the new generation; ones that were not follow
// the usual lazy path over the grown corpus.
func (e *Engine) GraphWith(ctx context.Context, opts GraphOptions) (*ClusterGraph, error) {
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	st := e.state.Load()
	return e.graphWith(ctx, st, opts)
}

func (e *Engine) graphWith(ctx context.Context, st *engineState, opts GraphOptions) (*ClusterGraph, error) {
	st.graphsMu.Lock()
	m, ok := st.graphs[opts]
	if !ok {
		m = &memo[*ClusterGraph]{}
		st.graphs[opts] = m
	}
	st.graphsMu.Unlock()
	return m.get(ctx, func() (*ClusterGraph, error) {
		sets, err := e.clusters(ctx, st)
		if err != nil {
			return nil, err
		}
		defer e.stage(ctx, "graph")()
		return buildClusterGraphCtx(ctx, sets, opts)
	})
}

// kwGraph memoizes the χ²-annotated, significance-pruned keyword graph
// of one interval (the substrate of Correlations). Intervals are
// immutable, so the cache is shared across generations.
func (e *Engine) kwGraph(ctx context.Context, st *engineState, interval int) (*KeywordGraph, error) {
	if st.col == nil {
		return nil, ErrNoCorpus
	}
	if interval < 0 || interval >= len(st.col.Intervals) {
		return nil, fmt.Errorf("blogclusters: interval %d outside corpus (%d intervals): %w", interval, len(st.col.Intervals), ErrInvalidQuery)
	}
	e.kwMu.Lock()
	m, ok := e.kwGraphs[interval]
	if !ok {
		m = &memo[*KeywordGraph]{}
		e.kwGraphs[interval] = m
	}
	e.kwMu.Unlock()
	return m.get(ctx, func() (*KeywordGraph, error) {
		defer e.stage(ctx, "kwgraph")()
		kg, err := cooccur.BuildCtx(ctx, st.col, interval, interval, cooccur.BuildOptions{
			MinPairCount: e.cfg.cluster.MinPairCount,
			MemBudget:    e.cfg.cluster.MemBudget,
		})
		if err != nil {
			return nil, err
		}
		kg.AnnotateStats()
		pruned := kg.Prune(stats.ChiSquared95, 0) // keep all significant pairs
		return pruned, nil
	})
}

// docTotals memoizes the per-interval document totals the burst
// detector divides by, so repeated Bursts calls stop rebuilding the
// slice from the reader.
func (e *Engine) docTotals(ctx context.Context, st *engineState) ([]int64, error) {
	return st.totals.get(ctx, func() ([]int64, error) {
		r, err := e.indexStore(ctx, st)
		if err != nil {
			return nil, err
		}
		defer e.stage(ctx, "totals")()
		return intervalTotals(r), nil
	})
}

// --- queries ---

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
// the session's default cluster graph. It is the one dispatch path for
// all three query variants (topk, normalized, diverse): the spec is
// normalized and validated once — which also resolves "auto" to the
// variant's default solver — and handed to the solver it names. The
// StableClusters wrappers and the HTTP layer both route here.
func (e *Engine) Solve(ctx context.Context, spec QuerySpec) (*Result, error) {
	return e.SolveOn(ctx, e.cfg.graph, spec)
}

// SolveOn is Solve over the graph built with an explicit option set
// (memoized like GraphWith).
func (e *Engine) SolveOn(ctx context.Context, gopts GraphOptions, spec QuerySpec) (*Result, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g, err := e.GraphWith(ctx, gopts)
	if err != nil {
		return nil, err
	}
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()

	req := spec.Request()
	start := time.Now()
	var res *Result
	if spec.Variant == plan.VariantDiverse {
		var mode DiversityMode
		if mode, err = core.ParseDiversityMode(spec.Mode); err == nil {
			res, err = core.DiverseKL(ctx, g, req, mode, 0)
		}
	} else {
		res, err = core.Solve(ctx, g, req)
	}
	// Failed and cancelled solves get their span too: the solve that hit
	// its deadline is the one an operator traces.
	obs.RecorderFrom(ctx).Record("solve:"+req.Algorithm, start, err)
	if err != nil {
		return nil, err
	}
	e.solveMu.Lock()
	e.solves.RecordSolve(req.Algorithm, time.Since(start).Nanoseconds(), res.Stats)
	e.solveMu.Unlock()
	return res, nil
}

// StableClusters answers Problem 1 (top-k highest-weight paths of
// temporal length l) over the session's default cluster graph.
// Algorithm is "auto" (or "") for the default solver, or one of
// "bfs", "dfs", "ta", "brute" to name one.
func (e *Engine) StableClusters(ctx context.Context, algorithm string, k, l int) (*Result, error) {
	return e.StableClustersOn(ctx, e.cfg.graph, algorithm, k, l)
}

// StableClustersOn is StableClusters over the graph built with an
// explicit option set (memoized like GraphWith).
func (e *Engine) StableClustersOn(ctx context.Context, gopts GraphOptions, algorithm string, k, l int) (*Result, error) {
	return e.SolveOn(ctx, gopts, QuerySpec{Algorithm: algorithm, K: k, L: l})
}

// NormalizedStableClusters answers Problem 2: the top-k paths of
// length at least lmin by stability (weight/length), over the default
// graph. The Weight field of returned paths holds the stability.
func (e *Engine) NormalizedStableClusters(ctx context.Context, k, lmin int) (*Result, error) {
	return e.Solve(ctx, QuerySpec{Variant: plan.VariantNormalized, K: k, LMin: lmin})
}

// DiverseStableClusters answers the constrained kl-variant: top-k
// paths that do not share prefixes/suffixes/endpoints per mode.
func (e *Engine) DiverseStableClusters(ctx context.Context, k, l int, mode DiversityMode) (*Result, error) {
	return e.Solve(ctx, QuerySpec{Variant: plan.VariantDiverse, K: k, L: l, Mode: mode.String()})
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
// two-state automaton over its document-frequency trajectory). The
// per-interval totals are computed once per generation and shared by
// every call.
func (e *Engine) Bursts(ctx context.Context, keyword string) ([]KeywordBurst, error) {
	kw, err := analyzed(keyword)
	if err != nil {
		return nil, err
	}
	st := e.state.Load()
	if st.col == nil {
		return nil, ErrNoCorpus
	}
	ctx, cancel, err := e.queryCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	r, err := e.indexStore(ctx, st)
	if err != nil {
		return nil, err
	}
	totals, err := e.docTotals(ctx, st)
	if err != nil {
		return nil, err
	}
	counts, err := r.TimeSeries(kw)
	if err != nil {
		return nil, err
	}
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
// analyzable keyword are rejected).
func (e *Engine) Search(ctx context.Context, terms []string, interval int) ([]int64, error) {
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

// Refine answers the introduction's query-refinement use case: the
// other keywords of the interval cluster containing the (analyzed)
// query keyword, or nil when the keyword is unclustered.
func (e *Engine) Refine(ctx context.Context, query string, interval int) ([]string, error) {
	cs, err := e.ClustersAt(ctx, interval)
	if err != nil {
		return nil, err
	}
	return RefineQuery(cs, query), nil
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
// resolving cluster contents through the session's default graph. Node
// ids outside the graph fail with ErrInvalidQuery (they identify no
// cluster), so remote callers get a client error instead of a panic.
func (e *Engine) Describe(ctx context.Context, p Path) (string, error) {
	g, err := e.Graph(ctx)
	if err != nil {
		return "", err
	}
	for _, id := range p.Nodes {
		if id < 0 || id >= int64(g.NumNodes()) {
			return "", fmt.Errorf("blogclusters: node %d outside graph [0,%d): %w", id, g.NumNodes(), ErrInvalidQuery)
		}
	}
	return DescribePath(g, p), nil
}

// --- observability ---

// StageTiming is one stage's build accounting.
//
// The JSON field names are pinned by TestEngineStatsJSON: external
// consumers (the serving layer's /debug/stats, dashboards scraping it)
// parse them, so renames are breaking changes. Total marshals as
// "total_ns" to make the nanosecond unit explicit on the wire.
type StageTiming struct {
	// Builds counts completed builds of the stage ("clusters" and
	// "index" build at most once per generation lineage; "graph" and
	// "kwgraph" once per distinct option set / interval;
	// "interval-clusters", "graph-extend", "push" and "compact" count
	// ingest work).
	Builds int64 `json:"builds"`
	// Total is the cumulative wall-clock build time.
	Total time.Duration `json:"total_ns"`
}

// EngineStats is a point-in-time snapshot of the session's work.
//
// Marshals to stable JSON (field names pinned by TestEngineStatsJSON):
// this is the payload /debug/stats serves.
type EngineStats struct {
	// Generation is the ingest generation (0 at Open, +1 per Push).
	Generation int64 `json:"generation"`
	// Intervals is the current corpus width (0 for cluster-set
	// sessions before any artifacts are queried).
	Intervals int `json:"intervals"`
	// Queries counts Engine query/artifact calls issued.
	Queries int64 `json:"queries"`
	// Pushes counts successful Push calls.
	Pushes int64 `json:"pushes"`
	// Stages maps stage name → build accounting. Single-flight means
	// Stages["clusters"].Builds is 1 no matter how many goroutines
	// raced to first use — and stays 1 across pushes, which extend
	// instead of rebuilding.
	Stages map[string]StageTiming `json:"stages"`
	// IndexIO is the disk index backend's I/O counters (zero for the
	// mem backend or while the index is unbuilt).
	IndexIO diskstore.IOStats `json:"index_io"`
	// IndexCache is the disk index's block-cache accounting (zero for
	// the mem backend): residency in bytes plus hit/miss counters, the
	// source of the index_cache_* series on /metrics.
	IndexCache IndexCacheStats `json:"index_cache"`
	// IndexSegments is the live segment count (base + deltas; 0 while
	// the index is unbuilt).
	IndexSegments int `json:"index_segments"`
	// IndexCompactions counts completed background folds.
	IndexCompactions int64 `json:"index_compactions"`
	// Planner is the per-algorithm accounting of completed solves
	// (counts, wall-clock histograms and summed work counters). There is
	// no planner: the field and JSON key keep the name only because
	// bench/ reads Stats().Planner.ByAlgorithm and may not be edited;
	// the next benchmark issue renames it.
	Planner plan.Stats `json:"planner"`
}

// Stats snapshots the session counters.
func (e *Engine) Stats() EngineStats {
	st := e.state.Load()
	out := EngineStats{
		Generation:       st.gen,
		Queries:          e.queries.Load(),
		Pushes:           e.pushes.Load(),
		Stages:           e.timings.snapshot(),
		IndexCompactions: e.compactions.Load(),
	}
	e.solveMu.Lock()
	out.Planner.Merge(e.solves)
	e.solveMu.Unlock()
	if st.col != nil {
		out.Intervals = len(st.col.Intervals)
	}
	if s, ok := st.index.cached(); ok {
		out.IndexIO = s.Stats()
		out.IndexSegments = s.NumSegments()
		hits, misses, bytes := s.CacheStats()
		out.IndexCache = IndexCacheStats{Hits: hits, Misses: misses, Bytes: bytes}
	}
	return out
}

// IndexCacheStats is the disk index's block-cache snapshot inside
// EngineStats (field names pinned by TestEngineStatsJSON).
type IndexCacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Bytes  int64 `json:"bytes"`
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

// stageTimings aggregates per-stage build counters under one lock.
type stageTimings struct {
	mu sync.Mutex
	m  map[string]StageTiming
}

func (t *stageTimings) record(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = map[string]StageTiming{}
	}
	st := t.m[name]
	st.Builds++
	st.Total += d
	t.m[name] = st
}

func (t *stageTimings) snapshot() map[string]StageTiming {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]StageTiming, len(t.m))
	for k, v := range t.m {
		out[k] = v
	}
	return out
}

// --- single-flight memoization ---

// memo is a concurrency-safe, context-aware, single-flight lazy cell.
// The first caller runs the build on its own goroutine; concurrent
// callers block until it finishes and share the result. Only successful
// results are cached: a build that fails — cancellation, a transient
// I/O fault that outlived its retries, a full disk — leaves the cell
// empty, so the next query rebuilds instead of replaying a stale error
// forever. Failure must never poison memoization: one unlucky build
// turning every later query into its echo is exactly the availability
// bug the degradation layer exists to prevent.
type memo[T any] struct {
	mu       sync.Mutex
	done     bool
	val      T
	inflight chan struct{}
	builds   atomic.Int64 // builds started; the exactly-once assertions read this
}

// prime seeds the cell with a ready value (no build).
func (m *memo[T]) prime(v T) {
	m.mu.Lock()
	m.done, m.val = true, v
	m.mu.Unlock()
}

// cached returns the value if one is resident, without building.
func (m *memo[T]) cached() (T, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return m.val, true
	}
	var zero T
	return zero, false
}

// Builds reports how many builds were started.
func (m *memo[T]) Builds() int64 { return m.builds.Load() }

func (m *memo[T]) get(ctx context.Context, build func() (T, error)) (T, error) {
	var zero T
	for {
		m.mu.Lock()
		if m.done {
			v := m.val
			m.mu.Unlock()
			return v, nil
		}
		if ch := m.inflight; ch != nil {
			m.mu.Unlock()
			select {
			case <-ch:
				continue // re-check: done, or canceled build → retry
			case <-ctx.Done():
				return zero, ctx.Err()
			}
		}
		ch := make(chan struct{})
		m.inflight = ch
		m.builds.Add(1)
		m.mu.Unlock()

		v, err := build()
		m.mu.Lock()
		m.inflight = nil
		if err == nil {
			m.done, m.val = true, v
		}
		m.mu.Unlock()
		close(ch)
		return v, err
	}
}

// --- ctx-aware stage internals ---

// allIntervalClustersCtx builds every interval's cluster set — the
// Engine's cluster stage: whole interval builds run on a pool of
// min(GOMAXPROCS, m) workers, each build sequential inside and granted
// an equal share of the memory budget.
func allIntervalClustersCtx(ctx context.Context, c *Collection, opts ClusterOptions) ([][]Cluster, error) {
	m := len(c.Intervals)
	workers := max(1, min(runtime.GOMAXPROCS(0), m))
	budget := opts.MemBudget
	if budget <= 0 {
		budget = cooccur.DefaultMemBudget
	}
	opts.MemBudget = max(1, budget/workers)
	sets := make([][]Cluster, m)
	if err := par.ForEachCtx(ctx, m, workers, func(i int) error {
		var err error
		sets[i], err = intervalClustersCtx(ctx, c, i, opts)
		return err
	}); err != nil {
		return nil, err
	}
	return sets, nil
}

// buildClusterGraphCtx is the Engine's graph stage.
func buildClusterGraphCtx(ctx context.Context, sets [][]Cluster, opts GraphOptions) (*ClusterGraph, error) {
	aff, normalize, err := resolveAffinity(opts)
	if err != nil {
		return nil, err
	}
	return clustergraph.FromClustersCtx(ctx, sets, clustergraph.FromClustersOptions{
		Gap:        opts.Gap,
		Theta:      opts.Theta,
		Affinity:   aff,
		UseSimJoin: opts.UseSimJoin,
		Normalize:  normalize,
	})
}
