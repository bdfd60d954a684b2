package blogclusters

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cooccur"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/par"
)

// Engine is the stateful, session-oriented entry point to the whole
// pipeline — the shape of the paper's BlogScope system, which loads a
// corpus once and answers many analysis queries over it. Open loads
// (or generates) the corpus and tokenizes each interval once; the
// tokens are all the session keeps of the documents. Every stage
// artifact downstream of them — the keyword index, the per-interval
// cluster sets, the cluster graph and the per-interval keyword graphs —
// is materialized lazily on first use, memoized, and shared by all
// subsequent queries. Builds are single-flight: concurrent first
// queries wait for one build instead of duplicating it, and EngineStats
// counts exactly how many times each stage ran.
//
// The session is LIVE: Push appends one new interval, extending the
// index by that interval and every memoized artifact incrementally
// — the new interval's clusters are built and a cached cluster graph
// grows by one interval — never by rebuilding from scratch. Each Push
// advances a monotonic generation (Engine.Generation); artifacts belong
// to the generation they were built under, and queries always see a
// consistent generation snapshot because the whole snapshot is swapped
// atomically.
//
// All methods are safe for concurrent use. Every query takes a
// context; cancellation propagates into the long-running internals
// (worker pools, the keyword-graph row pass, the solvers, disk segment
// builds), which poll it at their loop boundaries. Closing the Engine
// cancels in-flight builds and releases the index backend.
type Engine struct {
	cfg engineConfig
	// noCorpus marks a session opened from cluster sets: it holds no
	// tokens, so corpus-backed queries and Push return ErrNoCorpus.
	noCorpus bool

	// state is the current generation's snapshot: the interval records
	// and every generation-scoped artifact memo. Push builds a successor
	// snapshot and swaps the pointer; in-flight queries keep the
	// snapshot they loaded, so they observe one generation end to end.
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

	// solveMu guards solves, the per-algorithm accounting of completed
	// solves.
	solveMu sync.Mutex
	solves  SolveStats

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

	index *par.Memo[index.Live]
	sets  *par.Memo[[][]Cluster]
	graph *par.Memo[*ClusterGraph]

	// ivs holds one record per interval. Intervals are immutable once
	// pushed, so every snapshot that contains an interval shares its
	// record; len(ivs) is the session's width.
	ivs []*ivMemo
}

// ivMemo is one interval's record: its tokens and the artifacts built
// from that interval alone.
type ivMemo struct {
	// toks is the interval's documents as tokens, set before the record
	// is published and never changed; nil in a cluster-set session.
	toks     *corpus.Tokens
	clusters par.Memo[[]Cluster]
	kwGraph  par.Memo[*cooccur.Graph]
}

func newEngineState(gen int64, ivs []*ivMemo) *engineState {
	return &engineState{
		gen:   gen,
		index: &par.Memo[index.Live]{},
		sets:  &par.Memo[[][]Cluster]{},
		graph: &par.Memo[*ClusterGraph]{},
		ivs:   ivs,
	}
}

// newRecords returns n empty interval records.
func newRecords(n int) []*ivMemo {
	ivs := make([]*ivMemo, n)
	for i := range ivs {
		ivs[i] = new(ivMemo)
	}
	return ivs
}

// tokens returns every interval's tokens, in interval order.
func (st *engineState) tokens() []*corpus.Tokens {
	toks := make([]*corpus.Tokens, len(st.ivs))
	for i, rec := range st.ivs {
		toks[i] = rec.toks
	}
	return toks
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

// WithGraphOptions sets the options of the one cluster graph the
// session serves. To study several gaps or affinities over one Section
// 3 build, open one FromClusterSets engine per option set over this
// engine's Clusters (see examples/newsweek).
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
	// "kwgraph", "interval-clusters" — or the ingest
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
// FromCollection, FromJSONLFile, FromGenerator or FromClusterSets.
type Source struct {
	col  *corpus.Collection
	path string
	gen  *CorpusConfig
	sets [][]Cluster
}

// FromCollection serves an already-loaded collection. Open tokenizes it
// and keeps only the tokens: the Engine does not hold the collection,
// so the caller may drop or reuse it once Open returns.
func FromCollection(c *Collection) Source { return Source{col: c} }

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
// the disk segment encoding forbids). Open returns it for a corpus
// with a misfiled document, one filed under an interval it does not
// claim.
var ErrMalformedInterval = errors.New("blogclusters: malformed interval")

// ErrInvalidQuery marks query-validation failures — an interval
// outside the corpus, a query term with no analyzable keyword, an
// unknown solver algorithm. It is the solver core's sentinel, so a
// validation failure raised anywhere between the HTTP layer's
// QuerySpec parsing and a solver's Request check matches the same
// errors.Is test; callers serving remote clients (internal/server)
// map it to a client error (400) instead of sniffing message text.
var ErrInvalidQuery = core.ErrInvalidRequest

// Open starts a session: the corpus is loaded (or generated) and
// tokenized immediately, each interval once (a "tokens" build) on a
// pool of min(GOMAXPROCS, m) workers; everything downstream is built
// lazily by the first query that needs it. Close the Engine when done.
// A GraphOptions.Theta outside (0, 1] fails Open with an error wrapping
// ErrInvalidQuery, a misfiled document with one wrapping
// ErrMalformedInterval.
func Open(ctx context.Context, src Source, opts ...Option) (*Engine, error) {
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.graph.validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg}
	e.root, e.stop = context.WithCancel(context.Background())

	if src.sets != nil {
		e.noCorpus = true
		st := newEngineState(1, newRecords(len(src.sets)))
		st.sets.Prime(src.sets)
		for i, cs := range src.sets {
			st.ivs[i].clusters.Prime(cs)
		}
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
	e.timings.record("corpus", time.Since(start))
	// The snapshot is stored before its records are filled only so the
	// "tokens" stage can read the generation: no caller sees e before
	// Open returns, after the pool has finished.
	st := newEngineState(1, newRecords(len(col.Intervals)))
	e.state.Store(st)
	if err := e.tokenizeAll(ctx, col, st.ivs); err != nil {
		e.stop()
		return nil, err
	}
	return e, nil
}

// tokenizeAll fills each interval record's tokens from c: a "tokens"
// build per interval, on a pool of min(GOMAXPROCS, m) workers with one
// Tokenizer each. A misfiled document fails it.
func (e *Engine) tokenizeAll(ctx context.Context, c *Collection, ivs []*ivMemo) error {
	m := len(c.Intervals)
	workers := max(1, min(runtime.GOMAXPROCS(0), m))
	tzs := make([]corpus.Tokenizer, workers)
	return par.ForEachWorkerCtx(ctx, m, workers, func(w, i int) (err error) {
		defer e.stage(ctx, "tokens")()
		if ivs[i].toks, err = tzs[w].Interval(c, i); err != nil {
			return fmt.Errorf("blogclusters: %w: %w", err, ErrMalformedInterval)
		}
		return nil
	})
}

func loadSource(ctx context.Context, src Source) (*corpus.Collection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch {
	case src.col != nil:
		return src.col, nil
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
		return nil, errors.New("blogclusters: empty Source (use FromCollection, FromJSONLFile, FromGenerator or FromClusterSets)")
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

// Generation returns the monotonic ingest generation: 1 at Open
// (leaving 0 to mean "no session" for monitors), incremented by every
// successful Push. Response caches key dependent entries by it.
func (e *Engine) Generation() int64 { return e.state.Load().gen }

// NumIntervals returns the current corpus width (the number of
// intervals in this generation). For cluster-set sessions it is the
// number of cluster sets.
func (e *Engine) NumIntervals() int { return len(e.state.Load().ivs) }

// admit counts one query, or fails with ErrEngineClosed after Close.
func (e *Engine) admit() error {
	if e.root.Err() != nil {
		return ErrEngineClosed
	}
	e.queries.Add(1)
	return nil
}

// queryCtx admits a query and joins the caller's context with the
// Engine's lifetime, so either cancels the work. The returned cancel
// must always be called.
func (e *Engine) queryCtx(ctx context.Context) (context.Context, context.CancelFunc, error) {
	if err := e.admit(); err != nil {
		return nil, nil, err
	}
	jctx, cancel := context.WithCancel(ctx)
	unlink := context.AfterFunc(e.root, cancel)
	return jctx, func() { unlink(); cancel() }, nil
}
