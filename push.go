package blogclusters

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/clustergraph"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/obs"
)

// Push appends one interval to the session and returns the new
// generation. The interval must be the next one (iv.Index ==
// NumIntervals(), else ErrOutOfOrderInterval) and well-formed
// (ErrMalformedInterval otherwise). It is tokenized once, and the
// session keeps its tokens, not iv's documents. Materialized artifacts
// are extended incrementally for the new interval only: built cluster
// sets gain the new interval's clusters, built in its record as
// ClustersAt builds them, and a cached cluster graph grows by that
// interval via clustergraph.ExtendCtx; the index gains a delta
// segment. A push never rebuilds a full-corpus artifact
// (EngineStats.Stages build counters prove it). Unbuilt artifacts
// simply stay unbuilt; their first use after the push sees the grown
// corpus.
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

	if e.noCorpus {
		return 0, ErrNoCorpus
	}
	cur := e.state.Load()
	next := len(cur.ivs)
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
	rec := new(ivMemo)
	func() {
		defer e.stage(ctx, "tokens")()
		rec.toks = corpus.Tokenize([]Interval{iv})
	}()
	st := newEngineState(cur.gen+1, append(cur.ivs[:next:next], rec))

	// Extend the cluster sets, and a cached graph downstream of them,
	// only if they are materialized; an unbuilt artifact stays lazy.
	if sets, ok := cur.sets.Cached(); ok {
		ivSet, err := e.clustersAt(ctx, st, next)
		if err != nil {
			return 0, err
		}
		newSets := append(sets[:len(sets):len(sets)], ivSet)
		st.sets.Prime(newSets)
		if g, ok := cur.graph.Cached(); ok {
			var ng *ClusterGraph
			func() {
				defer e.stage(ctx, "graph-extend")()
				opts := e.cfg.graph
				ng, err = clustergraph.ExtendCtx(ctx, g, newSets, clustergraph.FromClustersOptions{Gap: opts.Gap, Theta: opts.Theta})
			}()
			if err != nil {
				return 0, err
			}
			st.graph.Prime(ng)
		}
	}

	// The index is shared across generations (it is mutable itself),
	// so pushing into it is the point of no return: do it last.
	if idx, ok := cur.index.Cached(); ok {
		if err := idx.Push(ctx, next, rec.toks); err != nil {
			return 0, err
		}
		st.index.Prime(idx)
		e.maybeCompact(idx)
	}

	e.state.Store(st)
	return st.gen, nil
}

// maybeCompact starts the background fold of a disk store when the
// delta count crosses the policy threshold and no fold is already
// running; a mem index has nothing to fold.
func (e *Engine) maybeCompact(idx index.Live) {
	store, ok := idx.(*index.Store)
	if !ok || !store.NeedsCompaction() || !e.compacting.CompareAndSwap(false, true) {
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
