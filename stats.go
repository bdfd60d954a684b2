package blogclusters

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/diskstore"
)

// StageTiming is one stage's build accounting.
//
// The JSON field names are pinned by TestEngineStatsJSON: external
// consumers (the serving layer's /debug/stats, dashboards scraping it)
// parse them, so renames are breaking changes. Total marshals as
// "total_ns" to make the nanosecond unit explicit on the wire.
type StageTiming struct {
	// Builds counts completed builds of the stage ("clusters" and
	// "index" build at most once per generation lineage; "graph" once
	// per generation lineage and "kwgraph" once per interval;
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
	// Intervals is the current corpus width, NumIntervals: the number
	// of cluster sets for a cluster-set session.
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
	IndexCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Bytes  int64 `json:"bytes"`
	} `json:"index_cache"`
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
	Planner SolveStats `json:"planner"`
}

// Stats snapshots the session counters.
func (e *Engine) Stats() EngineStats {
	st := e.state.Load()
	out := EngineStats{
		Generation:       st.gen,
		Intervals:        len(st.ivs),
		Queries:          e.queries.Load(),
		Pushes:           e.pushes.Load(),
		Stages:           e.timings.snapshot(),
		IndexCompactions: e.compactions.Load(),
	}
	e.solveMu.Lock()
	out.Planner.Merge(e.solves)
	e.solveMu.Unlock()
	if s, ok := st.index.Cached(); ok {
		out.IndexIO = s.Stats()
		out.IndexSegments = s.NumSegments()
		out.IndexCache.Hits, out.IndexCache.Misses, out.IndexCache.Bytes = s.CacheStats()
	}
	return out
}

// SolveStats is the per-algorithm accounting of completed solves,
// served on /debug/stats inside EngineStats and mirrored to /metrics as
// the solve-duration and solve-work series. The zero value is ready to
// use; it is not safe for concurrent use (the Engine guards its own).
type SolveStats struct {
	// ByAlgorithm counts completed solves per algorithm; it is always
	// SolveNs[algorithm].Count.
	ByAlgorithm map[string]int64 `json:"by_algorithm"`
	// SolveNs holds per-algorithm wall-clock histograms of completed
	// solves, bucketed by SolveNsBuckets.
	SolveNs map[string]SolveHist `json:"solve_ns"`
	// Work sums the work counters of each algorithm's completed solves;
	// PeakStatePaths is the largest any one of them reached.
	Work map[string]core.Stats `json:"work"`
}

// recordSolve adds one completed solve's wall-clock to its algorithm's
// histogram and its work counters to the algorithm's totals.
func (s *SolveStats) recordSolve(algorithm string, costNs int64, work core.Stats) {
	h := s.SolveNs[algorithm]
	h.observe(costNs)
	s.set(algorithm, h, work)
}

// Merge accumulates other into s. Merging into a zero SolveStats is a
// deep copy.
func (s *SolveStats) Merge(other SolveStats) {
	for algorithm, h := range other.SolveNs {
		cur := s.SolveNs[algorithm]
		cur.merge(h)
		s.set(algorithm, cur, other.Work[algorithm])
	}
}

// set stores algorithm's histogram and folds work into its totals.
func (s *SolveStats) set(algorithm string, h SolveHist, work core.Stats) {
	if s.SolveNs == nil {
		s.SolveNs = map[string]SolveHist{}
		s.ByAlgorithm = map[string]int64{}
		s.Work = map[string]core.Stats{}
	}
	s.SolveNs[algorithm] = h
	s.ByAlgorithm[algorithm] = h.Count
	w := s.Work[algorithm]
	w.NodeReads += work.NodeReads
	w.NodeWrites += work.NodeWrites
	w.EdgeReads += work.EdgeReads
	w.HeapConsiders += work.HeapConsiders
	w.Pruned += work.Pruned
	w.Repushes += work.Repushes
	w.RandomSeeks += work.RandomSeeks
	w.PeakStatePaths = max(w.PeakStatePaths, work.PeakStatePaths)
	s.Work[algorithm] = w
}

// SolveNsBuckets are the solve-duration histogram upper bounds in
// nanoseconds: 10µs to 10s, one decade per bucket (solves span five
// orders of magnitude between a hot small graph and a cold full-corpus
// brute run; finer resolution adds series without adding signal).
var SolveNsBuckets = [7]int64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// SolveHist is a fixed-bucket histogram of solve wall-clock. Counts
// holds one slot per bucket (non-cumulative), the final slot counting
// solves beyond the largest bound.
type SolveHist struct {
	Counts [len(SolveNsBuckets) + 1]int64 `json:"counts"`
	SumNs  int64                          `json:"sum_ns"`
	Count  int64                          `json:"count"`
}

// merge accumulates other into h.
func (h *SolveHist) merge(other SolveHist) {
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.SumNs += other.SumNs
	h.Count += other.Count
}

func (h *SolveHist) observe(ns int64) {
	slot := len(SolveNsBuckets)
	for i, ub := range SolveNsBuckets {
		if ns <= ub {
			slot = i
			break
		}
	}
	h.Counts[slot]++
	h.SumNs += ns
	h.Count++
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
