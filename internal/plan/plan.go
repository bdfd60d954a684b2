// Package plan holds the one normalized description of a stable-cluster
// query (QuerySpec) and the per-algorithm accounting of completed
// solves (Stats). It is also the one place that knows which solver
// answers an "auto" query: QuerySpec.Normalize resolves it, so nothing
// downstream of a normalized spec ever chooses an algorithm.
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Variant names for QuerySpec.Variant.
const (
	VariantTopK       = "topk"
	VariantNormalized = "normalized"
	VariantDiverse    = "diverse"
)

// AlgorithmAuto is a spelling of the variant's default solver (see
// Normalize); it is also the wire value the HTTP API and CLIs accept.
const AlgorithmAuto = "auto"

// MaxK is the largest result count a query may ask for. Solvers size
// the global heap and every non-empty per-node heap by k, so an
// unbounded k lets one request allocate without limit; the paper, the
// experiments and the CLIs' defaults all use k ≤ 40.
const MaxK = 1000

// QuerySpec is the one normalized description of a stable-cluster
// query, shared by the HTTP layer (parameter parsing and response-cache
// keys) and the Engine (validation and dispatch). Normalizing once
// means ?variant=topk&k=05 and the equivalent Engine call key the same
// cache entries and fail with the same errors.
type QuerySpec struct {
	// Variant is "topk" (Problem 1, default), "normalized" (Problem 2)
	// or "diverse" (the constrained variant).
	Variant string
	// Algorithm is a core registry name, or ""/"auto" for the
	// variant's default. Normalized queries accept only
	// "normalized"/"brute-normalized"; topk/diverse accept
	// "bfs"/"dfs"/"ta"/"brute".
	Algorithm string
	// K is the result count; must be in [1, MaxK].
	K int
	// L is the temporal length for topk/diverse; negative means full
	// paths (normalized to -1).
	L int
	// LMin is the minimum temporal length for normalized queries.
	LMin int
	// Mode is the diversity mode for diverse queries: "endpoints"
	// (default), "prefix", "suffix" or "disjoint".
	Mode string
}

// Normalize returns the canonical form of the spec: defaults filled in,
// full-path lengths collapsed to -1, and fields foreign to the variant
// zeroed, so equal queries compare (and cache-key) equal. An empty or
// "auto" Algorithm resolves here, once, to the solver that answers it:
// "normalized" for the normalized variant, core.DefaultAlgorithm
// otherwise — a fixed rule, not a learned one (DESIGN.md "Solve path").
func (s QuerySpec) Normalize() QuerySpec {
	if s.Variant == "" {
		s.Variant = VariantTopK
	}
	if s.Algorithm == "" || s.Algorithm == AlgorithmAuto {
		if s.Variant == VariantNormalized {
			s.Algorithm = "normalized"
		} else {
			s.Algorithm = core.DefaultAlgorithm
		}
	}
	switch s.Variant {
	case VariantNormalized:
		s.L = 0
		s.Mode = ""
		if s.LMin == 0 {
			s.LMin = 2
		}
	case VariantDiverse:
		s.LMin = 0
		s.Mode = canonicalMode(s.Mode)
		if s.L < 0 {
			s.L = -1
		}
	default:
		s.LMin = 0
		s.Mode = ""
		if s.L < 0 {
			s.L = -1
		}
	}
	return s
}

// canonicalMode collapses the two accepted wire forms of each
// diversity mode onto the short one, so "distinct-endpoints" and
// "endpoints" produce the same cache key. Unknown strings pass through
// for Validate to reject.
func canonicalMode(mode string) string {
	m, err := core.ParseDiversityMode(mode)
	if err != nil {
		return mode
	}
	switch m {
	case core.DistinctPrefix:
		return "prefix"
	case core.DistinctSuffix:
		return "suffix"
	case core.DisjointNodes:
		return "disjoint"
	default:
		return "endpoints"
	}
}

// Validate checks everything that does not need the graph. Errors wrap
// core.ErrInvalidRequest so the serving layer maps them to 400s.
func (s QuerySpec) Validate() error {
	s = s.Normalize()
	switch s.Variant {
	case VariantTopK, VariantNormalized, VariantDiverse:
	default:
		return fmt.Errorf("%w: unknown variant %q (want topk, normalized or diverse)", core.ErrInvalidRequest, s.Variant)
	}
	if s.K <= 0 {
		return fmt.Errorf("%w: k must be positive, got %d", core.ErrInvalidRequest, s.K)
	}
	if s.K > MaxK {
		return fmt.Errorf("%w: k must be at most %d, got %d", core.ErrInvalidRequest, MaxK, s.K)
	}
	info, ok := core.Lookup(s.Algorithm)
	if !ok {
		return fmt.Errorf("%w: unknown algorithm %q", core.ErrInvalidRequest, s.Algorithm)
	}
	if info.Normalized != (s.Variant == VariantNormalized) {
		return fmt.Errorf("%w: algorithm %q does not answer %s queries", core.ErrInvalidRequest, s.Algorithm, s.Variant)
	}
	if s.Variant == VariantNormalized && s.LMin <= 0 {
		return fmt.Errorf("%w: lmin must be positive, got %d", core.ErrInvalidRequest, s.LMin)
	}
	if s.Variant == VariantDiverse {
		if _, err := core.ParseDiversityMode(s.Mode); err != nil {
			return err
		}
	}
	return nil
}

// CacheKey renders the normalized spec as a canonical string — the
// response-cache key of the HTTP layer.
func (s QuerySpec) CacheKey() string {
	s = s.Normalize()
	var b strings.Builder
	b.WriteString("variant=")
	b.WriteString(s.Variant)
	b.WriteString("&algorithm=")
	b.WriteString(s.Algorithm)
	b.WriteString("&k=")
	b.WriteString(strconv.Itoa(s.K))
	switch s.Variant {
	case VariantNormalized:
		b.WriteString("&lmin=")
		b.WriteString(strconv.Itoa(s.LMin))
	case VariantDiverse:
		b.WriteString("&l=")
		b.WriteString(strconv.Itoa(s.L))
		b.WriteString("&mode=")
		b.WriteString(s.Mode)
	default:
		b.WriteString("&l=")
		b.WriteString(strconv.Itoa(s.L))
	}
	return b.String()
}

// Request maps the spec onto a core.Request.
func (s QuerySpec) Request() core.Request {
	s = s.Normalize()
	req := core.Request{Algorithm: s.Algorithm, K: s.K}
	if s.Variant == VariantNormalized {
		req.LMin = s.LMin
	} else {
		req.L = s.L
		if req.L < 0 {
			req.L = core.FullPaths
		}
	}
	return req
}

// Stats is the per-algorithm accounting of completed solves, served on
// /debug/stats inside EngineStats and mirrored to /metrics as the
// solve-duration and solve-work series. The zero value is ready to use; it is not safe
// for concurrent use (the Engine guards its own).
type Stats struct {
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

// RecordSolve adds one completed solve's wall-clock to its algorithm's
// histogram and its work counters to the algorithm's totals.
func (s *Stats) RecordSolve(algorithm string, costNs int64, work core.Stats) {
	h := s.SolveNs[algorithm]
	h.observe(costNs)
	s.set(algorithm, h, work)
}

// Merge accumulates other into s. Merging into a zero Stats is a deep
// copy.
func (s *Stats) Merge(other Stats) {
	for algorithm, h := range other.SolveNs {
		cur := s.SolveNs[algorithm]
		cur.Merge(h)
		s.set(algorithm, cur, other.Work[algorithm])
	}
}

// set stores algorithm's histogram and folds work into its totals.
func (s *Stats) set(algorithm string, h SolveHist, work core.Stats) {
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
	w.Passes += work.Passes
	s.Work[algorithm] = w
}

// SolveNsBuckets are the solve-duration histogram upper bounds in
// nanoseconds: 10µs to 10s, one decade per bucket (solves span five
// orders of magnitude between a hot small graph and a cold full-corpus
// brute run; finer resolution adds series without adding signal).
var SolveNsBuckets = []int64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// SolveHist is a fixed-bucket histogram of solve wall-clock. Counts
// has len(SolveNsBuckets)+1 slots, per-bucket (non-cumulative), the
// final slot counting solves beyond the largest bound.
type SolveHist struct {
	Counts []int64 `json:"counts"`
	SumNs  int64   `json:"sum_ns"`
	Count  int64   `json:"count"`
}

// Merge accumulates other into h (both in SolveNsBuckets layout).
func (h *SolveHist) Merge(other SolveHist) {
	if len(h.Counts) == 0 {
		h.Counts = make([]int64, len(SolveNsBuckets)+1)
	}
	for i, c := range other.Counts {
		if i < len(h.Counts) {
			h.Counts[i] += c
		}
	}
	h.SumNs += other.SumNs
	h.Count += other.Count
}

func (h *SolveHist) observe(ns int64) {
	if len(h.Counts) == 0 {
		h.Counts = make([]int64, len(SolveNsBuckets)+1)
	}
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
