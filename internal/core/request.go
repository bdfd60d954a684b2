package core

import (
	"fmt"

	"repro/internal/clustergraph"
)

// Variant names for Request.Variant: Section 4's one question in its
// three shapes.
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

// Request is the one description of a stable-cluster query, from the
// HTTP layer's parameter parsing and response-cache keys through the
// Engine to the solvers. Normalize puts it in canonical form and
// Validate checks it, so ?variant=topk&k=05 and the equivalent Engine
// call key the same cache entries and fail with the same errors. Solve
// dispatches the diverse variant itself and every other request on
// Algorithm, so a Request with an empty Variant is a plain Problem 1 or
// 2 query for the solver it names. Fields a solver does not use are
// ignored by it.
type Request struct {
	// Variant is "topk" (Problem 1, the default), "normalized"
	// (Problem 2) or "diverse" (the constrained variant).
	Variant string
	// Algorithm names the registered solver: "bfs" (Algorithm 2),
	// "dfs" (Algorithm 3), "ta" (Section 4.4), "normalized"
	// (Section 4.5), or the exhaustive oracles "brute" and
	// "brute-normalized". Empty means DefaultAlgorithm to Solve;
	// Normalize resolves ""/"auto" to the variant's default.
	Algorithm string
	// K is the number of top paths to return; Validate wants it in
	// [1, MaxK].
	K int
	// L is the exact temporal path length sought (topk and diverse).
	// The special value FullPaths (or m−1) requests full paths,
	// enabling the paper's single-heap fast path in BFS and the TA
	// algorithm; Normalize collapses every negative length to it.
	L int
	// LMin is the minimum temporal path length (normalized solvers,
	// Problem 2).
	LMin int
	// Mode is the diversity mode of diverse queries: "endpoints"
	// (default), "prefix", "suffix" or "disjoint".
	Mode string

	// Test seams, settable only inside this package: these optimizations
	// pay on every measurement, so callers always get them; the generic
	// paths stay as the reference the equivalence tests compare against.
	//
	// disablePruning turns off DFS's maxweight/CanPrune machinery, and
	// with it DFS's suffix bound.
	disablePruning bool
	// disableFullPathFastPath turns off BFS's single-heap optimization
	// for l = m−1.
	disableFullPathFastPath bool
	// disableSuffixBound runs BFS and DFS as the paper's Algorithms 2
	// and 3, without the exact suffix bound (bound.go), and TA with no
	// pruning at all. DFS then prunes as the paper does, exact only for
	// weights in (0,1].
	disableSuffixBound bool
}

// Normalize returns the canonical form of the request: defaults filled
// in, full-path lengths collapsed to FullPaths, and fields foreign to
// the variant zeroed, so equal queries compare (and cache-key) equal.
// An empty or "auto" Algorithm resolves here, once, to the solver that
// answers it: "normalized" for the normalized variant,
// DefaultAlgorithm otherwise — a fixed rule, not a learned one
// (DESIGN.md "Solve path").
func (r Request) Normalize() Request {
	if r.Variant == "" {
		r.Variant = VariantTopK
	}
	if r.Algorithm == "" || r.Algorithm == AlgorithmAuto {
		if r.Variant == VariantNormalized {
			r.Algorithm = "normalized"
		} else {
			r.Algorithm = DefaultAlgorithm
		}
	}
	switch r.Variant {
	case VariantNormalized:
		r.L = 0
		r.Mode = ""
		if r.LMin == 0 {
			r.LMin = 2
		}
	case VariantDiverse:
		r.LMin = 0
		r.Mode = canonicalMode(r.Mode)
		if r.L < 0 {
			r.L = FullPaths
		}
	default:
		r.LMin = 0
		r.Mode = ""
		if r.L < 0 {
			r.L = FullPaths
		}
	}
	return r
}

// canonicalMode collapses the two accepted wire forms of each
// diversity mode onto the short one, so "distinct-endpoints" and
// "endpoints" produce the same cache key. Unknown strings pass through
// for Validate to reject.
func canonicalMode(mode string) string {
	m, err := ParseDiversityMode(mode)
	if err != nil {
		return mode
	}
	switch m {
	case DistinctPrefix:
		return "prefix"
	case DistinctSuffix:
		return "suffix"
	case DisjointNodes:
		return "disjoint"
	default:
		return "endpoints"
	}
}

// Validate checks everything that does not need the graph. Errors wrap
// ErrInvalidRequest so the serving layer maps them to 400s.
func (r Request) Validate() error {
	r = r.Normalize()
	switch r.Variant {
	case VariantTopK, VariantNormalized, VariantDiverse:
	default:
		return fmt.Errorf("%w: unknown variant %q (want topk, normalized or diverse)", ErrInvalidRequest, r.Variant)
	}
	if r.K <= 0 {
		return fmt.Errorf("%w: k must be positive, got %d", ErrInvalidRequest, r.K)
	}
	if r.K > MaxK {
		return fmt.Errorf("%w: k must be at most %d, got %d", ErrInvalidRequest, MaxK, r.K)
	}
	info, ok := Lookup(r.Algorithm)
	if !ok {
		return fmt.Errorf("%w: unknown algorithm %q", ErrInvalidRequest, r.Algorithm)
	}
	if info.Normalized != (r.Variant == VariantNormalized) {
		return fmt.Errorf("%w: algorithm %q does not answer %s queries", ErrInvalidRequest, r.Algorithm, r.Variant)
	}
	if r.Variant == VariantNormalized && r.LMin <= 0 {
		return fmt.Errorf("%w: lmin must be positive, got %d", ErrInvalidRequest, r.LMin)
	}
	if r.Variant == VariantDiverse {
		if _, err := ParseDiversityMode(r.Mode); err != nil {
			return err
		}
	}
	return nil
}

// checkK is the one check every solver makes before touching the graph.
func (r Request) checkK() error {
	if r.K <= 0 {
		return fmt.Errorf("%w: K must be positive, got %d", ErrInvalidRequest, r.K)
	}
	return nil
}

// resolveL normalizes Request.L against the graph's interval count.
func (r Request) resolveL(g *clustergraph.Graph) (int, error) {
	if err := r.checkK(); err != nil {
		return 0, err
	}
	l := r.L
	if l == FullPaths {
		l = g.NumIntervals() - 1
	}
	if l <= 0 {
		return 0, fmt.Errorf("%w: path length must be positive, got %d", ErrInvalidRequest, l)
	}
	if l > g.NumIntervals()-1 {
		return 0, fmt.Errorf("%w: path length %d exceeds m-1 = %d", ErrInvalidRequest, l, g.NumIntervals()-1)
	}
	return l, nil
}

// resolveLMin validates the normalized-solver fields.
func (r Request) resolveLMin(g *clustergraph.Graph) (int, error) {
	if err := r.checkK(); err != nil {
		return 0, err
	}
	if r.LMin <= 0 {
		return 0, fmt.Errorf("%w: LMin must be positive, got %d", ErrInvalidRequest, r.LMin)
	}
	if r.LMin > g.NumIntervals()-1 {
		return 0, fmt.Errorf("%w: LMin %d exceeds m-1 = %d", ErrInvalidRequest, r.LMin, g.NumIntervals()-1)
	}
	return r.LMin, nil
}
