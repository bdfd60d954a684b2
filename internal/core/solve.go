package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/clustergraph"
)

// ErrInvalidRequest marks request-validation failures: an unknown
// algorithm, a non-positive K, a path length the graph cannot hold.
// Callers serving remote clients map it to a client error (400) via
// errors.Is instead of sniffing message text. The root package aliases
// it as blogclusters.ErrInvalidQuery.
var ErrInvalidRequest = errors.New("core: invalid request")

// DefaultAlgorithm is what an empty Request.Algorithm means.
const DefaultAlgorithm = "bfs"

// Request is the one query shape every solver accepts. Engine, server
// and cmds all build a Request and hand it to Solve; the
// algorithm registry dispatches on Request.Algorithm. Knobs that a
// given algorithm does not use are ignored by it (they exist so the
// ablation experiments can sweep every solver through one surface).
type Request struct {
	// Algorithm names the registered solver: "bfs" (Algorithm 2),
	// "dfs" (Algorithm 3), "ta" (Section 4.4), "normalized"
	// (Section 4.5), or the exhaustive oracles "brute" and
	// "brute-normalized". Empty means DefaultAlgorithm.
	Algorithm string
	// K is the number of top paths to return.
	K int
	// L is the exact temporal path length sought (Problem 1 solvers).
	// The special value FullPaths (or m−1) requests full paths,
	// enabling the paper's single-heap fast path in BFS and the TA
	// algorithm.
	L int
	// LMin is the minimum temporal path length (normalized solvers,
	// Problem 2).
	LMin int

	// DisablePruning turns off DFS's maxweight/CanPrune machinery, and
	// with it DFS's suffix bound (ablation).
	DisablePruning bool

	// MaxSeeks aborts a TA run after this many random seeks (the paper
	// reports TA needing up to m^(d−1) seeks). Zero means unlimited.
	MaxSeeks int64

	// Test seams, settable only inside this package: these optimizations
	// pay on every measurement, so callers always get them; the generic
	// paths stay as the reference the equivalence tests compare against.
	//
	// disableFullPathFastPath turns off BFS's single-heap optimization
	// for l = m−1.
	disableFullPathFastPath bool
	// disableSuffixBound runs BFS and DFS as the paper's Algorithms 2
	// and 3, without the exact suffix bound (bound.go), and TA with no
	// pruning at all. DFS then prunes as the paper does, exact only for
	// weights in (0,1].
	disableSuffixBound bool
}

// validate checks the algorithm-independent fields.
func (r Request) validate() error {
	if r.K <= 0 {
		return fmt.Errorf("%w: K must be positive, got %d", ErrInvalidRequest, r.K)
	}
	return nil
}

// resolveL normalizes Request.L against the graph's interval count.
func (r Request) resolveL(g *clustergraph.Graph) (int, error) {
	if err := r.validate(); err != nil {
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
	if err := r.validate(); err != nil {
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

// ctxErr reports ctx's error without blocking; nil ctx never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Info describes one registered solver.
type Info struct {
	// Name is the Request.Algorithm value.
	Name string
	// Normalized solvers rank by stability and use LMin (Problem 2);
	// the rest rank by weight and use L (Problem 1).
	Normalized bool
	// FullPathsOnly solvers require l = m−1 (TA).
	FullPathsOnly bool
}

type solverFunc func(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error)

type solverEntry struct {
	info  Info
	solve solverFunc
}

// registry maps algorithm name → solver. Entries are fixed at init;
// the map is read-only afterwards, so Solve needs no lock.
var registry = map[string]solverEntry{
	"bfs": {Info{Name: "bfs"}, solveBFS},
	"dfs": {Info{Name: "dfs"}, solveDFS},
	"ta":  {Info{Name: "ta", FullPathsOnly: true}, solveTA},
	"normalized": {
		Info{Name: "normalized", Normalized: true}, solveNormalized},
	"brute": {Info{Name: "brute"}, solveBrute},
	"brute-normalized": {
		Info{Name: "brute-normalized", Normalized: true}, solveBruteNormalized},
}

// Algorithms lists the registered solvers, sorted by name.
func Algorithms() []Info {
	out := make([]Info, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the descriptor of one registered solver.
func Lookup(name string) (Info, bool) {
	if name == "" {
		name = DefaultAlgorithm
	}
	e, ok := registry[name]
	return e.info, ok
}

// Solve answers one stable-clusters request by dispatching to the
// registered solver. It is the single entry point for every algorithm;
// ctx cancels the solve at each algorithm's natural loop boundary
// (BFS per interval, DFS on its first stack step and every few thousand
// after, TA per round and per seek batch).
func Solve(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	name := req.Algorithm
	if name == "" {
		name = DefaultAlgorithm
	}
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown algorithm %q (want %s)",
			ErrInvalidRequest, req.Algorithm, strings.Join(algorithmNames(), ", "))
	}
	return e.solve(ctx, g, req)
}

func algorithmNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
