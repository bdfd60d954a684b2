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

// Solve answers one stable-clusters request. It is the single entry
// point for every variant and algorithm: the diverse variant widens the
// request and filters the answer (variants.go); everything else goes
// to the registered solver req.Algorithm names. ctx cancels the solve
// at each algorithm's natural loop boundary (BFS per interval, DFS on
// its first stack step and every few thousand after, TA per round and
// per seek batch).
func Solve(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	if req.Variant == VariantDiverse {
		return diverseKL(ctx, g, req)
	}
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
