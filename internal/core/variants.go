package core

import (
	"context"
	"fmt"

	"repro/internal/clustergraph"
	"repro/internal/topk"
)

// Section 4 notes that "the top-k paths produced may share common
// subpaths which, depending on the context, may not be very informative
// from an information discovery perspective. Variants of the kl-stable
// cluster problem with additional constraints are possible to discard
// paths with the same prefix or suffix." This file implements that
// variant as a re-ranking layer over any solver.

// DiversityMode selects which overlap disqualifies a lower-ranked path.
type DiversityMode int

const (
	// DistinctEndpoints discards a path whose first or last node was
	// already used by a better path.
	DistinctEndpoints DiversityMode = iota
	// DistinctPrefix discards a path sharing its first edge with a
	// better path.
	DistinctPrefix
	// DistinctSuffix discards a path sharing its last edge with a
	// better path.
	DistinctSuffix
	// DisjointNodes discards a path sharing any node with a better
	// path.
	DisjointNodes
)

func (m DiversityMode) String() string {
	switch m {
	case DistinctEndpoints:
		return "distinct-endpoints"
	case DistinctPrefix:
		return "distinct-prefix"
	case DistinctSuffix:
		return "distinct-suffix"
	case DisjointNodes:
		return "disjoint-nodes"
	default:
		return fmt.Sprintf("DiversityMode(%d)", int(m))
	}
}

// ParseDiversityMode maps a wire name onto a DiversityMode. Both the
// short forms the HTTP API uses ("endpoints", "prefix", "suffix",
// "disjoint") and the String() forms round-trip. The error wraps
// ErrInvalidRequest, so servers map it to a client error.
func ParseDiversityMode(s string) (DiversityMode, error) {
	switch s {
	case "", "endpoints", "distinct-endpoints":
		return DistinctEndpoints, nil
	case "prefix", "distinct-prefix":
		return DistinctPrefix, nil
	case "suffix", "distinct-suffix":
		return DistinctSuffix, nil
	case "disjoint", "disjoint-nodes":
		return DisjointNodes, nil
	default:
		return 0, fmt.Errorf("%w: unknown diversity mode %q (want endpoints, prefix, suffix or disjoint)", ErrInvalidRequest, s)
	}
}

// Diversify greedily filters a best-first path list down to at most k
// paths under the given mode. The input order is preserved, so feeding
// a solver's Result.Paths keeps the weight ranking.
func Diversify(paths []topk.Path, k int, mode DiversityMode) ([]topk.Path, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	type edge [2]int64
	usedNode := map[int64]bool{}
	usedEdge := map[edge]bool{}
	var out []topk.Path
	for _, p := range paths {
		if len(out) == k {
			break
		}
		if len(p.Nodes) == 0 {
			continue
		}
		first, last := p.Nodes[0], p.Nodes[len(p.Nodes)-1]
		conflict := false
		switch mode {
		case DistinctEndpoints:
			conflict = usedNode[first] || usedNode[last]
		case DistinctPrefix:
			if len(p.Nodes) >= 2 {
				conflict = usedEdge[edge{p.Nodes[0], p.Nodes[1]}]
			}
		case DistinctSuffix:
			if len(p.Nodes) >= 2 {
				conflict = usedEdge[edge{p.Nodes[len(p.Nodes)-2], last}]
			}
		case DisjointNodes:
			for _, n := range p.Nodes {
				if usedNode[n] {
					conflict = true
					break
				}
			}
		default:
			return nil, fmt.Errorf("core: unknown diversity mode %v", mode)
		}
		if conflict {
			continue
		}
		out = append(out, p)
		switch mode {
		case DistinctEndpoints:
			usedNode[first] = true
			usedNode[last] = true
		case DistinctPrefix:
			if len(p.Nodes) >= 2 {
				usedEdge[edge{p.Nodes[0], p.Nodes[1]}] = true
			}
		case DistinctSuffix:
			if len(p.Nodes) >= 2 {
				usedEdge[edge{p.Nodes[len(p.Nodes)-2], last}] = true
			}
		case DisjointNodes:
			for _, n := range p.Nodes {
				usedNode[n] = true
			}
		}
	}
	return out, nil
}

// diverseOvershoot is how many candidates per requested path the
// diverse variant fetches before filtering: a larger overshoot trades
// work for a better chance of filling all k diverse slots.
const diverseOvershoot = 4

// diverseKL answers the constrained variant: it widens the request to
// diverseOvershoot·k paths of the same solver (req.Algorithm is
// honored), then filters them with Diversify under req.Mode.
func diverseKL(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	mode, err := ParseDiversityMode(req.Mode)
	if err != nil {
		return nil, err
	}
	wide := req
	wide.Variant, wide.Mode = VariantTopK, ""
	wide.K = req.K * diverseOvershoot
	res, err := Solve(ctx, g, wide)
	if err != nil {
		return nil, err
	}
	filtered, err := Diversify(res.Paths, req.K, mode)
	if err != nil {
		return nil, err
	}
	res.Paths = filtered
	return res, nil
}
