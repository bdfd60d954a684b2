// Package cooccur builds the keyword co-occurrence graph of Section 3.
//
// The paper's pipeline makes a single pass over the documents of a
// temporal interval emitting every keyword pair (u,v) present in each
// document — plus (u,u) pairs so the per-keyword document counts A(u)
// are produced by the same machinery — then external-merge-sorts the
// pair stream so identical pairs become adjacent, and aggregates them
// into triplets (u, v, A(u,v)).
//
// This implementation keeps that shape with one counting table per
// build (see DESIGN.md, "Keyword-graph construction"):
//
//   - pairs are counted into one open-addressing hash table keyed by
//     the packed id pair uint64(u)<<32|v;
//   - when nothing spills — the common case for per-interval graphs —
//     the table's entries are radix-sorted and folded in memory;
//   - a table that exceeds BuildOptions.MemBudget appends its entries,
//     radix-sorted, as one run of fixed 16-byte records to the build's
//     one temp file, and remembers the run's offset;
//   - once the table has spilled, the leftover entries become the last
//     run, and a heap merge over the runs folds equal keys straight
//     into the graph, exactly the paper's merge. Too many runs for one
//     merge are first merged in groups back into the same file.
//
// Either way the resulting Graph is canonical — keyword ids are ranks
// in the sorted vocabulary and edges are sorted by (U, V). From A(u),
// A(u,v) and n, the χ² and ρ statistics (internal/stats) annotate and
// prune edges, yielding G'.
package cooccur

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Edge is one co-occurrence triplet with its statistics. U < V always
// (indices into Graph.Keywords).
type Edge struct {
	U, V  int32
	Count int64 // A(u,v): documents containing both
	Chi2  float64
	Rho   float64
}

// Graph is the keyword graph G (or, after Prune, G').
type Graph struct {
	// N is the number of documents the graph was built from.
	N int64
	// Keywords maps keyword id → keyword string, sorted
	// lexicographically by Build.
	Keywords []string
	// DocCount maps keyword id → A(u), the number of documents
	// containing the keyword.
	DocCount []int64
	// Edges holds the co-occurrence triplets, sorted by (U, V).
	Edges []Edge

	index map[string]int32
}

// KeywordID returns the id of keyword w.
func (g *Graph) KeywordID(w string) (int32, bool) {
	id, ok := g.index[w]
	return id, ok
}

// NumVertices returns the number of distinct keywords.
func (g *Graph) NumVertices() int { return len(g.Keywords) }

// NumEdges returns the number of co-occurrence edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// AnnotateStats fills in the χ² and ρ fields of every edge in one pass,
// as the paper prescribes ("this test can be computed with a single pass
// of the edges of G").
func (g *Graph) AnnotateStats() {
	for i := range g.Edges {
		e := &g.Edges[i]
		au := g.DocCount[e.U]
		av := g.DocCount[e.V]
		e.Chi2 = stats.ChiSquared(g.N, au, av, e.Count)
		e.Rho = stats.Correlation(g.N, au, av, e.Count)
	}
}

// Prune returns G': the subgraph with only edges passing the χ² test at
// the given critical value AND with ρ above rhoThreshold. Vertices with
// no surviving edges are dropped and ids are re-packed. AnnotateStats
// must have been called.
func (g *Graph) Prune(chi2Critical, rhoThreshold float64) *Graph {
	out := &Graph{N: g.N, index: make(map[string]int32)}
	remap := make(map[int32]int32)
	renumber := func(old int32) int32 {
		if id, ok := remap[old]; ok {
			return id
		}
		id := int32(len(out.Keywords))
		remap[old] = id
		out.Keywords = append(out.Keywords, g.Keywords[old])
		out.DocCount = append(out.DocCount, g.DocCount[old])
		out.index[g.Keywords[old]] = id
		return id
	}
	for _, e := range g.Edges {
		if keep := e.Chi2 > chi2Critical && e.Rho > rhoThreshold; !keep {
			continue
		}
		ne := Edge{U: renumber(e.U), V: renumber(e.V), Count: e.Count, Chi2: e.Chi2, Rho: e.Rho}
		if ne.U > ne.V {
			ne.U, ne.V = ne.V, ne.U
		}
		out.Edges = append(out.Edges, ne)
	}
	slices.SortFunc(out.Edges, compareEdges)
	return out
}

// compareEdges orders edges by (U, V).
func compareEdges(a, b Edge) int {
	if a.U != b.U {
		return int(a.U) - int(b.U)
	}
	return int(a.V) - int(b.V)
}

// Correlated is one keyword correlated with a query keyword, with the
// strength of the association.
type Correlated struct {
	Keyword string
	Rho     float64
	Count   int64 // documents containing both
}

// StrongestCorrelations returns up to n keywords most strongly
// correlated with w, by descending ρ. The paper's introduction proposes
// exactly this as query refinement: "for a query keyword we may suggest
// the strongest correlation as a refinement". AnnotateStats must have
// been called.
func (g *Graph) StrongestCorrelations(w string, n int) []Correlated {
	id, ok := g.KeywordID(w)
	if !ok || n <= 0 {
		return nil
	}
	var out []Correlated
	for _, e := range g.Edges {
		var other int32
		switch id {
		case e.U:
			other = e.V
		case e.V:
			other = e.U
		default:
			continue
		}
		out = append(out, Correlated{Keyword: g.Keywords[other], Rho: e.Rho, Count: e.Count})
	}
	slices.SortFunc(out, func(a, b Correlated) int {
		if a.Rho != b.Rho {
			if a.Rho > b.Rho {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Keyword, b.Keyword)
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// EdgeBetween returns the edge joining keywords u and v, if present.
func (g *Graph) EdgeBetween(u, v string) (Edge, bool) {
	iu, ok := g.KeywordID(u)
	if !ok {
		return Edge{}, false
	}
	iv, ok := g.KeywordID(v)
	if !ok {
		return Edge{}, false
	}
	if iu > iv {
		iu, iv = iv, iu
	}
	i := sort.Search(len(g.Edges), func(i int) bool {
		e := g.Edges[i]
		return e.U > iu || (e.U == iu && e.V >= iv)
	})
	if i < len(g.Edges) && g.Edges[i].U == iu && g.Edges[i].V == iv {
		return g.Edges[i], true
	}
	return Edge{}, false
}
