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
//   - the documents arrive tokenized (corpus.Tokens): every keyword as
//     its rank in the sorted vocabulary, which is its id here, so A(u)
//     is a flat count of ranks (a document's keywords are a set) and no
//     (u,u) pair is emitted;
//   - pairs are counted into one open-addressing hash table keyed by
//     the packed id pair uint64(u)<<32|v;
//   - when nothing spills — the common case for per-interval graphs —
//     the table's entries are gathered at the front of its own
//     array, radix-sorted there and folded in memory;
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
// prune edges, yielding G'. BuildPrunedCtx yields G' in the same pass:
// it never counts a pair whose A(u) and A(v) rule out passing the test
// at any count, and it tests each triplet as it leaves the fold.
//
// A Builder is that build with its arrays kept for the next one — the
// table, which also holds the entries while they are sorted, the spill
// buffer, A(u), the bound ratios and G′'s own arrays — so a worker
// building interval after interval allocates them once; the G′ it
// returns is valid until its next build. The package's Build functions
// each run a fresh Builder.
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
	// lexicographically by Build (it is the tokens' Words, shared).
	Keywords []string
	// DocCount maps keyword id → A(u), the number of documents
	// containing the keyword.
	DocCount []int64
	// Edges holds the co-occurrence triplets, sorted by (U, V).
	Edges []Edge

	// byWord lists a pruned graph's keyword ids in lexicographic order
	// of their keywords, for KeywordID's binary search. It is nil on an
	// unpruned graph, whose Keywords are sorted themselves.
	byWord []int32
}

// KeywordID returns the id of keyword w.
func (g *Graph) KeywordID(w string) (int32, bool) {
	if g.byWord == nil {
		if i, ok := slices.BinarySearch(g.Keywords, w); ok {
			return int32(i), true
		}
		return 0, false
	}
	i, ok := slices.BinarySearchFunc(g.byWord, w, func(id int32, w string) int {
		return strings.Compare(g.Keywords[id], w)
	})
	if !ok {
		return 0, false
	}
	return g.byWord[i], true
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
	var p pruner
	p.reset(g, threshold{chi2: chi2Critical, rho: rhoThreshold})
	for _, e := range g.Edges {
		p.keep(e)
	}
	return p.graph()
}

// pruner keeps the annotated edges of src that pass the χ²/ρ test and
// renumbers their endpoints densely, in the order the kept edges first
// name them. Prune and the pruned build share it, so both give the
// same G'. Its arrays are G′'s: a Builder's pruner keeps them from
// build to build, so the G′ it returns lives until the next reset.
type pruner struct {
	src   *Graph
	th    threshold
	remap []int32 // src id → new id + 1; 0 while the keyword is not kept
	kept  int32   // keywords kept so far

	edges    []Edge
	keywords []string
	docCount []int64
	byWord   []int32
}

// reset starts pruning src at th, keeping p's arrays.
func (p *pruner) reset(src *Graph, th threshold) {
	p.src, p.th, p.kept = src, th, 0
	p.remap = resize(p.remap, len(src.Keywords))
	clear(p.remap)
	p.edges = p.edges[:0]
}

// keep adds e to the pruned graph if it passes the test. Edges must
// arrive in (U, V) order for the ids to follow Prune's.
func (p *pruner) keep(e Edge) {
	if !(e.Chi2 > p.th.chi2 && e.Rho > p.th.rho) {
		return
	}
	e.U, e.V = p.renumber(e.U), p.renumber(e.V)
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	p.edges = append(p.edges, e)
}

func (p *pruner) renumber(old int32) int32 {
	if id := p.remap[old]; id != 0 {
		return id - 1
	}
	p.kept++
	p.remap[old] = p.kept
	return p.kept - 1
}

// graph returns the pruned graph: the kept keywords under their new
// ids and the kept edges sorted by (U, V). The source's ids are walked
// in its keywords' lexicographic order — on a built graph old ids are
// ranks, so that is id order — which lists the kept ids in byWord's
// order with no sort.
func (p *pruner) graph() *Graph {
	src := p.src
	out := &Graph{N: src.N, Edges: p.edges}
	if p.kept > 0 {
		k := int(p.kept)
		p.keywords = resize(p.keywords, k)
		p.docCount = resize(p.docCount, k)
		p.byWord = resize(p.byWord, k)
		next := 0
		for rank := range src.Keywords {
			old := rank
			if src.byWord != nil {
				old = int(src.byWord[rank])
			}
			if id := p.remap[old]; id != 0 {
				p.keywords[id-1] = src.Keywords[old]
				p.docCount[id-1] = src.DocCount[old]
				p.byWord[next] = id - 1
				next++
			}
		}
		out.Keywords, out.DocCount, out.byWord = p.keywords, p.docCount, p.byWord
	}
	slices.SortFunc(out.Edges, compareEdges)
	return out
}

// resize returns s at length n, on its own array when that holds n
// elements and on a new zeroed one otherwise; reused elements keep
// their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	Keyword string  `json:"keyword"`
	Rho     float64 `json:"rho"`
	Count   int64   `json:"count"` // documents containing both
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
