package cooccur

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/corpus"
	"repro/internal/stats"
)

// BuildOptions configures nothing: every build keeps every
// co-occurring pair, and both fields are accepted and ignored.
type BuildOptions struct {
	// SortMemoryBudget is accepted and ignored: the build sorts no pair
	// stream. The field stays only because bench/build.go names it.
	SortMemoryBudget int
	// MemBudget is accepted and ignored: the build holds no pair table
	// and writes no file, and what it holds grows with the keyword
	// occurrences, not with the pairs (see Builder). The field stays
	// only because bench/build.go names it.
	MemBudget int
}

// Build constructs the keyword graph for the documents of intervals
// [from, to] of c (inclusive; pass the same value twice for a single
// day, as in Table 1).
//
// The output is canonical: keywords are sorted lexicographically (ids
// are ranks in that order), DocCount is aligned with Keywords, and
// Edges is sorted by (U, V) with U < V.
func Build(c *corpus.Collection, from, to int, opts BuildOptions) (*Graph, error) {
	return BuildCtx(context.Background(), c, from, to, opts)
}

// BuildCtx is Build with cancellation: the row pass polls ctx every
// few hundred keywords, so a canceled build returns ctx's error
// instead of finishing the interval.
func BuildCtx(ctx context.Context, c *corpus.Collection, from, to int, opts BuildOptions) (*Graph, error) {
	return new(Builder).buildCtx(ctx, c, from, to, nil)
}

// BuildPrunedCtx builds G′ directly: the graph that BuildCtx followed
// by AnnotateStats and Prune(chi2Critical, rhoThreshold) returns, equal
// to it field for field, without ever holding the unpruned edges. Pairs
// that cannot pass the test at any count are never counted (see
// pairBound), and every triplet is tested as it leaves the fold.
func BuildPrunedCtx(ctx context.Context, c *corpus.Collection, from, to int, opts BuildOptions, chi2Critical, rhoThreshold float64) (*Graph, error) {
	return new(Builder).buildCtx(ctx, c, from, to, &threshold{chi2: chi2Critical, rho: rhoThreshold})
}

// BuildPrunedTokens is BuildPrunedCtx over documents already
// tokenized: G′ of the documents tk was made from.
func BuildPrunedTokens(ctx context.Context, tk *corpus.Tokens, opts BuildOptions, chi2Critical, rhoThreshold float64) (*Graph, error) {
	return new(Builder).BuildPruned(ctx, tk, opts, chi2Critical, rhoThreshold)
}

// Builder is the one keyword-graph build, kept from build to build: it
// owns what a build throws away — A(u), the bound ratios, the row
// pass's arrays (one int32 array, see layout) — and the pruner's
// arrays, which are G′'s. A worker that builds interval after interval
// holds one and allocates them once. The graph a build returns shares
// the Builder's arrays, so it is valid until the Builder's next build;
// the package's Build functions each run a fresh Builder, so what they
// return is the caller's alone. The zero value is ready to use; a
// Builder is not safe for concurrent use.
type Builder struct {
	docCount []int64 // A(u) by keyword id
	bound    pairBound
	scratch  []int32 // the layout's arrays
	prune    pruner
}

// BuildPruned is BuildPrunedTokens on b's arrays: the returned G′ is
// valid until b's next build.
func (b *Builder) BuildPruned(ctx context.Context, tk *corpus.Tokens, opts BuildOptions, chi2Critical, rhoThreshold float64) (*Graph, error) {
	return b.build(ctx, tk, &threshold{chi2: chi2Critical, rho: rhoThreshold})
}

// threshold is the χ²/ρ test of a pruned build: an edge is kept when
// its χ² exceeds chi2 and its ρ exceeds rho.
type threshold struct{ chi2, rho float64 }

// buildCtx is BuildCtx pruned at th, unless th is nil.
func (b *Builder) buildCtx(ctx context.Context, c *corpus.Collection, from, to int, th *threshold) (*Graph, error) {
	if from < 0 || to >= len(c.Intervals) || from > to {
		return nil, fmt.Errorf("cooccur: interval range [%d,%d] outside collection of %d intervals", from, to, len(c.Intervals))
	}
	return b.build(ctx, corpus.Tokenize(c.Intervals[from:to+1]), th)
}

// pollRows is how many rows the row pass counts between polls of ctx.
const pollRows = 256

// build is the one keyword-graph build, over tokenized documents. Pass
// 1 counts A(u), pass 2 lays the documents out by rank (see layout),
// and pass 3 counts the pairs row by row: for each keyword, in rank
// order, the partners that follow it in its documents, into one dense
// accumulator, handing each touched pair to the fold.
func (b *Builder) build(ctx context.Context, tk *corpus.Tokens, th *threshold) (*Graph, error) {
	// Pass 1: A(u). The token ranks are the keyword ids, so A(u) is the
	// number of times u's rank occurs (a document's keywords are a set).
	docCount := resize(b.docCount, len(tk.Words))
	b.docCount = docCount
	clear(docCount)
	for _, id := range tk.IDs {
		docCount[id]++
	}
	g := &Graph{
		N:        int64(tk.NumDocs()),
		Keywords: tk.Words,
		DocCount: docCount,
	}
	f := &fold{g: g}
	if th != nil {
		b.prune.reset(g, *th)
		f.prune = &b.prune
	}
	bd := &b.bound
	bd.reset(g, th)

	// Pass 2: the layout.
	l := b.lay(tk)

	// Pass 3: the rows. An unpruned build keeps every distinct pair, so
	// a first sweep counts them and Edges is sized once.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f.prune == nil {
		pairs := 0
		for q := range l.v {
			if q%pollRows == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			touched := l.countRow(q, l.v)
			pairs += len(touched)
			for _, p := range touched {
				l.acc[p] = 0
			}
		}
		f.reserve(pairs)
	}
	// lim is the first rank that row q's bound rules out. Ratios grow
	// with rank, so it never moves back from one row to the next.
	var lim int32
	for q := range l.v {
		if q%pollRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if bd.all {
			lim = l.v
		} else {
			lim = max(lim, q)
			rq := bd.r[l.id[q]]
			for lim < l.v && bd.mayPass(rq, bd.r[l.id[lim]]) {
				lim++
			}
		}
		touched := l.countRow(q, lim)
		if f.prune == nil {
			// Ranks are ids here: the row's triplets in (U, V) order.
			slices.Sort(touched)
		}
		u := l.id[q]
		for _, p := range touched {
			f.add(u, l.id[p], int64(l.acc[p]))
			l.acc[p] = 0
		}
	}
	return f.graph(), nil
}

// layout is the row pass's view of a build's documents, every array
// carved from the Builder's one int32 array. Keywords are ranked by
// (bound ratio, id), so each document's ranks, ascending, list its
// keywords by growing ratio, and the partners of a keyword that may
// pass the bound are a prefix of those that follow it there. Rank v is
// a sentinel that ends every document and that no bound lets through.
// What it holds is 8 bytes per keyword occurrence (seq and pos), 8 per
// document (the sentinels and a fill cursor; up to 4 more for the rank
// sort's counts, which run to the largest A(u)) and 20 per keyword.
type layout struct {
	v       int32   // vocabulary size, the sentinel's rank
	id      []int32 // rank → keyword id
	start   []int32 // rank q → its occurrences are pos[start[q]:start[q+1]]
	acc     []int32 // rank → its count in the current row; zero between rows
	touched []int32 // the current row's partners, first touch first
	seq     []int32 // each document's ranks, ascending, then the sentinel
	pos     []int32 // per occurrence, by rank: where its suffix starts in seq
}

// lay ranks tk's keywords and lays its documents out for the row pass
// on b's scratch array.
func (b *Builder) lay(tk *corpus.Tokens) layout {
	docCount, bd := b.docCount, &b.bound
	v, n, occ := len(docCount), tk.NumDocs(), len(tk.IDs)
	var buckets int
	if !bd.all && v > 0 {
		buckets = int(slices.Max(docCount)) + 2
	}
	need := 5*v + 1 + buckets + occ + n + occ + n
	if cap(b.scratch) < need {
		// A quarter more, so that a worker's next, slightly larger
		// interval fits too.
		b.scratch = make([]int32, need+need/4)
	}
	s := b.scratch[:need]
	carve := func(k int) []int32 {
		a := s[:k:k]
		s = s[k:]
		return a
	}
	l := layout{v: int32(v), id: carve(v)}
	rank := carve(v)
	l.start, l.acc, l.touched = carve(v+1), carve(v), carve(v)
	count := carve(buckets)
	l.seq, l.pos = carve(occ+n), carve(occ)
	next := carve(n)

	// The ranks. With the bound on, r = A(u)/(N−A(u)) grows with A(u),
	// so (A(u), id) order is (r, id) order: a counting sort by A(u),
	// stable in id. With it off, r ≡ 1 and ranks are ids.
	if bd.all {
		for u := range l.id {
			l.id[u], rank[u] = int32(u), int32(u)
		}
	} else {
		clear(count)
		for _, a := range docCount {
			count[a+1]++
		}
		for i := 1; i < len(count); i++ {
			count[i] += count[i-1]
		}
		for u, a := range docCount {
			q := count[a]
			count[a]++
			l.id[q], rank[u] = int32(u), q
		}
	}

	// Two counting sorts, no comparison: the occurrences by rank, into
	// pos as the documents that hold each rank (rank q has A(u) of
	// them, acc is the cursor and is left zero), then back into the
	// documents, rank by rank, so every document's ranks come out
	// ascending. Document d starts at Off[d]+d in seq, one sentinel
	// per earlier document, and next is its fill cursor. As a rank's
	// occurrence lands in seq, pos takes where its suffix starts.
	l.start[0] = 0
	for q, u := range l.id {
		l.start[q+1] = l.start[q] + int32(docCount[u])
	}
	copy(l.acc, l.start[:v])
	for d := range n {
		for _, id := range tk.Doc(d) {
			q := rank[id]
			l.pos[l.acc[q]] = int32(d)
			l.acc[q]++
		}
	}
	clear(l.acc)
	for d := range n {
		next[d] = tk.Off[d] + int32(d)
		l.seq[tk.Off[d+1]+int32(d)] = l.v
	}
	for q := range l.v {
		for k := l.start[q]; k < l.start[q+1]; k++ {
			d := l.pos[k]
			i := next[d]
			next[d]++
			l.seq[i] = q
			l.pos[k] = i + 1
		}
	}
	return l
}

// countRow counts, for every occurrence of rank q, the ranks that
// follow it in its document up to the first at or above lim, into
// acc, and returns the ranks it touched, first touch first. A rank
// listed twice in one document, against Document's set contract, is
// no partner of itself. A count is at most the number of documents
// under that contract, so it fits an int32.
func (l *layout) countRow(q, lim int32) []int32 {
	touched, acc := l.touched[:0], l.acc
	for _, s := range l.pos[l.start[q]:l.start[q+1]] {
		for _, p := range l.seq[s:] {
			if p >= lim {
				break
			}
			if p == q {
				continue
			}
			if acc[p] == 0 {
				touched = append(touched, p)
			}
			acc[p]++
		}
	}
	return touched
}

// fold turns the pair counts into the graph's edges: every counted
// pair becomes an edge of g, or, in a pruned build, is annotated and
// offered to prune. The unpruned graph's pairs must
// arrive in (U, V) order; the pruner takes them in any order.
type fold struct {
	g     *Graph
	prune *pruner // nil for the unpruned graph
}

// reserve sizes the unpruned graph's Edges for at most pairs triplets.
// A pruned build keeps a small share of them, so its edges grow by
// append instead.
func (f *fold) reserve(pairs int) {
	if f.prune == nil && pairs > 0 {
		f.g.Edges = make([]Edge, 0, pairs)
	}
}

// add folds the count of the pair of keywords u and v.
func (f *fold) add(u, v int32, count int64) {
	if u > v {
		u, v = v, u
	}
	e := Edge{U: u, V: v, Count: count}
	if f.prune == nil {
		f.g.Edges = append(f.g.Edges, e)
		return
	}
	g := f.g
	au, av := g.DocCount[u], g.DocCount[v]
	e.Chi2, e.Rho = stats.PairStats(g.N, au, av, count)
	f.prune.keep(e)
}

// graph returns the folded graph: g itself, or the pruned graph.
func (f *fold) graph() *Graph {
	if f.prune == nil {
		return f.g
	}
	return f.prune.graph()
}

// pairBound is the count-free half of the χ²/ρ test, used to skip pairs
// that cannot pass before they are counted. A pair occurs in at most
// a = min(A(u), A(v)) documents, and ρ grows with the count, so its ρ
// is at most the ρ at count a: with b = max(A(u), A(v)) and
// r(x) = x/(N−x), that is sqrt(r(a)/r(b)). For a 2×2 table χ² = N·ρ²,
// so when ρ > τ ≥ 0 both statistics grow with the count, and the pair
// can pass only if r(a)/r(b) > T = max(τ², χ²crit/N). A keyword in
// every document has r = +Inf and never passes, as ChiSquared and
// Correlation give 0 there. For τ < 0 a strongly negative ρ passes
// too (χ² is U-shaped in the count), so the bound is off: r ≡ 1 and
// t = 0 keep every pair, as in an unpruned build.
type pairBound struct {
	r   []float64 // per keyword id
	t   float64   // T, less a relative slack so the bound errs toward keeping
	all bool      // the bound is off and keeps every pair
}

// boundSlack is the bound's relative slack: the exact test at the fold
// works in floating point, so the bound keeps pairs within 1e-9 of T.
const boundSlack = 1e-9

// reset makes b the bound of g's keywords under th, keeping b's ratio
// array; nil th, or a negative ρ threshold, gives the bound that keeps
// every pair.
func (b *pairBound) reset(g *Graph, th *threshold) {
	b.r, b.t = resize(b.r, len(g.DocCount)), 0
	b.all = th == nil || th.rho < 0
	if b.all {
		for i := range b.r {
			b.r[i] = 1
		}
		return
	}
	for i, a := range g.DocCount {
		b.r[i] = float64(a) / float64(g.N-a)
	}
	b.t = max(th.rho*th.rho, th.chi2/float64(g.N)) * (1 - boundSlack)
}

// mayPass reports whether a pair of keywords with ratios ru and rv can
// pass the test at some count. For ru ≤ rv, once it fails it fails for
// every larger rv.
func (b pairBound) mayPass(ru, rv float64) bool {
	if ru > rv {
		ru, rv = rv, ru
	}
	return ru > b.t*rv
}
