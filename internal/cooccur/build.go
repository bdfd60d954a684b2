package cooccur

import (
	"context"
	"fmt"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/stats"
)

// BuildOptions configures graph construction.
type BuildOptions struct {
	// SortMemoryBudget is accepted and ignored: a spill is one sorted
	// run of the table, and the merge reads every run through one fixed
	// buffer. The field stays only because bench/build.go names it.
	SortMemoryBudget int
	// MinPairCount drops triplets with A(u,v) below this value before
	// statistics are computed. The paper's graphs keep everything
	// (threshold 1); larger corpora benefit from dropping singleton
	// noise pairs early. Zero means 1.
	MinPairCount int64
	// MemBudget bounds the resident bytes of the pair-counting hash
	// table. A table over budget spills as a sorted run to the build's
	// one temp file; small and medium intervals never spill and are
	// aggregated entirely in memory. Zero means DefaultMemBudget.
	MemBudget int
}

// DefaultMemBudget is the default pair-table budget (256 MiB).
const DefaultMemBudget = 256 << 20

// Build constructs the keyword graph for the documents of intervals
// [from, to] of c (inclusive; pass the same value twice for a single
// day, as in Table 1).
//
// The output is canonical regardless of MemBudget: keywords are sorted
// lexicographically (ids are ranks in that order), DocCount is aligned
// with Keywords, and Edges is sorted by (U, V) with U < V. The
// in-memory and spill routes therefore produce identical graphs.
func Build(c *corpus.Collection, from, to int, opts BuildOptions) (*Graph, error) {
	return BuildCtx(context.Background(), c, from, to, opts)
}

// BuildCtx is Build with cancellation: the counting pass polls ctx
// every few thousand documents and the spill merge every 4 096
// records, so a canceled build returns promptly instead of finishing
// the interval. A build that spills keeps its runs in one temp file,
// removed before BuildCtx returns on every path.
func BuildCtx(ctx context.Context, c *corpus.Collection, from, to int, opts BuildOptions) (*Graph, error) {
	g, _, err := new(Builder).buildCtx(ctx, c, from, to, opts, nil, faultfs.OS())
	return g, err
}

// BuildPrunedCtx builds G′ directly: the graph that BuildCtx followed
// by AnnotateStats and Prune(chi2Critical, rhoThreshold) returns, equal
// to it field for field, without ever holding the unpruned edges. Pairs
// that cannot pass the test at any count are never counted (see
// pairBound), and every triplet is tested as it leaves the fold.
func BuildPrunedCtx(ctx context.Context, c *corpus.Collection, from, to int, opts BuildOptions, chi2Critical, rhoThreshold float64) (*Graph, error) {
	g, _, err := new(Builder).buildCtx(ctx, c, from, to, opts, &threshold{chi2: chi2Critical, rho: rhoThreshold}, faultfs.OS())
	return g, err
}

// BuildPrunedTokens is BuildPrunedCtx over documents already
// tokenized: G′ of the documents tk was made from.
func BuildPrunedTokens(ctx context.Context, tk *corpus.Tokens, opts BuildOptions, chi2Critical, rhoThreshold float64) (*Graph, error) {
	return new(Builder).BuildPruned(ctx, tk, opts, chi2Critical, rhoThreshold)
}

// Builder is the one keyword-graph build, kept from build to build: it
// owns what a build throws away — the pair table, which also holds its
// entries while they are sorted and folded or spilled, the spill buffer
// and the merge's arrays, A(u), the bound ratios and the per-document
// scratch — and the pruner's remap and G′'s arrays. A worker that
// builds interval after interval holds one and allocates them once.
// The graph a build returns shares the Builder's arrays, so it is
// valid until the Builder's next build; the package's Build functions
// each run a fresh Builder, so what they return is the caller's alone.
// A spill file is still per build, removed before the build returns.
// The zero value is ready to use; a Builder is not safe for concurrent
// use.
type Builder struct {
	cn       counter
	docCount []int64 // A(u) by keyword id
	prune    pruner
}

// BuildPruned is BuildPrunedTokens on b's arrays: the returned G′ is
// valid until b's next build.
func (b *Builder) BuildPruned(ctx context.Context, tk *corpus.Tokens, opts BuildOptions, chi2Critical, rhoThreshold float64) (*Graph, error) {
	g, _, err := b.build(ctx, tk, opts, &threshold{chi2: chi2Critical, rho: rhoThreshold}, faultfs.OS())
	return g, err
}

// threshold is the χ²/ρ test of a pruned build: an edge is kept when
// its χ² exceeds chi2 and its ρ exceeds rho.
type threshold struct{ chi2, rho float64 }

// buildCtx is BuildCtx over the filesystem fs, pruned at th unless th
// is nil, reporting what the spill route did.
func (b *Builder) buildCtx(ctx context.Context, c *corpus.Collection, from, to int, opts BuildOptions, th *threshold, fs faultfs.FS) (*Graph, spillStats, error) {
	if from < 0 || to >= len(c.Intervals) || from > to {
		return nil, spillStats{}, fmt.Errorf("cooccur: interval range [%d,%d] outside collection of %d intervals", from, to, len(c.Intervals))
	}
	return b.build(ctx, corpus.Tokenize(c.Intervals[from:to+1]), opts, th, fs)
}

// build is the one keyword-graph build, over tokenized documents.
func (b *Builder) build(ctx context.Context, tk *corpus.Tokens, opts BuildOptions, th *threshold, fs faultfs.FS) (*Graph, spillStats, error) {
	minCount := opts.MinPairCount
	if minCount <= 0 {
		minCount = 1
	}
	memBudget := opts.MemBudget
	if memBudget <= 0 {
		memBudget = DefaultMemBudget
	}

	// Pass 1: A(u). The token ranks are the keyword ids, so A(u) is the
	// number of times u's rank occurs (a document's keywords are a set).
	// The pass also sums the pair occurrences pass 2 may count, an upper
	// bound on the table's entries.
	n := tk.NumDocs()
	docCount := resize(b.docCount, len(tk.Words))
	b.docCount = docCount
	clear(docCount)
	for _, id := range tk.IDs {
		docCount[id]++
	}
	var pairs int64
	maxKeywords := 0
	for d := range n {
		k := int(tk.Off[d+1] - tk.Off[d])
		pairs += int64(k) * int64(k-1) / 2
		maxKeywords = max(maxKeywords, k)
	}
	g := &Graph{
		N:        int64(n),
		Keywords: tk.Words,
		DocCount: docCount,
	}
	f := &fold{g: g, minCount: minCount}
	if th != nil {
		b.prune.reset(g, *th)
		f.prune = &b.prune
	}

	// Pass 2: pair counting into one table, spilling a sorted run to the
	// build's spill file whenever the table outgrows the budget. A table
	// that may reach the budget starts at the size it would spill at.
	var tableEntries int
	if pairs*pairEntryBytes >= int64(memBudget) {
		tableEntries = (memBudget + pairEntryBytes - 1) / pairEntryBytes
	}
	cn := &b.cn
	cn.table.prepare(tableEntries)
	cn.budget = memBudget
	cn.bound.reset(g, th)
	cn.file.reset(fs)
	cn.ids = resize(cn.ids, maxKeywords)
	cn.rs = resize(cn.rs, maxKeywords)
	defer cn.file.close()
	const pollEvery = 1024
	for d := range n {
		if (d+1)%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, cn.file.stats, err
			}
		}
		if err := cn.countDoc(tk.Doc(d)); err != nil {
			return nil, cn.file.stats, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, cn.file.stats, err
	}

	// Pass 3: fold the counts into the canonical triplet list.
	if cn.file.f != nil {
		// The leftover entries join the spilled runs as the last run.
		if err := cn.spill(); err != nil {
			return nil, cn.file.stats, err
		}
		if err := cn.file.aggregate(ctx, f); err != nil {
			return nil, cn.file.stats, err
		}
		return f.graph(), cn.file.stats, nil
	}
	entries := cn.table.drain()
	sortEntries(entries)
	f.reserve(len(entries))
	for _, e := range entries {
		f.add(e.key, e.count)
	}
	return f.graph(), cn.file.stats, nil
}

// fold turns the aggregated pair counts, handed over in ascending key
// order, into the graph's edges: every count of at least minCount
// becomes an edge of g, or, in a pruned build, is annotated and offered
// to prune.
type fold struct {
	g        *Graph
	minCount int64
	prune    *pruner // nil for the unpruned graph
}

// reserve sizes the unpruned graph's Edges for at most records
// triplets. A pruned build keeps a small share of them, so its edges
// grow by append instead.
func (f *fold) reserve(records int) {
	if f.prune == nil && records > 0 {
		f.g.Edges = make([]Edge, 0, records)
	}
}

// add folds one key's summed count. A document that lists a keyword
// twice, against Document's set contract, yields a (u,u) key, which is
// no edge.
func (f *fold) add(key uint64, count int64) {
	u, v := splitPairKey(key)
	if count < f.minCount || u == v {
		return
	}
	e := Edge{U: u, V: v, Count: count}
	if f.prune == nil {
		f.g.Edges = append(f.g.Edges, e)
		return
	}
	g := f.g
	au, av := g.DocCount[u], g.DocCount[v]
	e.Chi2 = stats.ChiSquared(g.N, au, av, count)
	e.Rho = stats.Correlation(g.N, au, av, count)
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
	r []float64 // per keyword id
	t float64   // T, less a relative slack so the bound errs toward keeping
}

// boundSlack is the bound's relative slack: the exact test at the fold
// works in floating point, so the bound keeps pairs within 1e-9 of T.
const boundSlack = 1e-9

// reset makes b the bound of g's keywords under th, keeping b's ratio
// array; nil th, or a negative ρ threshold, gives the bound that keeps
// every pair.
func (b *pairBound) reset(g *Graph, th *threshold) {
	b.r, b.t = resize(b.r, len(g.DocCount)), 0
	if th == nil || th.rho < 0 {
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
// pass the test at some count.
func (b pairBound) mayPass(ru, rv float64) bool {
	if ru > rv {
		ru, rv = rv, ru
	}
	return ru > b.t*rv
}

// counter is the counting state of a build; a Builder keeps its
// arrays for the next.
type counter struct {
	table  pairTable
	budget int
	bound  pairBound
	file   spillFile

	ids []int32   // per-document keyword-id scratch, sized per build
	rs  []float64 // the ids' bound ratios, sized per build
}

// countDoc counts every pair of one document's keywords that may pass
// the bound into the table, spilling when the table outgrows the
// budget. The keywords are ordered by ratio first, so a keyword's
// partners that may pass are a prefix of the keywords after it: once
// mayPass fails, it fails for every larger ratio.
func (cn *counter) countDoc(keywords []int32) error {
	ids, rs := cn.ids[:0], cn.rs[:0]
	for _, id := range keywords {
		ids = append(ids, id)
		rs = append(rs, cn.bound.r[id])
	}
	cn.ids, cn.rs = ids, rs
	for i := 1; i < len(rs); i++ {
		r, id := rs[i], ids[i]
		j := i
		for ; j > 0 && rs[j-1] > r; j-- {
			rs[j], ids[j] = rs[j-1], ids[j-1]
		}
		rs[j], ids[j] = r, id
	}
	for a := 0; a < len(ids); a++ {
		for b := a + 1; b < len(ids) && cn.bound.mayPass(rs[a], rs[b]); b++ {
			cn.table.add(pairKey(ids[a], ids[b]), 1)
		}
	}
	if cn.table.entryBytes() >= cn.budget {
		return cn.spill()
	}
	return nil
}

// spill appends the table's entries to the spill file as one sorted
// run and resets the table.
func (cn *counter) spill() error {
	if cn.table.n == 0 {
		return nil
	}
	entries := cn.table.drain()
	sortEntries(entries)
	if err := cn.file.appendRun(entries); err != nil {
		return err
	}
	cn.table.reset()
	return nil
}
