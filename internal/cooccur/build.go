package cooccur

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/corpus"
	"repro/internal/faultfs"
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
	g, _, err := buildCtx(ctx, c, from, to, opts, faultfs.OS())
	return g, err
}

// buildCtx is BuildCtx over the filesystem fs, reporting what the spill
// route did.
func buildCtx(ctx context.Context, c *corpus.Collection, from, to int, opts BuildOptions, fs faultfs.FS) (*Graph, spillStats, error) {
	if from < 0 || to >= len(c.Intervals) || from > to {
		return nil, spillStats{}, fmt.Errorf("cooccur: interval range [%d,%d] outside collection of %d intervals", from, to, len(c.Intervals))
	}
	minCount := opts.MinPairCount
	if minCount <= 0 {
		minCount = 1
	}
	memBudget := opts.MemBudget
	if memBudget <= 0 {
		memBudget = DefaultMemBudget
	}
	ivs := c.Intervals[from : to+1]

	// Pass 1: the keyword dictionary. Ids are ranks in the sorted
	// vocabulary, so they (and everything derived from them) do not
	// depend on document order. The pass also sums the pair occurrences
	// pass 2 will count, an upper bound on the table's entries.
	index := make(map[string]int32, 1024)
	var n, pairs int64
	for _, iv := range ivs {
		n += int64(len(iv.Docs))
		for _, d := range iv.Docs {
			k := int64(len(d.Keywords))
			pairs += k * (k + 1) / 2
			for _, w := range d.Keywords {
				index[w] = 0
			}
		}
	}
	vocab := make([]string, 0, len(index))
	for w := range index {
		vocab = append(vocab, w)
	}
	slices.Sort(vocab)
	for i, w := range vocab {
		index[w] = int32(i)
	}
	g := &Graph{
		N:        n,
		Keywords: vocab,
		DocCount: make([]int64, len(vocab)),
		index:    index,
	}

	// Pass 2: pair counting into one table, spilling a sorted run to the
	// build's spill file whenever the table outgrows the budget. A table
	// that may reach the budget starts at the size it would spill at.
	var tableEntries int
	if pairs*pairEntryBytes >= int64(memBudget) {
		tableEntries = (memBudget + pairEntryBytes - 1) / pairEntryBytes
	}
	cn := &counter{
		table:  newPairTable(tableEntries),
		budget: memBudget,
		index:  index,
		file:   spillFile{fs: fs},
	}
	defer cn.file.close()
	const pollEvery = 1024
	seen := 0
	for _, iv := range ivs {
		for _, d := range iv.Docs {
			if seen++; seen%pollEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, cn.file.stats, err
				}
			}
			if err := cn.countDoc(d.Keywords); err != nil {
				return nil, cn.file.stats, err
			}
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
		if err := cn.file.aggregate(ctx, g, minCount); err != nil {
			return nil, cn.file.stats, err
		}
		return g, cn.file.stats, nil
	}
	entries := cn.table.appendEntries(nil)
	sortEntries(entries)
	if edges := len(entries) - len(vocab); edges > 0 {
		g.Edges = make([]Edge, 0, edges)
	}
	for _, e := range entries {
		g.addTriplet(e.key, e.count, minCount)
	}
	return g, cn.file.stats, nil
}

// addTriplet records one aggregated count: a diagonal key is A(u), any
// other key an edge, kept when its count reaches minCount. Keys must
// arrive in ascending order so Edges stays sorted by (U, V).
func (g *Graph) addTriplet(key uint64, count, minCount int64) {
	u, v := splitPairKey(key)
	if u == v {
		g.DocCount[u] = count
	} else if count >= minCount {
		g.Edges = append(g.Edges, Edge{U: u, V: v, Count: count})
	}
}

// counter is the counting state of one build.
type counter struct {
	table  *pairTable
	budget int
	index  map[string]int32
	file   spillFile

	ids     []int32     // per-document keyword-id scratch
	scratch []pairEntry // spill extraction scratch
}

// countDoc counts every pair of one document's keywords (including the
// diagonal (u,u) entries that become A(u)) into the table, spilling
// when the table outgrows the budget.
func (cn *counter) countDoc(keywords []string) error {
	ids := cn.ids[:0]
	for _, w := range keywords {
		ids = append(ids, cn.index[w])
	}
	cn.ids = ids
	for a := 0; a < len(ids); a++ {
		cn.table.add(pairKey(ids[a], ids[a]), 1)
		for b := a + 1; b < len(ids); b++ {
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
	entries := cn.table.appendEntries(cn.scratch[:0])
	cn.scratch = entries[:0]
	sortEntries(entries)
	if err := cn.file.appendRun(entries); err != nil {
		return err
	}
	cn.table.reset()
	return nil
}
