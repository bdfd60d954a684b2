package cooccur

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/corpus"
	"repro/internal/extsort"
)

// BuildOptions configures graph construction.
type BuildOptions struct {
	// SortMemoryBudget bounds the byte size of each sorted run a spill
	// writes to the external sorter (and the sorter's own buffering),
	// so the sort layer's transient memory stays bounded independently
	// of MemBudget. Zero means runs are spilled whole.
	SortMemoryBudget int
	// MinPairCount drops triplets with A(u,v) below this value before
	// statistics are computed. The paper's graphs keep everything
	// (threshold 1); larger corpora benefit from dropping singleton
	// noise pairs early. Zero means 1.
	MinPairCount int64
	// MemBudget bounds the resident bytes of the pair-counting hash
	// table. A table over budget spills as sorted runs through
	// internal/extsort; small and medium intervals never spill and are
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
// every few thousand documents, the spill path hands ctx to the
// external sorter's merge loops, and the aggregation pass polls it per
// record batch, so a canceled build returns promptly instead of
// finishing the interval.
func BuildCtx(ctx context.Context, c *corpus.Collection, from, to int, opts BuildOptions) (*Graph, error) {
	if from < 0 || to >= len(c.Intervals) || from > to {
		return nil, fmt.Errorf("cooccur: interval range [%d,%d] outside collection of %d intervals", from, to, len(c.Intervals))
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
	// depend on document order.
	index := make(map[string]int32, 1024)
	var n int64
	for _, iv := range ivs {
		n += int64(len(iv.Docs))
		for _, d := range iv.Docs {
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

	// Pass 2: pair counting into one table, spilling sorted runs into
	// the external sorter whenever the table outgrows the budget.
	sorter := extsort.NewWithOptions(extsort.Options{
		MemoryBudget: opts.SortMemoryBudget,
		Ctx:          ctx,
	})
	// Error paths below may abandon the sorter after spills; Discard
	// removes its temp files then (and is a no-op once aggregateSpilled's
	// iterator has taken ownership).
	defer sorter.Discard()
	cn := &counter{
		table:      newPairTable(),
		budget:     memBudget,
		sorter:     sorter,
		sortBudget: opts.SortMemoryBudget,
		index:      index,
	}
	const pollEvery = 1024
	seen := 0
	for _, iv := range ivs {
		for _, d := range iv.Docs {
			if seen++; seen%pollEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if err := cn.countDoc(d.Keywords); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 3: fold the counts into the canonical triplet list.
	if cn.spilled {
		if err := aggregateSpilled(ctx, g, cn, minCount); err != nil {
			return nil, err
		}
		return g, nil
	}
	entries := cn.table.appendEntries(nil)
	sortEntries(entries)
	if edges := len(entries) - len(vocab); edges > 0 {
		g.Edges = make([]Edge, 0, edges)
	}
	for _, e := range entries {
		g.addTriplet(e.key, e.count, minCount)
	}
	return g, nil
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
	table      *pairTable
	budget     int
	sorter     *extsort.Sorter
	sortBudget int // max bytes per spilled run; 0 = whole table
	index      map[string]int32
	spilled    bool

	ids     []int32     // per-document keyword-id scratch
	scratch []pairEntry // spill extraction scratch
	recBuf  [spillRecordLen]byte
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

// spill writes the table's entries as sorted runs and resets it.
func (cn *counter) spill() error {
	if cn.table.n == 0 {
		return nil
	}
	entries := cn.table.appendEntries(cn.scratch[:0])
	cn.scratch = entries[:0]
	sortEntries(entries)
	// Honor the sort-layer budget by splitting the sorted batch into
	// runs of bounded byte size; each slice is itself sorted, so every
	// piece is a valid run.
	perRun := len(entries)
	if cn.sortBudget > 0 {
		perRun = max(1, cn.sortBudget/spillRecordLen)
	}
	for len(entries) > 0 {
		n := min(perRun, len(entries))
		if err := cn.writeRun(entries[:n]); err != nil {
			return err
		}
		entries = entries[n:]
	}
	cn.table.reset()
	cn.spilled = true
	return nil
}

// writeRun streams sorted entries into the sorter as one run.
func (cn *counter) writeRun(entries []pairEntry) error {
	run, err := cn.sorter.NewRun()
	if err != nil {
		return err
	}
	for _, e := range entries {
		putSpillRecord(&cn.recBuf, e.key, e.count)
		if err := run.Append(cn.recBuf[:]); err != nil {
			run.Close()
			return err
		}
	}
	return run.Close()
}

// aggregateSpilled drains the counts through the external sorter and
// folds the globally sorted record stream into the graph. Used whenever
// the table spilled: the leftover in-memory entries join the spilled
// runs as final runs, and the merged stream interleaves them all.
func aggregateSpilled(ctx context.Context, g *Graph, cn *counter, minCount int64) error {
	if err := cn.spill(); err != nil {
		return err
	}
	it, err := cn.sorter.Sort()
	if err != nil {
		return err
	}
	defer it.Close()
	var (
		curKey   uint64
		curCount int64
		started  bool
		seen     int
	)
	const pollEvery = 4096
	for {
		if seen++; seen%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rec, ok := it.Next()
		if !ok {
			break
		}
		key, count, err := parseSpillRecord(rec)
		if err != nil {
			return err
		}
		if started && key == curKey {
			curCount += count
			continue
		}
		if started {
			g.addTriplet(curKey, curCount, minCount)
		}
		curKey, curCount, started = key, count, true
	}
	if err := it.Err(); err != nil {
		return err
	}
	if started {
		g.addTriplet(curKey, curCount, minCount)
	}
	return nil
}
