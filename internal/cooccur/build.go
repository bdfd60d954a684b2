package cooccur

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/corpus"
	"repro/internal/extsort"
)

// BuildOptions configures graph construction.
type BuildOptions struct {
	// SortMemoryBudget bounds the byte size of each sorted run a shard
	// spills to the external sorter (and the sorter's own buffering),
	// so the sort layer's transient memory stays bounded independently
	// of MemBudget. Zero means runs are spilled whole.
	SortMemoryBudget int
	// MinPairCount drops triplets with A(u,v) below this value before
	// statistics are computed. The paper's graphs keep everything
	// (threshold 1); larger corpora benefit from dropping singleton
	// noise pairs early. Zero means 1.
	MinPairCount int64
	// Parallelism is the number of shard workers counting pairs (and
	// the width of the downstream merge, statistics and pruning
	// passes). Zero means GOMAXPROCS; 1 selects the fully sequential
	// path, preserved for ablation benchmarks.
	Parallelism int
	// MemBudget bounds the resident bytes of the pair-counting hash
	// tables, summed across shards. A shard whose share is exceeded
	// spills its table as a sorted run through internal/extsort; small
	// and medium intervals never spill and are aggregated entirely in
	// memory. Zero means DefaultMemBudget.
	MemBudget int
}

// DefaultMemBudget is the default total pair-table budget (256 MiB).
const DefaultMemBudget = 256 << 20

// Build constructs the keyword graph for the documents of intervals
// [from, to] of c (inclusive; pass the same value twice for a single
// day, as in Table 1).
//
// The output is canonical regardless of Parallelism and MemBudget:
// keywords are sorted lexicographically (ids are ranks in that order),
// DocCount is aligned with Keywords, and Edges is sorted by (U, V) with
// U < V. The parallel and sequential paths therefore produce identical
// graphs; the equivalence tests assert this byte for byte.
func Build(c *corpus.Collection, from, to int, opts BuildOptions) (*Graph, error) {
	return BuildCtx(context.Background(), c, from, to, opts)
}

// BuildCtx is Build with cancellation: the counting pass polls ctx
// every few thousand documents, the spill path hands ctx to the
// external sorter's merge loops, and the aggregation passes poll it per
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
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	memBudget := opts.MemBudget
	if memBudget <= 0 {
		memBudget = DefaultMemBudget
	}

	var docs []*corpus.Document
	for i := from; i <= to; i++ {
		for j := range c.Intervals[i].Docs {
			docs = append(docs, &c.Intervals[i].Docs[j])
		}
	}

	// Pass 1: the keyword dictionary. Ids are ranks in the sorted
	// vocabulary, making them (and everything derived from them)
	// independent of document partitioning.
	vocab := buildVocab(docs, par)
	index := make(map[string]int32, len(vocab))
	for i, w := range vocab {
		index[w] = int32(i)
	}
	g := &Graph{
		N:        int64(len(docs)),
		Keywords: vocab,
		DocCount: make([]int64, len(vocab)),
		index:    index,
		par:      par,
	}

	// Pass 2: sharded pair counting. Each worker owns one shard table;
	// a shard over its budget share spills a sorted run into the shared
	// external sorter.
	sorter := extsort.NewWithOptions(extsort.Options{
		MemoryBudget: opts.SortMemoryBudget,
		Parallelism:  par,
		Ctx:          ctx,
	})
	// Error paths below may abandon the sorter after shards have
	// spilled; Discard removes its temp files then (and is a no-op
	// once aggregateSpilled's iterator has taken ownership).
	defer sorter.Discard()
	shards := make([]*buildShard, par)
	for i := range shards {
		shards[i] = &buildShard{
			table:      newPairTable(),
			budget:     memBudget / par,
			sorter:     sorter,
			sortBudget: opts.SortMemoryBudget,
			index:      index,
			ctx:        ctx,
		}
	}
	if par == 1 {
		if err := shards[0].processDocs(docs); err != nil {
			return nil, err
		}
	} else {
		var wg sync.WaitGroup
		errs := make([]error, par)
		chunk := (len(docs) + par - 1) / par
		for w := 0; w < par; w++ {
			lo := w * chunk
			if lo >= len(docs) {
				break
			}
			hi := min(lo+chunk, len(docs))
			wg.Add(1)
			go func(w int, part []*corpus.Document) {
				defer wg.Done()
				errs[w] = shards[w].processDocs(part)
			}(w, docs[lo:hi])
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	// Pass 3: aggregate shard tables into the canonical triplet list.
	spilled := false
	for _, sh := range shards {
		if sh.spilled {
			spilled = true
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var err error
	if spilled {
		err = aggregateSpilled(ctx, g, shards, sorter, minCount)
	} else {
		err = aggregateInMemory(g, shards, par, minCount)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// buildVocab returns the sorted set of distinct keywords across docs.
func buildVocab(docs []*corpus.Document, par int) []string {
	collect := func(part []*corpus.Document) []string {
		set := make(map[string]struct{}, 1024)
		for _, d := range part {
			for _, w := range d.Keywords {
				set[w] = struct{}{}
			}
		}
		words := make([]string, 0, len(set))
		for w := range set {
			words = append(words, w)
		}
		slices.Sort(words)
		return words
	}
	if par == 1 || len(docs) < 2*par {
		return collect(docs)
	}
	chunk := (len(docs) + par - 1) / par
	nChunks := (len(docs) + chunk - 1) / chunk
	locals := make([][]string, nChunks)
	var wg sync.WaitGroup
	for slot := 0; slot < nChunks; slot++ {
		lo := slot * chunk
		hi := min(lo+chunk, len(docs))
		wg.Add(1)
		go func(slot int, part []*corpus.Document) {
			defer wg.Done()
			locals[slot] = collect(part)
		}(slot, docs[lo:hi])
	}
	wg.Wait()
	return mergeSortedUnique(locals)
}

// mergeSortedUnique merges sorted duplicate-free lists into one sorted
// duplicate-free list with a loop-min scan (the list count is the
// worker count, so a heap would be overkill).
func mergeSortedUnique(lists [][]string) []string {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]string, 0, total)
	pos := make([]int, len(lists))
	for {
		best := -1
		for i, l := range lists {
			if pos[i] >= len(l) {
				continue
			}
			if best < 0 || l[pos[i]] < lists[best][pos[best]] {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		w := lists[best][pos[best]]
		pos[best]++
		if len(out) == 0 || out[len(out)-1] != w {
			out = append(out, w)
		}
	}
}

// buildShard is one worker's counting state.
type buildShard struct {
	table      *pairTable
	budget     int
	sorter     *extsort.Sorter
	sortBudget int // max bytes per spilled run; 0 = whole table
	index      map[string]int32
	ctx        context.Context
	spilled    bool

	ids     []int32     // per-document keyword-id scratch
	scratch []pairEntry // spill extraction scratch
	recBuf  [spillRecordLen]byte
}

// processDocs counts every pair (including the diagonal (u,u) entries
// that become A(u)) of each document into the shard table, spilling
// when the table outgrows the shard's budget share.
func (sh *buildShard) processDocs(docs []*corpus.Document) error {
	const pollEvery = 1024
	for di, d := range docs {
		if di%pollEvery == pollEvery-1 {
			if err := sh.ctx.Err(); err != nil {
				return err
			}
		}
		ids := sh.ids[:0]
		for _, w := range d.Keywords {
			ids = append(ids, sh.index[w])
		}
		sh.ids = ids
		for a := 0; a < len(ids); a++ {
			sh.table.add(pairKey(ids[a], ids[a]), 1)
			for b := a + 1; b < len(ids); b++ {
				sh.table.add(pairKey(ids[a], ids[b]), 1)
			}
		}
		if sh.table.entryBytes() >= sh.budget {
			if err := sh.spill(); err != nil {
				return err
			}
		}
	}
	return nil
}

// spill writes the table's entries as sorted runs and resets it.
func (sh *buildShard) spill() error {
	if sh.table.n == 0 {
		return nil
	}
	entries := sh.table.appendEntries(sh.scratch[:0])
	sh.scratch = entries[:0]
	sortEntries(entries)
	// Honor the sort-layer budget by splitting the sorted batch into
	// runs of bounded byte size; each slice is itself sorted, so every
	// piece is a valid run.
	perRun := len(entries)
	if sh.sortBudget > 0 {
		perRun = max(1, sh.sortBudget/spillRecordLen)
	}
	for len(entries) > 0 {
		n := min(perRun, len(entries))
		if err := sh.writeRun(entries[:n]); err != nil {
			return err
		}
		entries = entries[n:]
	}
	sh.table.reset()
	sh.spilled = true
	return nil
}

// writeRun streams sorted entries into the shared sorter as one run.
func (sh *buildShard) writeRun(entries []pairEntry) error {
	run, err := sh.sorter.NewRun()
	if err != nil {
		return err
	}
	for _, e := range entries {
		putSpillRecord(&sh.recBuf, e.key, e.count)
		if err := run.Append(sh.recBuf[:]); err != nil {
			run.Close()
			return err
		}
	}
	return run.Close()
}

// aggregateSpilled drains every shard through the external sorter and
// folds the globally sorted record stream into the graph. Used whenever
// any shard spilled: the merged stream already interleaves the spilled
// runs, so the leftover in-memory tables just join it as final runs.
func aggregateSpilled(ctx context.Context, g *Graph, shards []*buildShard, sorter *extsort.Sorter, minCount int64) error {
	for _, sh := range shards {
		if err := sh.spill(); err != nil {
			return err
		}
	}
	it, err := sorter.Sort()
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
	emit := func() {
		u, v := splitPairKey(curKey)
		if u == v {
			g.DocCount[u] = curCount
		} else if curCount >= minCount {
			g.Edges = append(g.Edges, Edge{U: u, V: v, Count: curCount})
		}
	}
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
			emit()
		}
		curKey, curCount, started = key, count, true
	}
	if err := it.Err(); err != nil {
		return err
	}
	if started {
		emit()
	}
	return nil
}

// aggregateInMemory merges the shard tables without touching the sort
// path: the key space is range-partitioned by leading keyword id, every
// shard's entries are bucketed by range in parallel, and each range is
// then sorted and folded independently — ranges are disjoint and
// ascending, so concatenating their outputs yields Edges sorted by
// (U, V) with no global sort.
func aggregateInMemory(g *Graph, shards []*buildShard, par int, minCount int64) error {
	v := len(g.Keywords)
	if v == 0 {
		return nil
	}
	nRanges := par * 4
	if nRanges > v {
		nRanges = v
	}
	rangeOf := func(key uint64) int {
		u := key >> 32
		return int(u * uint64(nRanges) / uint64(v))
	}

	// Bucket each shard's entries by range, in parallel across shards.
	buckets := make([][][]pairEntry, len(shards))
	var wg sync.WaitGroup
	for si, sh := range shards {
		wg.Add(1)
		go func(si int, sh *buildShard) {
			defer wg.Done()
			counts := make([]int, nRanges)
			t := sh.table
			for _, k := range t.slots {
				if k != 0 {
					counts[rangeOf(k-1)]++
				}
			}
			byRange := make([][]pairEntry, nRanges)
			for r, c := range counts {
				if c > 0 {
					byRange[r] = make([]pairEntry, 0, c)
				}
			}
			for i, k := range t.slots {
				if k != 0 {
					r := rangeOf(k - 1)
					byRange[r] = append(byRange[r], pairEntry{key: k - 1, count: t.counts[i]})
				}
			}
			buckets[si] = byRange
		}(si, sh)
	}
	wg.Wait()

	// Fold each range: gather entries from every shard, sort by key,
	// aggregate equal keys. DocCount writes are disjoint across ranges.
	edgesByRange := make([][]Edge, nRanges)
	rangeCh := make(chan int)
	workers := min(par, nRanges)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for r := range rangeCh {
				total := 0
				for si := range buckets {
					total += len(buckets[si][r])
				}
				if total == 0 {
					continue
				}
				gathered := make([]pairEntry, 0, total)
				for si := range buckets {
					gathered = append(gathered, buckets[si][r]...)
				}
				sortEntries(gathered)
				var edges []Edge
				for i := 0; i < len(gathered); {
					j := i + 1
					count := gathered[i].count
					for j < len(gathered) && gathered[j].key == gathered[i].key {
						count += gathered[j].count
						j++
					}
					u, v := splitPairKey(gathered[i].key)
					if u == v {
						g.DocCount[u] = count
					} else if count >= minCount {
						edges = append(edges, Edge{U: u, V: v, Count: count})
					}
					i = j
				}
				edgesByRange[r] = edges
			}
		}()
	}
	for r := 0; r < nRanges; r++ {
		rangeCh <- r
	}
	close(rangeCh)
	wg.Wait()

	total := 0
	for _, es := range edgesByRange {
		total += len(es)
	}
	if total == 0 {
		return nil
	}
	out := make([]Edge, 0, total)
	for _, es := range edgesByRange {
		out = append(out, es...)
	}
	g.Edges = out
	return nil
}
