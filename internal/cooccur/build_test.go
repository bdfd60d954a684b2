package cooccur

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faultfs"
)

func equivCorpus(t testing.TB, seed int64, posts int) *corpus.Collection {
	t.Helper()
	col, err := corpus.Generate(corpus.GeneratorConfig{
		Seed: seed, NumIntervals: 2, BackgroundPosts: posts,
		BackgroundVocab: 500, WordsPerPost: 8,
		Events: []corpus.Event{{Name: "e", Phases: []corpus.Phase{{
			Keywords: []string{"alpha", "beta", "gamma"}, Intervals: []int{0, 1}, Posts: posts / 10,
		}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// requireIdenticalGraphs asserts byte-identical Graph output: keyword
// table, document counts, and edge list (order included).
func requireIdenticalGraphs(t *testing.T, want, got *Graph, label string) {
	t.Helper()
	if want.N != got.N {
		t.Fatalf("%s: N = %d, want %d", label, got.N, want.N)
	}
	if !slices.Equal(want.Keywords, got.Keywords) {
		t.Fatalf("%s: Keywords differ (%d vs %d entries)", label, len(got.Keywords), len(want.Keywords))
	}
	if !slices.Equal(want.DocCount, got.DocCount) {
		t.Fatalf("%s: DocCount differs", label)
	}
	if !slices.Equal(want.Edges, got.Edges) {
		if len(want.Edges) != len(got.Edges) {
			t.Fatalf("%s: %d edges, want %d", label, len(got.Edges), len(want.Edges))
		}
		for i := range want.Edges {
			if want.Edges[i] != got.Edges[i] {
				t.Fatalf("%s: edge %d = %+v, want %+v", label, i, got.Edges[i], want.Edges[i])
			}
		}
	}
	for i, w := range want.Keywords {
		id, ok := got.KeywordID(w)
		if !ok || id != int32(i) {
			t.Fatalf("%s: index out of sync for %q: id %d ok=%t, want %d", label, w, id, ok, i)
		}
	}
}

// naiveGraph is the oracle for Build: it counts A(u) and A(u,v) with a
// map keyed by the keyword strings, straight from the documents of
// intervals [from, to], and lays the counts out in Build's canonical
// form.
func naiveGraph(col *corpus.Collection, from, to int, minCount int64) *Graph {
	counts := map[[2]string]int64{}
	var n int64
	for _, iv := range col.Intervals[from : to+1] {
		for _, d := range iv.Docs {
			n++
			kws := slices.Clone(d.Keywords)
			slices.Sort(kws)
			kws = slices.Compact(kws)
			for i, u := range kws {
				counts[[2]string{u, u}]++
				for _, v := range kws[i+1:] {
					counts[[2]string{u, v}]++
				}
			}
		}
	}
	g := &Graph{N: n}
	for k := range counts {
		if k[0] == k[1] {
			g.Keywords = append(g.Keywords, k[0])
		}
	}
	slices.Sort(g.Keywords)
	id := make(map[string]int32, len(g.Keywords))
	for i, w := range g.Keywords {
		id[w] = int32(i)
		g.DocCount = append(g.DocCount, counts[[2]string{w, w}])
	}
	for k, c := range counts {
		if k[0] != k[1] && c >= minCount {
			g.Edges = append(g.Edges, Edge{U: id[k[0]], V: id[k[1]], Count: c})
		}
	}
	slices.SortFunc(g.Edges, compareEdges)
	return g
}

// spillRow is one merge shape of the spill route: the options that
// produce it and a check of the build's spillStats.
type spillRow struct {
	name  string
	opts  BuildOptions
	shape func(spillStats) bool
}

// spillRows returns the spill route's three merge shapes for a build of
// entries distinct keys (edges plus keywords): one table spill while
// counting (plus the leftover run), several runs merged at once, and a
// spill per document, so many runs that the fan-in pass runs twice.
func spillRows(entries int) []spillRow {
	return []spillRow{
		{"one spill", BuildOptions{MemBudget: entries * pairEntryBytes * 3 / 4}, func(s spillStats) bool {
			return s.spills == 2 && s.fanInPasses == 0
		}},
		{"many runs", BuildOptions{MemBudget: entries * pairEntryBytes / 5}, func(s spillStats) bool {
			return s.spills > 2 && s.spills <= maxFanIn && s.fanInPasses == 0
		}},
		{"fan-in", BuildOptions{MemBudget: 512}, func(s spillStats) bool {
			return s.fanInPasses == 2
		}},
	}
}

// TestBuildMatchesNaiveCount holds the one counting path to the
// map-based oracle on the in-memory route and on each merge shape of
// the spill route, with and without the early MinPairCount filter.
func TestBuildMatchesNaiveCount(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		col := equivCorpus(t, seed, 300)
		full := naiveGraph(col, 0, 1, 1)
		rows := append([]spillRow{{"in memory", BuildOptions{}, func(s spillStats) bool { return s == spillStats{} }}},
			spillRows(len(full.Edges)+len(full.Keywords))...)
		for _, minCount := range []int64{1, 2} {
			want := naiveGraph(col, 0, 1, minCount)
			if len(want.Edges) == 0 {
				t.Fatalf("seed %d: oracle graph has no edges", seed)
			}
			for _, row := range rows {
				opts := row.opts
				opts.MinPairCount = minCount
				label := fmt.Sprintf("seed=%d %s %+v", seed, row.name, opts)
				g, st, err := buildCtx(context.Background(), col, 0, 1, opts, faultfs.OS())
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !row.shape(st) {
					t.Fatalf("%s: spill shape %+v", label, st)
				}
				requireIdenticalGraphs(t, want, g, label)
			}
		}
	}
}

// buildConcurrently runs one Build per options value, all at once, the
// way the Engine's interval pool runs builds side by side.
func buildConcurrently(t *testing.T, col *corpus.Collection, all []BuildOptions) []*Graph {
	t.Helper()
	graphs := make([]*Graph, len(all))
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, opts := range all {
		wg.Add(1)
		go func() {
			defer wg.Done()
			graphs[i], errs[i] = Build(col, 0, 1, opts)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%+v: %v", all[i], err)
		}
	}
	return graphs
}

// TestParallelMatchesSequential checks that builds running side by
// side, on the in-memory route and each merge shape of the spill route,
// each produce the graph the map-based oracle counts for the same
// documents.
func TestParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		col := equivCorpus(t, seed, 300)
		want := naiveGraph(col, 0, 1, 1)
		all := []BuildOptions{{}, {}}
		for _, row := range spillRows(len(want.Edges) + len(want.Keywords)) {
			all = append(all, row.opts, row.opts)
		}
		for i, g := range buildConcurrently(t, col, all) {
			requireIdenticalGraphs(t, want, g, fmt.Sprintf("seed=%d build %d %+v", seed, i, all[i]))
		}
	}
}

// TestMinPairCountParallel checks the early triplet filter on both
// aggregation routes, with the builds running side by side: a filtered
// graph keeps every keyword and document count of the unfiltered one,
// and exactly its edges of count at least the threshold.
func TestMinPairCountParallel(t *testing.T) {
	col := equivCorpus(t, 13, 250)
	full := naiveGraph(col, 0, 1, 1)
	var all []BuildOptions
	for _, minCount := range []int64{2, 3, 5} {
		for _, budget := range []int{0, 1 << 12} {
			all = append(all, BuildOptions{MinPairCount: minCount, MemBudget: budget})
		}
	}
	for i, g := range buildConcurrently(t, col, all) {
		opts := all[i]
		want := &Graph{N: full.N, Keywords: full.Keywords, DocCount: full.DocCount}
		for _, e := range full.Edges {
			if e.Count >= opts.MinPairCount {
				want.Edges = append(want.Edges, e)
			}
		}
		if len(want.Edges) == 0 || len(want.Edges) == len(full.Edges) {
			t.Fatalf("MinPairCount %d keeps %d of %d edges; the corpus does not exercise the filter",
				opts.MinPairCount, len(want.Edges), len(full.Edges))
		}
		requireIdenticalGraphs(t, want, g, fmt.Sprintf("minpair=%d budget=%d", opts.MinPairCount, opts.MemBudget))
	}
}

// TestSequentialSpillMatches forces the build through each merge shape
// of the spill route and checks it against the in-memory fold.
func TestSequentialSpillMatches(t *testing.T) {
	col := equivCorpus(t, 5, 200)
	ref, err := Build(col, 0, 1, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range spillRows(len(ref.Edges) + len(ref.Keywords)) {
		spilled, err := Build(col, 0, 1, row.opts)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		requireIdenticalGraphs(t, ref, spilled, "sequential spill, "+row.name)
	}
}

// TestBuildCanonicalOrder pins the canonical representation: sorted
// keywords, edges sorted by (U, V) with U < V, and DocCount consistent
// with edge counts.
func TestBuildCanonicalOrder(t *testing.T) {
	col := equivCorpus(t, 9, 150)
	g, err := Build(col, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(g.Keywords) {
		t.Fatal("keywords not sorted")
	}
	for i, e := range g.Edges {
		if e.U >= e.V {
			t.Fatalf("edge %d has U >= V: %+v", i, e)
		}
		if i > 0 && compareEdges(g.Edges[i-1], e) >= 0 {
			t.Fatalf("edges out of order at %d: %+v then %+v", i, g.Edges[i-1], e)
		}
		if e.Count > g.DocCount[e.U] || e.Count > g.DocCount[e.V] {
			t.Fatalf("edge %d count %d exceeds endpoint doc counts", i, e.Count)
		}
	}
}

// TestSpillRecordRoundTrip pins the 16-byte spill codec: every
// (key, count) survives, and bytewise record order is key order.
func TestSpillRecordRoundTrip(t *testing.T) {
	keys := []uint64{0, 1, pairKey(0, 2), pairKey(123456, 654321), pairKey(1<<31-1, 1<<31-1)}
	counts := []int64{1, 7, 1 << 40}
	var buf, prev [spillRecordLen]byte
	for i, k := range keys {
		for _, c := range counts {
			putSpillRecord(buf[:], k, c)
			if gk, gc := spillRecord(buf[:]); gk != k || gc != c {
				t.Fatalf("round trip (%d,%d) → (%d,%d)", k, c, gk, gc)
			}
		}
		if i > 0 && bytes.Compare(prev[:], buf[:]) >= 0 {
			t.Fatalf("record of key %d does not sort after key %d", k, keys[i-1])
		}
		prev = buf
	}
}

// TestPairTable exercises the open-addressing table directly: growth,
// sizing up front, duplicate accumulation, extraction and reset.
func TestPairTable(t *testing.T) {
	pt := newPairTable(0)
	const n = 5000
	for i := 0; i < n; i++ {
		k := pairKey(int32(i%100), int32(i%700))
		pt.add(k, 1)
		pt.add(k, 2)
	}
	entries := pt.appendEntries(nil)
	if len(entries) != pt.n {
		t.Fatalf("extracted %d entries, table says %d", len(entries), pt.n)
	}
	var total int64
	for _, e := range entries {
		total += e.count
	}
	if total != 3*n {
		t.Fatalf("total count %d, want %d", total, 3*n)
	}
	sortEntries(entries)
	for i := 1; i < len(entries); i++ {
		if entries[i-1].key >= entries[i].key {
			t.Fatalf("entries not strictly ascending at %d", i)
		}
	}
	grown := len(pt.slots)
	// A table sized for these entries starts at the size growth
	// reached and holds them without growing.
	sized := newPairTable(len(entries))
	for _, e := range entries {
		sized.add(e.key, e.count)
	}
	if len(sized.slots) != grown {
		t.Fatalf("table sized for %d entries has %d slots, grown table %d", len(entries), len(sized.slots), grown)
	}
	pt.reset()
	if pt.n != 0 || len(pt.slots) != grown || len(pt.appendEntries(nil)) != 0 {
		t.Fatalf("reset left n=%d cap=%d (was %d)", pt.n, len(pt.slots), grown)
	}
	pt.add(pairKey(1, 2), 5)
	if got := pt.appendEntries(nil); len(got) != 1 || got[0] != (pairEntry{key: pairKey(1, 2), count: 5}) {
		t.Fatalf("table after reset holds %v", got)
	}
}
