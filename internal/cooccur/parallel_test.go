package cooccur

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/stats"
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

// TestParallelMatchesSequential is the tentpole equivalence guarantee:
// any worker count and any memory budget (spilling or not) must produce
// the exact graph the sequential in-memory path produces.
func TestParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		col := equivCorpus(t, seed, 300)
		ref, err := Build(col, 0, 1, BuildOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
		for _, par := range []int{0, 2, 3, 8} {
			for _, budget := range []int{0, 1 << 12} {
				label := fmt.Sprintf("seed=%d par=%d budget=%d", seed, par, budget)
				g, err := Build(col, 0, 1, BuildOptions{Parallelism: par, MemBudget: budget})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireIdenticalGraphs(t, ref, g, label)
			}
		}
	}
}

// TestSequentialSpillMatches forces the sequential path itself through
// the spill-and-merge route and checks it against the in-memory fold.
func TestSequentialSpillMatches(t *testing.T) {
	col := equivCorpus(t, 5, 200)
	ref, err := Build(col, 0, 1, BuildOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := Build(col, 0, 1, BuildOptions{Parallelism: 1, MemBudget: 1 << 10, SortMemoryBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalGraphs(t, ref, spilled, "sequential spill")
}

// TestBuildCanonicalOrder pins the canonical representation both paths
// share: lexicographically sorted keywords, edges sorted by (U, V) with
// U < V, and DocCount consistent with edge counts.
func TestBuildCanonicalOrder(t *testing.T) {
	col := equivCorpus(t, 9, 150)
	for _, par := range []int{1, 4} {
		g, err := Build(col, 0, 0, BuildOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSorted(g.Keywords) {
			t.Fatalf("par=%d: keywords not sorted", par)
		}
		for i, e := range g.Edges {
			if e.U >= e.V {
				t.Fatalf("par=%d: edge %d has U >= V: %+v", par, i, e)
			}
			if i > 0 && compareEdges(g.Edges[i-1], e) >= 0 {
				t.Fatalf("par=%d: edges out of order at %d: %+v then %+v", par, i, g.Edges[i-1], e)
			}
			if e.Count > g.DocCount[e.U] || e.Count > g.DocCount[e.V] {
				t.Fatalf("par=%d: edge %d count %d exceeds endpoint doc counts", par, i, e.Count)
			}
		}
	}
}

// TestParallelAnnotateAndPrune checks that the parallel statistics and
// pruning passes agree with the sequential ones on a graph large enough
// to cross the fan-out threshold.
func TestParallelAnnotateAndPrune(t *testing.T) {
	col := equivCorpus(t, 3, 600)
	seqG, err := Build(col, 0, 1, BuildOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parG, err := Build(col, 0, 1, BuildOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqG.Edges) < parallelEdgeThreshold {
		t.Fatalf("test corpus too small to exercise the parallel stats path: %d edges", len(seqG.Edges))
	}
	seqG.AnnotateStats()
	parG.AnnotateStats()
	requireIdenticalGraphs(t, seqG, parG, "annotated")

	seqP := seqG.Prune(stats.ChiSquared95, stats.DefaultRhoThreshold)
	parP := parG.Prune(stats.ChiSquared95, stats.DefaultRhoThreshold)
	requireIdenticalGraphs(t, seqP, parP, "pruned")
}

// TestMinPairCountParallel checks the early triplet filter on both
// aggregation routes.
func TestMinPairCountParallel(t *testing.T) {
	col := equivCorpus(t, 13, 250)
	ref, err := Build(col, 0, 1, BuildOptions{Parallelism: 1, MinPairCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []BuildOptions{
		{Parallelism: 4, MinPairCount: 2},
		{Parallelism: 4, MinPairCount: 2, MemBudget: 1 << 12},
	} {
		g, err := Build(col, 0, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalGraphs(t, ref, g, fmt.Sprintf("minpair budget=%d", opts.MemBudget))
	}
	for _, e := range ref.Edges {
		if e.Count < 2 {
			t.Fatalf("MinPairCount leaked edge %+v", e)
		}
	}
}

// TestSpillRecordRoundTrip pins the 16-byte spill codec: every
// (key, count) survives, bytewise record order is key order, and a
// record of any other length is rejected.
func TestSpillRecordRoundTrip(t *testing.T) {
	keys := []uint64{0, 1, pairKey(0, 2), pairKey(123456, 654321), pairKey(1<<31-1, 1<<31-1)}
	counts := []int64{1, 7, 1 << 40}
	var buf, prev [spillRecordLen]byte
	for i, k := range keys {
		for _, c := range counts {
			putSpillRecord(&buf, k, c)
			gk, gc, err := parseSpillRecord(buf[:])
			if err != nil {
				t.Fatalf("parse(%x): %v", buf, err)
			}
			if gk != k || gc != c {
				t.Fatalf("round trip (%d,%d) → (%d,%d)", k, c, gk, gc)
			}
		}
		if i > 0 && bytes.Compare(prev[:], buf[:]) >= 0 {
			t.Fatalf("record of key %d does not sort after key %d", k, keys[i-1])
		}
		prev = buf
	}
	for _, n := range []int{0, 8, spillRecordLen - 1, spillRecordLen + 1} {
		if _, _, err := parseSpillRecord(make([]byte, n)); err == nil {
			t.Errorf("parseSpillRecord accepted a %d-byte record", n)
		}
	}
}

// TestPairTable exercises the open-addressing table directly: growth,
// duplicate accumulation, extraction and reset.
func TestPairTable(t *testing.T) {
	pt := newPairTable()
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
	pt.reset()
	if pt.n != 0 || len(pt.slots) != grown || len(pt.appendEntries(nil)) != 0 {
		t.Fatalf("reset left n=%d cap=%d (was %d)", pt.n, len(pt.slots), grown)
	}
	pt.add(pairKey(1, 2), 5)
	if got := pt.appendEntries(nil); len(got) != 1 || got[0] != (pairEntry{key: pairKey(1, 2), count: 5}) {
		t.Fatalf("table after reset holds %v", got)
	}
}
