package cooccur

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
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

// naiveGraph is the oracle for Build: it counts A(u) and A(u,v) with a
// map keyed by the keyword strings, straight from the documents of
// intervals [from, to], and lays the counts out in Build's canonical
// form.
func naiveGraph(col *corpus.Collection, from, to int) *Graph {
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
		if k[0] != k[1] {
			g.Edges = append(g.Edges, Edge{U: id[k[0]], V: id[k[1]], Count: c})
		}
	}
	slices.SortFunc(g.Edges, compareEdges)
	return g
}

// TestBuildMatchesNaiveCount holds the row pass to the map-based
// oracle.
func TestBuildMatchesNaiveCount(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		col := equivCorpus(t, seed, 300)
		want := naiveGraph(col, 0, 1)
		if len(want.Edges) == 0 {
			t.Fatalf("seed %d: oracle graph has no edges", seed)
		}
		label := fmt.Sprintf("seed=%d", seed)
		g, err := Build(col, 0, 1, BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireIdenticalGraphs(t, want, g, label)
	}
}

// TestSequentialSpillMatches: MemBudget is accepted and ignored, so
// the budgets that once forced each merge shape of the spill route (no
// spill, a few runs, more runs than one merge reads) must leave the
// graph identical to the build without one.
func TestSequentialSpillMatches(t *testing.T) {
	col := equivCorpus(t, 5, 200)
	ref, err := Build(col, 0, 1, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1 << 30, 128 << 10, 4 << 10} {
		got, err := Build(col, 0, 1, BuildOptions{MemBudget: budget})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		requireIdenticalGraphs(t, ref, got, fmt.Sprintf("budget=%d", budget))
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
// side each produce the graph the map-based oracle counts for the same
// documents.
func TestParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		col := equivCorpus(t, seed, 300)
		want := naiveGraph(col, 0, 1)
		all := make([]BuildOptions, 4)
		for i, g := range buildConcurrently(t, col, all) {
			requireIdenticalGraphs(t, want, g, fmt.Sprintf("seed=%d build %d", seed, i))
		}
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

// TestBuildCanceled: a canceled context stops a build, which returns
// ctx's error and no graph, unpruned and pruned.
func TestBuildCanceled(t *testing.T) {
	col := equivCorpus(t, 3, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := BuildCtx(ctx, col, 0, 1, BuildOptions{})
	if !errors.Is(err, context.Canceled) || g != nil {
		t.Errorf("BuildCtx on a canceled context = %v, %v; want nil, %v", g, err, context.Canceled)
	}
	tk := corpus.Tokenize(col.Intervals)
	g, err = BuildPrunedTokens(ctx, tk, BuildOptions{}, stats.ChiSquared95, stats.DefaultRhoThreshold)
	if !errors.Is(err, context.Canceled) || g != nil {
		t.Errorf("BuildPrunedTokens on a canceled context = %v, %v; want nil, %v", g, err, context.Canceled)
	}
}

// fuzzCorpus turns fuzz bytes into a two-interval collection: every
// byte below 0xf0 is one of 64 keywords, a byte from 0xf0 up ends a
// document, and documents alternate between the intervals. A keyword
// byte repeated within a document lists its keyword once.
func fuzzCorpus(docs []byte) *corpus.Collection {
	col := &corpus.Collection{Intervals: []corpus.Interval{{Index: 0}, {Index: 1}}}
	var (
		kws  []string
		ndoc int
	)
	endDoc := func() {
		iv := &col.Intervals[ndoc%2]
		iv.Docs = append(iv.Docs, corpus.Document{ID: int64(ndoc), Interval: iv.Index, Keywords: kws})
		kws = nil
		ndoc++
	}
	for _, b := range docs {
		if b >= 0xf0 {
			endDoc()
			continue
		}
		if w := fmt.Sprintf("k%02d", b%64); !slices.Contains(kws, w) {
			kws = append(kws, w)
		}
	}
	endDoc()
	return col
}

// FuzzBuildMatchesNaive checks builds against naiveGraph on a
// fuzz-chosen corpus (see fuzzCorpus).
func FuzzBuildMatchesNaive(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xff, 1, 2, 0xff, 2, 3, 4, 5})
	f.Add([]byte("the quick brown fox\xffjumps over the lazy dog\xffthe dog\xff"))
	f.Add(slices.Repeat([]byte{5, 9, 13, 17, 21, 25, 0xf0, 6, 9, 12, 17, 0xf1}, 40))
	f.Fuzz(func(t *testing.T, docs []byte) {
		col := fuzzCorpus(docs)
		g, err := Build(col, 0, 1, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalGraphs(t, naiveGraph(col, 0, 1), g, "fuzz corpus")
	})
}
