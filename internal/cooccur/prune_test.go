package cooccur

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/stats"
)

// boundedPairs returns how many distinct pairs of full, an unpruned
// graph, a build pruned at th counts: the pairs the bound lets through.
func boundedPairs(full *Graph, th *threshold) int {
	var b pairBound
	b.reset(full, th)
	n := 0
	for _, e := range full.Edges {
		if b.mayPass(b.r[e.U], b.r[e.V]) {
			n++
		}
	}
	return n
}

// TestBuildPrunedMatchesPrune holds the pruned build to the two-step
// route it replaces, BuildCtx then AnnotateStats then Prune, field for
// field (ids, keyword order and nil slices included), at ρ thresholds
// below, at and above zero. Every build runs
// twice: on a fresh Builder and on one Builder shared by all of them,
// whose arrays the earlier builds have left at other sizes and values.
func TestBuildPrunedMatchesPrune(t *testing.T) {
	shared := new(Builder)
	for _, seed := range []int64{1, 7, 42} {
		col := equivCorpus(t, seed, 300)
		full, err := Build(col, 0, 1, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		full.AnnotateStats()
		for _, rho := range []float64{-0.1, 0, 0.2, 0.5} {
			th := &threshold{chi2: stats.ChiSquared95, rho: rho}
			counted := boundedPairs(full, th)
			if rho < 0 && counted != len(full.Edges) || rho >= 0 && counted >= len(full.Edges) {
				t.Fatalf("seed %d ρ %g: the bound lets %d of %d pairs through", seed, rho, counted, len(full.Edges))
			}
			want := full.Prune(th.chi2, th.rho)
			if len(want.Edges) == 0 {
				t.Fatalf("seed %d ρ %g: the pruned graph has no edges", seed, rho)
			}
			label := fmt.Sprintf("seed=%d ρ=%g", seed, rho)
			for _, b := range []*Builder{new(Builder), shared} {
				g, err := b.buildCtx(context.Background(), col, 0, 1, th)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(want, g) {
					requireIdenticalGraphs(t, want, g, label)
					t.Fatalf("%s: graphs differ outside Keywords, DocCount and Edges", label)
				}
			}
		}
	}
}

// TestPairBoundSound checks the bound against the exact test on every
// small table: for N ≤ 64, every A(u), A(v) in 1..N (N itself and
// A(u) = A(v) included) and every count up to min(A(u), A(v)), a pair
// the exact χ²/ρ test passes at some count must be one the bound lets
// through. It also checks that the bound rejects something, so the
// test cannot pass with a bound that keeps everything.
func TestPairBoundSound(t *testing.T) {
	for _, rho := range []float64{0, 0.2, 0.5} {
		th := &threshold{chi2: stats.ChiSquared95, rho: rho}
		var passed, rejected int
		for n := int64(1); n <= 64; n++ {
			g := &Graph{N: n, DocCount: make([]int64, n)}
			for i := range g.DocCount {
				g.DocCount[i] = int64(i) + 1
			}
			var b pairBound
			b.reset(g, th)
			for au := int64(1); au <= n; au++ {
				for av := int64(1); av <= n; av++ {
					may := b.mayPass(b.r[au-1], b.r[av-1])
					if !may {
						rejected++
					}
					for c := int64(0); c <= min(au, av); c++ {
						if chi2, rho := stats.PairStats(n, au, av, c); chi2 > th.chi2 && rho > th.rho {
							passed++
							if !may {
								t.Fatalf("ρ %g: N %d, A(u) %d, A(v) %d passes at count %d, but the bound drops the pair", rho, n, au, av, c)
							}
						}
					}
				}
			}
		}
		if passed == 0 || rejected == 0 {
			t.Fatalf("ρ %g: %d passing tables, %d rejected pairs: the test does not exercise the bound", rho, passed, rejected)
		}
	}
}

// FuzzBuildPruned holds the pruned build to BuildCtx, AnnotateStats
// and Prune on a fuzz-chosen corpus (see fuzzCorpus) at a ρ threshold
// in [−1.28, 1.27] and a χ² critical value in [0, 25.5].
func FuzzBuildPruned(f *testing.F) {
	f.Add(int8(20), uint8(38), []byte{1, 2, 3, 0xff, 1, 2, 0xff, 2, 3, 4, 5})
	f.Add(int8(0), uint8(38), []byte("the quick brown fox\xffjumps over the lazy dog\xffthe dog\xff"))
	f.Add(int8(-10), uint8(0), slices.Repeat([]byte{5, 9, 13, 17, 21, 25, 0xf0, 6, 9, 12, 17, 0xf1}, 40))
	f.Add(int8(50), uint8(10), slices.Repeat([]byte{1, 2, 0xf0, 1, 2, 3, 0xf0, 4, 5, 0xf0, 1, 0xf0}, 30))
	f.Fuzz(func(t *testing.T, rho int8, chi2 uint8, docs []byte) {
		col := fuzzCorpus(docs)
		th := threshold{chi2: float64(chi2) / 10, rho: float64(rho) / 100}
		ref, err := Build(col, 0, 1, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref.AnnotateStats()
		want := ref.Prune(th.chi2, th.rho)
		g, err := BuildPrunedCtx(context.Background(), col, 0, 1, th.chi2, th.rho)
		if err != nil {
			t.Fatalf("%+v: %v", th, err)
		}
		if !reflect.DeepEqual(want, g) {
			label := fmt.Sprintf("%+v", th)
			requireIdenticalGraphs(t, want, g, label)
			t.Fatalf("%s: graphs differ outside Keywords, DocCount and Edges", label)
		}
	})
}

// TestPrunedKeywordID: a pruned graph, whose ids follow the kept edges
// and not the keywords' order, finds every kept keyword at its id by
// binary search over byWord, and finds no keyword the prune dropped or
// the corpus never had. It covers Prune, BuildPrunedCtx, a Builder
// reused after a build of other documents, and Prune of a pruned graph,
// whose source ids are no longer ranks.
func TestPrunedKeywordID(t *testing.T) {
	ctx := context.Background()
	col := equivCorpus(t, 7, 300)
	full, err := Build(col, 0, 1, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full.AnnotateStats()
	built, err := BuildPrunedCtx(ctx, col, 0, 1, stats.ChiSquared95, stats.DefaultRhoThreshold)
	if err != nil {
		t.Fatal(err)
	}
	var b Builder
	if _, err := b.BuildPruned(ctx, corpus.Tokenize(col.Intervals[1:2]), stats.ChiSquared95, 0); err != nil {
		t.Fatal(err)
	}
	reused, err := b.BuildPruned(ctx, corpus.Tokenize(col.Intervals[0:2]), stats.ChiSquared95, stats.DefaultRhoThreshold)
	if err != nil {
		t.Fatal(err)
	}
	pruned := full.Prune(stats.ChiSquared95, stats.DefaultRhoThreshold)
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"Prune", pruned},
		{"BuildPrunedCtx", built},
		{"reused Builder", reused},
		{"Prune of Prune", pruned.Prune(stats.ChiSquared95, 0.4)},
	} {
		g := tc.g
		if len(g.Keywords) == 0 || len(g.Keywords) == len(full.Keywords) {
			t.Fatalf("%s: keeps %d of %d keywords; the prune does not exercise the lookup", tc.name, len(g.Keywords), len(full.Keywords))
		}
		if slices.IsSorted(g.Keywords) {
			t.Fatalf("%s: kept keywords are in lexicographic order; ids do not exercise byWord", tc.name)
		}
		kept := make(map[string]bool, len(g.Keywords))
		for id, w := range g.Keywords {
			kept[w] = true
			if got, ok := g.KeywordID(w); !ok || got != int32(id) {
				t.Fatalf("%s: KeywordID(%q) = %d, %t; want %d", tc.name, w, got, ok, id)
			}
		}
		for _, w := range append(slices.Clone(full.Keywords), "", "~absent", "alpha0") {
			if kept[w] {
				continue
			}
			if id, ok := g.KeywordID(w); ok {
				t.Fatalf("%s: KeywordID(%q) = %d for a keyword the graph does not keep", tc.name, w, id)
			}
		}
	}
}
