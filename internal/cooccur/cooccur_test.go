package cooccur

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/stats"
)

// tinyCollection: 4 docs in one interval.
//
//	d0: a b
//	d1: a b
//	d2: a c
//	d3: c
//
// A(a)=3 A(b)=2 A(c)=2; A(a,b)=2 A(a,c)=1; no (b,c).
func tinyCollection() *corpus.Collection {
	return &corpus.Collection{Intervals: []corpus.Interval{{
		Index: 0,
		Docs: []corpus.Document{
			{ID: 0, Interval: 0, Keywords: []string{"a", "b"}},
			{ID: 1, Interval: 0, Keywords: []string{"b", "a"}},
			{ID: 2, Interval: 0, Keywords: []string{"a", "c"}},
			{ID: 3, Interval: 0, Keywords: []string{"c"}},
		},
	}}}
}

func TestBuildCounts(t *testing.T) {
	g, err := Build(tinyCollection(), 0, 0, BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.N != 4 {
		t.Errorf("N = %d, want 4", g.N)
	}
	if g.NumVertices() != 3 {
		t.Errorf("vertices = %d, want 3", g.NumVertices())
	}
	wantDoc := map[string]int64{"a": 3, "b": 2, "c": 2}
	for w, want := range wantDoc {
		id, ok := g.KeywordID(w)
		if !ok {
			t.Fatalf("keyword %q missing", w)
		}
		if got := g.DocCount[id]; got != want {
			t.Errorf("A(%s) = %d, want %d", w, got, want)
		}
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	if e, ok := g.EdgeBetween("a", "b"); !ok || e.Count != 2 {
		t.Errorf("A(a,b) = %+v, %t; want count 2", e, ok)
	}
	if e, ok := g.EdgeBetween("a", "c"); !ok || e.Count != 1 {
		t.Errorf("A(a,c) = %+v, %t; want count 1", e, ok)
	}
	if _, ok := g.EdgeBetween("b", "c"); ok {
		t.Error("unexpected edge (b,c)")
	}
	if _, ok := g.EdgeBetween("a", "zzz"); ok {
		t.Error("EdgeBetween found edge for unknown keyword")
	}
}

func TestBuildOrderInsensitive(t *testing.T) {
	// Same multiset of docs with keywords in different orders must yield
	// identical counts. Pair emission normalizes u < v lexicographically.
	c := &corpus.Collection{Intervals: []corpus.Interval{{
		Index: 0,
		Docs: []corpus.Document{
			{ID: 0, Interval: 0, Keywords: []string{"zebra", "apple", "mango"}},
		},
	}}}
	g, err := Build(c, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	for _, pair := range [][2]string{{"apple", "zebra"}, {"apple", "mango"}, {"mango", "zebra"}} {
		if e, ok := g.EdgeBetween(pair[0], pair[1]); !ok || e.Count != 1 {
			t.Errorf("edge %v: %+v, %t", pair, e, ok)
		}
	}
}

func TestBuildRangeSpansIntervals(t *testing.T) {
	c := &corpus.Collection{Intervals: []corpus.Interval{
		{Index: 0, Docs: []corpus.Document{{ID: 0, Interval: 0, Keywords: []string{"x", "y"}}}},
		{Index: 1, Docs: []corpus.Document{{ID: 1, Interval: 1, Keywords: []string{"x", "y"}}}},
	}}
	g, err := Build(c, 0, 1, BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.N != 2 {
		t.Errorf("N = %d, want 2", g.N)
	}
	if e, _ := g.EdgeBetween("x", "y"); e.Count != 2 {
		t.Errorf("A(x,y) = %d, want 2", e.Count)
	}
}

func TestBuildRejectsBadRange(t *testing.T) {
	c := tinyCollection()
	for _, r := range [][2]int{{-1, 0}, {0, 5}, {1, 0}} {
		if _, err := Build(c, r[0], r[1], BuildOptions{}); err == nil {
			t.Errorf("Build(%v) accepted bad range", r)
		}
	}
}

// TestBuildRepeatedKeywordNoSelfLoop: a document that lists a keyword
// twice breaks Document's set contract, but the build still makes no
// self-loop edge, pruned or not, and counts the pair once per listing,
// as A(u) counts the keyword.
func TestBuildRepeatedKeywordNoSelfLoop(t *testing.T) {
	c := &corpus.Collection{Intervals: []corpus.Interval{{Index: 0, Docs: []corpus.Document{
		{ID: 0, Keywords: []string{"a", "a", "b"}},
		{ID: 1, Keywords: []string{"a", "b"}},
		{ID: 2, Keywords: []string{"c", "d"}},
		{ID: 3, Keywords: []string{"c"}},
	}}}}
	full, err := Build(c, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := BuildPrunedCtx(context.Background(), c, 0, 0, BuildOptions{}, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{full, pruned} {
		if len(g.Edges) == 0 {
			t.Fatal("no edges")
		}
		for _, e := range g.Edges {
			if e.U >= e.V {
				t.Fatalf("edge %+v has U >= V", e)
			}
		}
	}
	if e, ok := full.EdgeBetween("a", "b"); !ok || e.Count != 3 || full.DocCount[0] != 3 {
		t.Fatalf("edge (a,b) = %+v, %t, A(a) = %d; want count 3 and A(a) 3", e, ok, full.DocCount[0])
	}
}

func TestBuildWithTinySortBudgetMatches(t *testing.T) {
	// The ignored budgets change nothing.
	big, err := Build(tinyCollection(), 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Build(tinyCollection(), 0, 0, BuildOptions{MemBudget: 64, SortMemoryBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if big.NumEdges() != small.NumEdges() || big.NumVertices() != small.NumVertices() {
		t.Fatalf("budgeted build differs: %d/%d edges, %d/%d vertices",
			big.NumEdges(), small.NumEdges(), big.NumVertices(), small.NumVertices())
	}
	for _, e := range big.Edges {
		u, v := big.Keywords[e.U], big.Keywords[e.V]
		se, ok := small.EdgeBetween(u, v)
		if !ok || se.Count != e.Count {
			t.Errorf("edge (%s,%s): budgeted count %d, want %d", u, v, se.Count, e.Count)
		}
	}
}

func TestAnnotateAndPrune(t *testing.T) {
	// Build a corpus where (hot1,hot2) is strongly correlated and
	// (bg1,bg2) co-occurs only at chance level.
	docs := make([]corpus.Document, 0, 400)
	id := int64(0)
	add := func(kws ...string) {
		docs = append(docs, corpus.Document{ID: id, Interval: 0, Keywords: kws})
		id++
	}
	for i := 0; i < 50; i++ {
		add("hot1", "hot2")
	}
	for i := 0; i < 100; i++ {
		add("bg1", "filler1")
	}
	for i := 0; i < 100; i++ {
		add("bg2", "filler2")
	}
	for i := 0; i < 50; i++ {
		add("bg1", "bg2") // chance-ish co-occurrence given their base rates
	}
	for i := 0; i < 100; i++ {
		add("filler3", "filler4")
	}
	c := &corpus.Collection{Intervals: []corpus.Interval{{Index: 0, Docs: docs}}}
	g, err := Build(c, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g.AnnotateStats()
	e, ok := g.EdgeBetween("hot1", "hot2")
	if !ok {
		t.Fatal("missing hot edge")
	}
	if e.Chi2 <= stats.ChiSquared95 || e.Rho <= stats.DefaultRhoThreshold {
		t.Errorf("hot edge stats χ²=%g ρ=%g, want strong", e.Chi2, e.Rho)
	}
	pruned := g.Prune(stats.ChiSquared95, stats.DefaultRhoThreshold)
	if _, ok := pruned.EdgeBetween("hot1", "hot2"); !ok {
		t.Error("pruning dropped the hot edge")
	}
	// Vertices with no surviving edges must be gone.
	for _, kw := range pruned.Keywords {
		found := false
		for _, e := range pruned.Edges {
			if pruned.Keywords[e.U] == kw || pruned.Keywords[e.V] == kw {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("pruned graph retains isolated vertex %q", kw)
		}
	}
	// Pruned edge stats must be preserved.
	pe, _ := pruned.EdgeBetween("hot1", "hot2")
	if pe.Chi2 != e.Chi2 || pe.Rho != e.Rho || pe.Count != e.Count {
		t.Error("pruning corrupted edge annotations")
	}
}

func TestStrongestCorrelations(t *testing.T) {
	docs := make([]corpus.Document, 0, 300)
	id := int64(0)
	add := func(n int, kws ...string) {
		for i := 0; i < n; i++ {
			docs = append(docs, corpus.Document{ID: id, Interval: 0, Keywords: kws})
			id++
		}
	}
	add(60, "apple", "iphone")
	add(30, "apple", "pie")
	add(100, "noise1", "noise2")
	add(80, "noise3")
	c := &corpus.Collection{Intervals: []corpus.Interval{{Index: 0, Docs: docs}}}
	g, err := Build(c, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.AnnotateStats()
	got := g.StrongestCorrelations("apple", 2)
	if len(got) != 2 {
		t.Fatalf("got %d correlations, want 2: %v", len(got), got)
	}
	if got[0].Keyword != "iphone" || got[1].Keyword != "pie" {
		t.Errorf("order = %s, %s; want iphone, pie", got[0].Keyword, got[1].Keyword)
	}
	if got[0].Rho <= got[1].Rho {
		t.Errorf("rho not descending: %g, %g", got[0].Rho, got[1].Rho)
	}
	if got[0].Count != 60 {
		t.Errorf("iphone count = %d, want 60", got[0].Count)
	}
	if g.StrongestCorrelations("missing", 3) != nil {
		t.Error("unknown keyword returned correlations")
	}
	if g.StrongestCorrelations("apple", 0) != nil {
		t.Error("n=0 returned correlations")
	}
	if one := g.StrongestCorrelations("apple", 1); len(one) != 1 {
		t.Errorf("n=1 returned %d", len(one))
	}
}

func TestBuildOnSyntheticEventCorpus(t *testing.T) {
	cfg := corpus.GeneratorConfig{
		Seed: 11, NumIntervals: 1, BackgroundPosts: 400,
		BackgroundVocab: 800, WordsPerPost: 6,
		Events: []corpus.Event{{Name: "e", Phases: []corpus.Phase{{
			Keywords: []string{"alpha", "beta", "gamma"}, Intervals: []int{0}, Posts: 60, KeywordProb: 0.95,
		}}}},
	}
	c, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(c, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g.AnnotateStats()
	pruned := g.Prune(stats.ChiSquared95, stats.DefaultRhoThreshold)
	// The event triangle must survive pruning.
	for _, pair := range [][2]string{{"alpha", "beta"}, {"alpha", "gamma"}, {"beta", "gamma"}} {
		if _, ok := pruned.EdgeBetween(pair[0], pair[1]); !ok {
			t.Errorf("event edge %v pruned away", pair)
		}
	}
	// Pruning must remove the bulk of background edges.
	if pruned.NumEdges() >= g.NumEdges()/2 {
		t.Errorf("pruning kept %d of %d edges; expected substantial reduction", pruned.NumEdges(), g.NumEdges())
	}
}
