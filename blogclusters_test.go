package blogclusters

import (
	"context"
	"strings"
	"testing"
)

// openTestEngine opens a session over the collection; closed via
// t.Cleanup. The facade tests exercise the pipeline through the Engine,
// the package's one query path.
func openTestEngine(t *testing.T, c *Collection, opts ...Option) *Engine {
	t.Helper()
	eng, err := Open(context.Background(), FromCollection(c), opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// endToEndCorpus builds a small corpus with one persistent event and
// one single-burst event.
func endToEndCorpus(t *testing.T) *Collection {
	t.Helper()
	c, err := GenerateCorpus(CorpusConfig{
		Seed: 21, NumIntervals: 4, BackgroundPosts: 250,
		BackgroundVocab: 900, WordsPerPost: 6,
		Events: []CorpusEvent{
			{Name: "persistent", Phases: []CorpusPhase{{
				Keywords:  []string{"alpha", "beta", "gamma"},
				Intervals: []int{0, 1, 2, 3},
				Posts:     70, KeywordProb: 0.95,
			}}},
			{Name: "burst", Phases: []CorpusPhase{{
				Keywords:  []string{"delta", "epsilon"},
				Intervals: []int{1},
				Posts:     60, KeywordProb: 0.95,
			}}},
		},
	})
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	return c
}

func TestEndToEndPipeline(t *testing.T) {
	c := endToEndCorpus(t)
	ctx := context.Background()
	eng := openTestEngine(t, c, WithGraphOptions(GraphOptions{Gap: 0, Theta: 0.1}))
	sets, err := eng.Clusters(ctx)
	if err != nil {
		t.Fatalf("Clusters: %v", err)
	}
	if len(sets) != 4 {
		t.Fatalf("got %d interval cluster sets, want 4", len(sets))
	}
	// The persistent event must be clustered in every interval.
	findEvent := func(cs []Cluster, kw string) *Cluster {
		for i := range cs {
			if cs[i].Contains(kw) {
				return &cs[i]
			}
		}
		return nil
	}
	for i, cs := range sets {
		ev := findEvent(cs, "alpha")
		if ev == nil {
			t.Fatalf("interval %d: persistent event not clustered; clusters: %v", i, cs)
		}
		if !ev.Contains("beta") || !ev.Contains("gamma") {
			t.Errorf("interval %d: event cluster incomplete: %v", i, ev.Keywords)
		}
	}
	if burst := findEvent(sets[1], "delta"); burst == nil || !burst.Contains("epsilon") {
		t.Errorf("burst event not clustered in interval 1")
	}
	if leak := findEvent(sets[0], "delta"); leak != nil {
		t.Errorf("burst event leaked into interval 0: %v", leak.Keywords)
	}

	g, err := eng.Graph(ctx)
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	res, err := eng.StableClusters(ctx, "bfs", 1, FullPaths)
	if err != nil {
		t.Fatalf("StableClusters: %v", err)
	}
	if len(res.Paths) != 1 {
		t.Fatalf("no full-length stable cluster found")
	}
	// The winning stable path must be the persistent event in all 4 days.
	for _, id := range res.Paths[0].Nodes {
		if !g.Cluster(id).Contains("alpha") {
			t.Errorf("stable path node %d is not the persistent event: %v", id, g.Cluster(id).Keywords)
		}
	}
	desc, err := eng.Describe(ctx, res.Paths[0])
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	if !strings.Contains(desc, "alpha") || !strings.Contains(desc, "t3") {
		t.Errorf("Describe output incomplete:\n%s", desc)
	}
}

func TestAlgorithmsAgreeEndToEnd(t *testing.T) {
	c := endToEndCorpus(t)
	ctx := context.Background()
	eng := openTestEngine(t, c, WithGraphOptions(GraphOptions{Gap: 1, Theta: 0.1}))
	want, err := eng.StableClusters(ctx, "brute", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"bfs", "dfs", "auto"} {
		got, err := eng.StableClusters(ctx, alg, 3, 2)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(got.Paths) != len(want.Paths) {
			t.Fatalf("%s returned %d paths, brute %d", alg, len(got.Paths), len(want.Paths))
		}
		for i := range got.Paths {
			if diff := got.Paths[i].Weight - want.Paths[i].Weight; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s path %d weight %g != brute %g", alg, i, got.Paths[i].Weight, want.Paths[i].Weight)
			}
		}
	}
	if _, err := eng.StableClusters(ctx, "nope", 1, 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestNormalizedFacade(t *testing.T) {
	c := endToEndCorpus(t)
	eng := openTestEngine(t, c, WithGraphOptions(GraphOptions{Gap: 0, Theta: 0.1}))
	res, err := eng.Solve(context.Background(), QuerySpec{Variant: "normalized", K: 2, LMin: 2})
	if err != nil {
		t.Fatalf("normalized solve: %v", err)
	}
	for _, p := range res.Paths {
		if p.Length < 2 {
			t.Errorf("path %v shorter than lmin", p)
		}
		if p.Weight <= 0 || p.Weight > 1+1e-9 {
			t.Errorf("stability %g outside (0,1]", p.Weight)
		}
	}
}

func TestRefineQuery(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(ctx, FromClusterSets([][]Cluster{{
		{ID: 0, Interval: 0, Keywords: []string{"cell", "fluid", "stem"}},
		{ID: 1, Interval: 0, Keywords: []string{"beckham", "galaxi"}},
	}}))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer eng.Close()
	refine := func(query string) []string {
		t.Helper()
		got, err := eng.Refine(ctx, query, 0)
		if err != nil {
			t.Fatalf("Refine(%q): %v", query, err)
		}
		return got
	}
	got := refine("Stems") // stems → stem after analysis
	if len(got) != 2 || got[0] != "cell" || got[1] != "fluid" {
		t.Errorf("Refine = %v, want [cell fluid]", got)
	}
	if refine("unrelated") != nil {
		t.Error("unclustered keyword returned refinements")
	}
	if refine("") != nil {
		t.Error("empty query returned refinements")
	}
}

func TestDiverseStableClustersFacade(t *testing.T) {
	c := endToEndCorpus(t)
	eng := openTestEngine(t, c, WithGraphOptions(GraphOptions{Gap: 0, Theta: 0.1}))
	res, err := eng.Solve(context.Background(), QuerySpec{Variant: "diverse", K: 3, L: 2, Mode: "endpoints"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, p := range res.Paths {
		s := p.Nodes[0]
		e := p.Nodes[len(p.Nodes)-1]
		if seen[s] || seen[e] {
			t.Errorf("path %v shares an endpoint with a better path", p)
		}
		seen[s], seen[e] = true, true
	}
}

func TestIndexAndBurstsFacade(t *testing.T) {
	c, err := GenerateCorpus(CorpusConfig{
		Seed: 4, NumIntervals: 8, BackgroundPosts: 200,
		BackgroundVocab: 400, WordsPerPost: 5,
		Events: []CorpusEvent{{Name: "flash", Phases: []CorpusPhase{{
			Keywords:  []string{"comet", "telescope"},
			Intervals: []int{4, 5},
			Posts:     80, KeywordProb: 0.95,
		}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := openTestEngine(t, c)
	idx, err := eng.Index(ctx)
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	series, err := idx.TimeSeries("comet")
	if err != nil {
		t.Fatal(err)
	}
	if series[4] == 0 || series[5] == 0 || series[0] != 0 {
		t.Fatalf("TimeSeries(comet) = %v, want activity only at 4-5", series)
	}
	bursts, err := eng.Bursts(ctx, "comet")
	if err != nil {
		t.Fatalf("Bursts: %v", err)
	}
	if len(bursts) != 1 || bursts[0].Start != 4 || bursts[0].End != 5 {
		t.Errorf("bursts = %v, want one burst at [4,5]", bursts)
	}
	// A background keyword must not burst.
	vocab, err := idx.Vocabulary(0)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := burstsIn(idx, vocab[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range quiet {
		if b.Length() > 2 {
			t.Errorf("background keyword %q bursts broadly: %v", vocab[0], quiet)
		}
	}
}
