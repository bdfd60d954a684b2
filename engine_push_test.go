package blogclusters

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustergraph"
	"repro/internal/corpus"
)

// pushCorpus builds an m-interval corpus with one persistent event so
// clusters and graph edges exist in every interval.
func pushCorpus(t *testing.T, m int) *Collection {
	t.Helper()
	intervals := make([]int, m)
	for i := range intervals {
		intervals[i] = i
	}
	c, err := GenerateCorpus(CorpusConfig{
		Seed: 33, NumIntervals: m, BackgroundPosts: 120,
		BackgroundVocab: 300, WordsPerPost: 5,
		Events: []CorpusEvent{{Name: "persistent", Phases: []CorpusPhase{{
			Keywords:  []string{"alpha", "beta", "gamma"},
			Intervals: intervals,
			Posts:     50, KeywordProb: 0.95,
		}}}},
	})
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	return c
}

// prefixCol truncates a collection to its first k intervals.
func prefixCol(c *Collection, k int) *Collection {
	return &Collection{Intervals: c.Intervals[:k:k]}
}

// TestEnginePushIncremental is the acceptance test for live ingest: an
// engine grown by Push answers every query exactly like an engine
// opened over the full corpus, and the stage build counters prove no
// full-corpus artifact was rebuilt — each push runs only the
// incremental stages (interval-clusters, graph-extend). par is the
// GOMAXPROCS both engines build under, so the pooled stages run with
// one worker and with eight.
func TestEnginePushIncremental(t *testing.T) {
	const m, base = 5, 3
	col := pushCorpus(t, m)
	ctx := context.Background()
	for _, backend := range []string{"mem", "disk"} {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/par=%d", backend, par), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
				gopts := GraphOptions{Gap: 1, Theta: 0.1}
				eng := openTestEngine(t, prefixCol(col, base),
					WithGraphOptions(gopts),
					WithIndexOptions(IndexOptions{Backend: backend, CompactAfter: -1}))
				ref := openTestEngine(t, col,
					WithGraphOptions(gopts),
					WithIndexOptions(IndexOptions{Backend: backend, CompactAfter: -1}))

				// Warm every artifact class at generation 1.
				if _, err := eng.Clusters(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Graph(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.TimeSeries(ctx, "alpha"); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Bursts(ctx, "alpha"); err != nil {
					t.Fatal(err)
				}

				for k := base; k < m; k++ {
					gen, err := eng.Push(ctx, col.Intervals[k])
					if err != nil {
						t.Fatalf("Push(%d): %v", k, err)
					}
					if want := int64(k - base + 2); gen != want {
						t.Fatalf("Push(%d) generation %d, want %d", k, gen, want)
					}
				}

				// No full-corpus artifact was rebuilt: every whole-corpus
				// stage still shows exactly the one warmup build, and the
				// incremental stages ran once per push.
				st := eng.Stats()
				for _, stage := range []string{"index", "clusters", "graph"} {
					if b := st.Stages[stage].Builds; b != 1 {
						t.Errorf("stage %q built %d times across %d pushes, want 1 (no full rebuild)", stage, b, m-base)
					}
				}
				for _, stage := range []string{"interval-clusters", "graph-extend"} {
					if b := st.Stages[stage].Builds; b != int64(m-base) {
						t.Errorf("stage %q built %d times, want %d (once per push)", stage, b, m-base)
					}
				}
				if st.Generation != int64(m-base+1) || st.Pushes != int64(m-base) || st.Intervals != m {
					t.Errorf("stats after pushes: gen=%d pushes=%d intervals=%d", st.Generation, st.Pushes, st.Intervals)
				}
				if backend == "disk" && st.IndexSegments != m-base+1 {
					t.Errorf("IndexSegments = %d, want %d (base + one delta per push)", st.IndexSegments, m-base+1)
				}

				// Every query agrees with the one-shot session.
				gotSets, err := eng.Clusters(ctx)
				if err != nil {
					t.Fatal(err)
				}
				wantSets, err := ref.Clusters(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotSets, wantSets) {
					t.Fatal("Clusters after pushes differ from one-shot build")
				}
				gotG, err := eng.Graph(ctx)
				if err != nil {
					t.Fatal(err)
				}
				wantG, err := ref.Graph(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotG, wantG) {
					t.Fatal("Graph after pushes differs from one-shot build")
				}
				for _, kw := range []string{"alpha", "beta"} {
					gotTS, err := eng.TimeSeries(ctx, kw)
					if err != nil {
						t.Fatal(err)
					}
					wantTS, err := ref.TimeSeries(ctx, kw)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotTS, wantTS) {
						t.Fatalf("TimeSeries(%q) = %v, want %v", kw, gotTS, wantTS)
					}
					gotB, err := eng.Bursts(ctx, kw)
					if err != nil {
						t.Fatal(err)
					}
					wantB, err := ref.Bursts(ctx, kw)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotB, wantB) {
						t.Fatalf("Bursts(%q) = %v, want %v", kw, gotB, wantB)
					}
				}
				gotRes, err := eng.StableClusters(ctx, "bfs", 3, 2)
				if err != nil {
					t.Fatal(err)
				}
				wantRes, err := ref.StableClusters(ctx, "bfs", 3, 2)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotRes.Paths, wantRes.Paths) {
					t.Fatalf("StableClusters after pushes = %v, want %v", gotRes.Paths, wantRes.Paths)
				}
			})
		}
	}
}

// TestEnginePushLazyStaysLazy pins the other half of the incremental
// contract: pushing into a session that has built nothing builds
// nothing — the first query after the push sees the grown corpus.
func TestEnginePushLazyStaysLazy(t *testing.T) {
	col := pushCorpus(t, 4)
	ctx := context.Background()
	eng := openTestEngine(t, prefixCol(col, 3))
	if _, err := eng.Push(ctx, col.Intervals[3]); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	for stage, s := range st.Stages {
		if stage != "corpus" && stage != "push" && s.Builds != 0 {
			t.Errorf("push on a cold session built stage %q %d times", stage, s.Builds)
		}
	}
	ts, err := eng.TimeSeries(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 4 {
		t.Fatalf("first query after cold push sees %d intervals, want 4", len(ts))
	}
}

// TestEnginePushValidation covers the error surface: out-of-order
// intervals, malformed documents, and that every rejected push leaves
// the session untouched.
func TestEnginePushValidation(t *testing.T) {
	col := pushCorpus(t, 4)
	ctx := context.Background()
	eng := openTestEngine(t, prefixCol(col, 3))

	for name, iv := range map[string]Interval{
		"replay":  {Index: 2},
		"skip":    {Index: 5},
		"too-old": {Index: 0},
	} {
		if _, err := eng.Push(ctx, iv); !errors.Is(err, ErrOutOfOrderInterval) {
			t.Errorf("%s: Push = %v, want ErrOutOfOrderInterval", name, err)
		}
	}
	for name, iv := range map[string]Interval{
		"wrong doc interval": {Index: 3, Docs: []Document{{ID: 1, Interval: 2, Keywords: []string{"x"}}}},
		"negative id":        {Index: 3, Docs: []Document{{ID: -1, Interval: 3, Keywords: []string{"x"}}}},
		"duplicate id":       {Index: 3, Docs: []Document{{ID: 1, Interval: 3, Keywords: []string{"x"}}, {ID: 1, Interval: 3, Keywords: []string{"y"}}}},
		"nul keyword":        {Index: 3, Docs: []Document{{ID: 1, Interval: 3, Keywords: []string{"a\x00b"}}}},
		"newline keyword":    {Index: 3, Docs: []Document{{ID: 1, Interval: 3, Keywords: []string{"a\nb"}}}},
	} {
		if _, err := eng.Push(ctx, iv); !errors.Is(err, ErrMalformedInterval) {
			t.Errorf("%s: Push = %v, want ErrMalformedInterval", name, err)
		}
	}
	if gen := eng.Generation(); gen != 1 {
		t.Fatalf("failed pushes moved the generation to %d", gen)
	}
	if n := len(eng.Collection().Intervals); n != 3 {
		t.Fatalf("failed pushes changed the corpus to %d intervals", n)
	}

	sets, err := Open(ctx, FromClusterSets([][]Cluster{{newTestCluster(0, 0, "a")}}))
	if err != nil {
		t.Fatal(err)
	}
	defer sets.Close()
	if _, err := sets.Push(ctx, Interval{Index: 1}); !errors.Is(err, ErrNoCorpus) {
		t.Errorf("push into cluster-set session = %v, want ErrNoCorpus", err)
	}
}

func newTestCluster(id int64, interval int, kws ...string) Cluster {
	return Cluster{ID: id, Interval: interval, Keywords: kws}
}

// TestEnginePushEvents pins the observability contract: a push emits
// paired push events carrying the old and new generation, and extends
// the cached graph under a visible graph-extend stage.
func TestEnginePushEvents(t *testing.T) {
	col := pushCorpus(t, 4)
	ctx := context.Background()
	var mu sync.Mutex
	var events []StageEvent
	eng := openTestEngine(t, prefixCol(col, 3),
		WithGraphOptions(GraphOptions{Gap: 0, Theta: 0.1}),
		WithProgress(func(ev StageEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}))
	if _, err := eng.Graph(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Push(ctx, col.Intervals[3]); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	var pushStart, pushDone, extendDone bool
	for _, ev := range events {
		switch {
		case ev.Stage == "push" && !ev.Done:
			pushStart = true
			if ev.Generation != 1 {
				t.Errorf("push start event carries generation %d, want 1", ev.Generation)
			}
		case ev.Stage == "push" && ev.Done:
			pushDone = true
			if ev.Generation != 2 || ev.Err != nil {
				t.Errorf("push done event generation=%d err=%v, want 2/nil", ev.Generation, ev.Err)
			}
		case ev.Stage == "graph-extend" && ev.Done:
			extendDone = true
		}
	}
	if !pushStart || !pushDone || !extendDone {
		t.Fatalf("missing ingest events (push start=%v done=%v extend=%v) in %v", pushStart, pushDone, extendDone, events)
	}
}

// TestEnginePushCompaction drives enough pushes through a warm disk
// index to cross the compaction threshold and verifies the background
// fold ran and the folded store still answers exactly.
func TestEnginePushCompaction(t *testing.T) {
	const m, base = 6, 2
	col := pushCorpus(t, m)
	ctx := context.Background()
	eng := openTestEngine(t, prefixCol(col, base),
		WithIndexOptions(IndexOptions{Backend: "disk", CompactAfter: 1}))
	ref := openTestEngine(t, col)
	if _, err := eng.Index(ctx); err != nil {
		t.Fatal(err)
	}
	for k := base; k < m; k++ {
		if _, err := eng.Push(ctx, col.Intervals[k]); err != nil {
			t.Fatalf("Push(%d): %v", k, err)
		}
	}
	eng.compactWG.Wait()
	st := eng.Stats()
	if st.IndexCompactions == 0 {
		t.Fatalf("no compaction after %d pushes with CompactAfter=1 (segments=%d)", m-base, st.IndexSegments)
	}
	if st.IndexSegments >= m-base+1 {
		t.Fatalf("IndexSegments = %d after compaction, want < %d", st.IndexSegments, m-base+1)
	}
	for _, kw := range []string{"alpha", "beta"} {
		got, err := eng.TimeSeries(ctx, kw)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.TimeSeries(ctx, kw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TimeSeries(%q) after compaction = %v, want %v", kw, got, want)
		}
	}
}

// TestEnginePushConcurrentQueries races queries against pushes: every
// query must succeed against some generation's consistent snapshot
// (run under -race this is the snapshot-isolation proof).
func TestEnginePushConcurrentQueries(t *testing.T) {
	const m, base = 6, 2
	col := pushCorpus(t, m)
	ctx := context.Background()
	eng := openTestEngine(t, prefixCol(col, base),
		WithGraphOptions(GraphOptions{Gap: 0, Theta: 0.1}))
	if _, err := eng.Clusters(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Graph(ctx); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errCh := make(chan error, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts, err := eng.TimeSeries(ctx, "alpha")
				if err != nil {
					errCh <- err
					return
				}
				if len(ts) < base || len(ts) > m {
					errCh <- fmt.Errorf("timeseries over %d intervals, want %d..%d", len(ts), base, m)
					return
				}
				if _, err := eng.StableClusters(ctx, "bfs", 2, 1); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for k := base; k < m; k++ {
		if _, err := eng.Push(ctx, col.Intervals[k]); err != nil {
			t.Fatalf("Push(%d): %v", k, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if gen := eng.Generation(); gen != int64(m-base+1) {
		t.Fatalf("generation %d after %d pushes, want %d", gen, m-base, m-base+1)
	}
}

// tokenBuilds reads how many intervals the Engine has tokenized.
func tokenBuilds(eng *Engine) int64 { return eng.Stats().Stages["tokens"].Builds }

// tokensHeld reports whether the current snapshot still holds its token
// memo.
func tokensHeld(eng *Engine) bool {
	st := eng.state.Load()
	st.tokMu.Lock()
	defer st.tokMu.Unlock()
	return st.toks != nil
}

// TestEngineTokenizesOnce pins the token memo's contract: the index
// store and the cluster sets share one tokenization of each interval,
// the memo is dropped once both exist, a push tokenizes only the new
// interval, and a reader after the release tokenizes afresh without
// keeping anything. The concurrent case runs both full builds at once,
// so the memo's single flight is what keeps the count at m.
func TestEngineTokenizesOnce(t *testing.T) {
	const m = 4
	col := pushCorpus(t, m+1)
	ctx := context.Background()
	for _, backend := range []string{"mem", "disk"} {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/par=%d", backend, par), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
				eng := openTestEngine(t, prefixCol(col, m),
					WithIndexOptions(IndexOptions{Backend: backend, CompactAfter: -1}))
				if _, err := eng.Index(ctx); err != nil {
					t.Fatal(err)
				}
				if got := tokenBuilds(eng); got != m {
					t.Fatalf("Index tokenized %d intervals, want %d", got, m)
				}
				if !tokensHeld(eng) {
					t.Fatal("token memo released before the cluster sets exist")
				}
				if _, err := eng.Clusters(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.ClustersAt(ctx, 1); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Graph(ctx); err != nil {
					t.Fatal(err)
				}
				if got := tokenBuilds(eng); got != m {
					t.Fatalf("Index, Clusters, ClustersAt and Graph tokenized %d intervals, want %d", got, m)
				}
				if tokensHeld(eng) {
					t.Fatal("token memo held after the index store and the cluster sets both exist")
				}

				if _, err := eng.Push(ctx, col.Intervals[m]); err != nil {
					t.Fatal(err)
				}
				if got := tokenBuilds(eng); got != m+1 {
					t.Fatalf("push tokenized %d intervals, want 1", got-m)
				}
				if tokensHeld(eng) {
					t.Fatal("the pushed generation holds a token memo")
				}

				if _, err := eng.Correlations(ctx, "alpha", 0, 3); err != nil {
					t.Fatal(err)
				}
				if got := tokenBuilds(eng); got != m+2 {
					t.Fatalf("Correlations after the release tokenized %d intervals, want 1", got-m-1)
				}
				if tokensHeld(eng) {
					t.Fatal("a reader after the release kept its tokens")
				}
			})
		}
	}

	t.Run("concurrent", func(t *testing.T) {
		eng := openTestEngine(t, prefixCol(col, m), WithIndexOptions(IndexOptions{Backend: "disk"}))
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, errs[0] = eng.Index(ctx)
		}()
		go func() {
			defer wg.Done()
			_, errs[1] = eng.Clusters(ctx)
		}()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := tokenBuilds(eng); got != m {
			t.Fatalf("concurrent Index and Clusters tokenized %d intervals, want %d", got, m)
		}
		if tokensHeld(eng) {
			t.Fatal("token memo held after the index store and the cluster sets both exist")
		}
	})
}

// stageBuilds reads how many times the Engine has built one stage.
func stageBuilds(eng *Engine, stage string) int64 { return eng.Stats().Stages[stage].Builds }

// TestEngineIntervalRecordsSurvivePush pins the per-interval records:
// an interval's clusters and keyword graph are built once and shared
// by every later generation, the full cluster build and a push prime
// the records they cover, and a FromClusterSets session answers every
// interval query from its primed records without a build.
func TestEngineIntervalRecordsSurvivePush(t *testing.T) {
	const m = 3
	col := pushCorpus(t, m+2)
	ctx := context.Background()
	eng := openTestEngine(t, prefixCol(col, m))

	cs1, err := eng.ClustersAt(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	corr1, err := eng.Correlations(ctx, "alpha", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ic, kw := stageBuilds(eng, "interval-clusters"), stageBuilds(eng, "kwgraph"); ic != 1 || kw != 1 {
		t.Fatalf("generation 1 built interval-clusters %d and kwgraph %d times, want 1 and 1", ic, kw)
	}
	if gen, err := eng.Push(ctx, col.Intervals[m]); err != nil || gen != 2 {
		t.Fatalf("Push = %d, %v; want generation 2", gen, err)
	}
	cs2, err := eng.ClustersAt(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	corr2, err := eng.Correlations(ctx, "alpha", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ic, kw := stageBuilds(eng, "interval-clusters"), stageBuilds(eng, "kwgraph"); ic != 1 || kw != 1 {
		t.Errorf("generation 2 rebuilt interval 1: interval-clusters %d, kwgraph %d builds, want 1 and 1", ic, kw)
	}
	if !reflect.DeepEqual(cs1, cs2) || !reflect.DeepEqual(corr1, corr2) {
		t.Error("interval 1 answers differ across the push")
	}

	// The full build primes every record, and a push with the sets
	// built primes the new interval's.
	sets, err := eng.Clusters(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Push(ctx, col.Intervals[m+1]); err != nil {
		t.Fatal(err)
	}
	pushed := stageBuilds(eng, "interval-clusters")
	if pushed != 2 {
		t.Fatalf("interval-clusters built %d times after a push over built sets, want 2", pushed)
	}
	for i := 0; i <= m+1; i++ {
		cs, err := eng.ClustersAt(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(sets) && !reflect.DeepEqual(cs, sets[i]) {
			t.Errorf("ClustersAt(%d) differs from Clusters()[%d]", i, i)
		}
	}
	if got := stageBuilds(eng, "interval-clusters"); got != pushed {
		t.Errorf("ClustersAt over primed records built interval-clusters %d more times", got-pushed)
	}

	want, err := allIntervalClustersCtx(ctx, col, corpus.Tokenizing(col), ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fromSets, err := Open(ctx, FromClusterSets(want))
	if err != nil {
		t.Fatal(err)
	}
	defer fromSets.Close()
	if n := fromSets.NumIntervals(); n != len(want) {
		t.Errorf("FromClusterSets NumIntervals = %d, want %d", n, len(want))
	}
	got, err := fromSets.ClusterSets(ctx, 0, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("FromClusterSets ClusterSets differ from the sets it was opened on")
	}
	for i := range want {
		cs, err := fromSets.ClustersAt(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cs, want[i]) {
			t.Errorf("FromClusterSets ClustersAt(%d) differs from its set", i)
		}
	}
	if b := stageBuilds(fromSets, "interval-clusters"); b != 0 {
		t.Errorf("FromClusterSets built interval-clusters %d times, want 0", b)
	}
}

// TestEngineDocTotalsWithoutIndex pins DocTotals to the corpus: each
// total is the interval's document count, reading them builds no index,
// every call counts one query, and a push grows them by one entry.
func TestEngineDocTotalsWithoutIndex(t *testing.T) {
	const m = 3
	col := pushCorpus(t, m+1)
	ctx := context.Background()
	eng := openTestEngine(t, prefixCol(col, m))
	check := func(n int) {
		t.Helper()
		before := eng.Stats().Queries
		totals, err := eng.DocTotals(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(totals) != n {
			t.Fatalf("DocTotals has %d entries, want %d", len(totals), n)
		}
		for i, got := range totals {
			if want := int64(len(col.Intervals[i].Docs)); got != want {
				t.Errorf("DocTotals[%d] = %d, want %d", i, got, want)
			}
		}
		if q := eng.Stats().Queries - before; q != 1 {
			t.Errorf("DocTotals counted %d queries, want 1", q)
		}
		if b := stageBuilds(eng, "index"); b != 0 {
			t.Errorf("DocTotals built the index %d times, want 0", b)
		}
	}
	check(m)
	if _, err := eng.Push(ctx, col.Intervals[m]); err != nil {
		t.Fatal(err)
	}
	check(m + 1)
	eng.Close()
	if _, err := eng.DocTotals(ctx); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("DocTotals after Close: %v, want ErrEngineClosed", err)
	}
}

// TestEngineGraphMatchesPairLoop: the session graph, whose Jaccard
// edges come from the prefix-filter join, deep-equals the pair loop's
// graph (cluster.Jaccard passed explicitly) over the same cluster sets,
// right after Open and after each of two pushes (the ExtendCtx path),
// on the recurring corpus at gap 1 and the default θ.
func TestEngineGraphMatchesPairLoop(t *testing.T) {
	const m, base = 8, 6
	col := recurringCorpus(t, m, 300)
	ctx := context.Background()
	eng := openTestEngine(t, prefixCol(col, base), WithGraphOptions(GraphOptions{Gap: 1}))
	for k := base; ; k++ {
		g, err := eng.Graph(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sets, err := eng.Clusters(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := clustergraph.FromClustersCtx(ctx, sets, clustergraph.FromClustersOptions{Gap: 1, Affinity: cluster.Jaccard})
		if err != nil {
			t.Fatal(err)
		}
		if want.NumEdges() == 0 {
			t.Fatalf("%d intervals: no edges; corpus too sparse to be a real test", k)
		}
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("%d intervals: session graph (%d edges) differs from the pair loop's (%d edges)", k, g.NumEdges(), want.NumEdges())
		}
		if k == m {
			break
		}
		if _, err := eng.Push(ctx, col.Intervals[k]); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Stats().Stages["graph-extend"].Builds; got != m-base {
		t.Fatalf("graph-extend builds = %d, want %d: the pushes did not extend the graph", got, m-base)
	}
}

// TestOpenRejectsJaccardThetaOutOfRange: the join takes θ in (0, 1], so
// a Jaccard θ outside it (0 is the default 0.1) fails Open with
// ErrInvalidQuery instead of keeping every overlapping pair (θ < 0) or
// none (θ > 1); another affinity takes any θ.
func TestOpenRejectsJaccardThetaOutOfRange(t *testing.T) {
	col := pushCorpus(t, 2)
	for _, o := range []GraphOptions{{Theta: -0.5}, {Theta: 1.5}, {Theta: 1.5, Affinity: "jaccard"}} {
		if eng, err := Open(context.Background(), FromCollection(col), WithGraphOptions(o)); !errors.Is(err, ErrInvalidQuery) {
			if err == nil {
				eng.Close()
			}
			t.Errorf("%+v: Open = %v, want ErrInvalidQuery", o, err)
		}
	}
	for _, o := range []GraphOptions{{}, {Theta: 1}, {Theta: 1.5, Affinity: "intersection"}} {
		eng, err := Open(context.Background(), FromCollection(col), WithGraphOptions(o))
		if err != nil {
			t.Errorf("%+v: %v", o, err)
			continue
		}
		eng.Close()
	}
}
