package blogclusters

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cooccur"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/stats"
)

// testCorpus returns a small seeded news week shared by the Engine
// tests.
func testCorpus(t *testing.T, posts int) *Collection {
	t.Helper()
	col, err := GenerateCorpus(NewsWeekCorpus(2007, posts))
	if err != nil {
		t.Fatalf("generate corpus: %v", err)
	}
	return col
}

// TestEngineEquivalence proves the Engine's query methods return
// byte-identical results to the underlying stateless stages on a seeded
// corpus (the acceptance criterion of the API redesign): same cluster
// sets, same solver outputs on the same graph, same index answers,
// same bursts, refinements and correlations.
func TestEngineEquivalence(t *testing.T) {
	col := testCorpus(t, 150)
	ctx := context.Background()

	copts := ClusterOptions{}
	gopts := GraphOptions{Gap: 1, Theta: 0.1}
	eng, err := Open(ctx, FromCollection(col),
		WithClusterOptions(copts), WithGraphOptions(gopts))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer eng.Close()

	// Stage artifacts.
	wantSets, err := allIntervalClustersCtx(ctx, col, corpus.Tokenizing(col), copts)
	if err != nil {
		t.Fatalf("reference clusters: %v", err)
	}
	gotSets, err := eng.Clusters(ctx)
	if err != nil {
		t.Fatalf("engine clusters: %v", err)
	}
	if !reflect.DeepEqual(wantSets, gotSets) {
		t.Fatalf("cluster sets differ between Engine and the stateless build")
	}

	wantG, err := buildClusterGraphCtx(ctx, wantSets, gopts)
	if err != nil {
		t.Fatalf("reference graph: %v", err)
	}
	gotG, err := eng.Graph(ctx)
	if err != nil {
		t.Fatalf("engine graph: %v", err)
	}
	if wantG.NumNodes() != gotG.NumNodes() || wantG.NumEdges() != gotG.NumEdges() {
		t.Fatalf("graph shape differs: legacy %d/%d, engine %d/%d",
			wantG.NumNodes(), wantG.NumEdges(), gotG.NumNodes(), gotG.NumEdges())
	}

	// Solvers, across algorithms and problems.
	for _, alg := range []string{"bfs", "dfs", "brute"} {
		want, err := core.Solve(ctx, wantG, core.Request{Algorithm: alg, K: 4, L: 2})
		if err != nil {
			t.Fatalf("reference %s: %v", alg, err)
		}
		got, err := eng.StableClusters(ctx, alg, 4, 2)
		if err != nil {
			t.Fatalf("engine %s: %v", alg, err)
		}
		if !reflect.DeepEqual(want.Paths, got.Paths) {
			t.Fatalf("%s paths differ between Engine and core.Solve", alg)
		}
	}
	wantN, err := core.Solve(ctx, wantG, core.Request{Algorithm: "normalized", K: 4, LMin: 2})
	if err != nil {
		t.Fatalf("reference normalized: %v", err)
	}
	gotN, err := eng.Solve(ctx, QuerySpec{Variant: "normalized", K: 4, LMin: 2})
	if err != nil {
		t.Fatalf("engine normalized: %v", err)
	}
	if !reflect.DeepEqual(wantN.Paths, gotN.Paths) {
		t.Fatalf("normalized paths differ")
	}
	wantD, err := core.Solve(ctx, wantG, core.Request{Variant: core.VariantDiverse, K: 3, L: 2, Mode: "endpoints"})
	if err != nil {
		t.Fatalf("reference diverse: %v", err)
	}
	gotD, err := eng.Solve(ctx, QuerySpec{Variant: "diverse", K: 3, L: 2, Mode: "endpoints"})
	if err != nil {
		t.Fatalf("engine diverse: %v", err)
	}
	if !reflect.DeepEqual(wantD.Paths, gotD.Paths) {
		t.Fatalf("diverse paths differ")
	}
	if len(gotN.Paths) > 0 {
		p := wantN.Paths[0]
		want := fmt.Sprintf("weight %.3f, length %d:", p.Weight, p.Length)
		for _, id := range p.Nodes {
			want += fmt.Sprintf("\n  t%d %v", wantG.Interval(id), wantG.Cluster(id).Keywords)
		}
		got, err := eng.Describe(ctx, gotN.Paths[0])
		if err != nil {
			t.Fatalf("describe: %v", err)
		}
		if want != got {
			t.Fatalf("Describe differs:\nlegacy: %s\nengine: %s", want, got)
		}
	}

	// Index-backed queries.
	r, err := index.OpenStore(ctx, col, "", "", index.Config{})
	if err != nil {
		t.Fatalf("legacy index: %v", err)
	}
	defer r.Close()
	a := NewAnalyzer()
	for _, raw := range []string{"somalia", "beckham", "stem cells"} {
		kw := a.Keywords(raw)[0]
		wantTS, err := r.TimeSeries(kw)
		if err != nil {
			t.Fatalf("legacy timeseries(%s): %v", kw, err)
		}
		gotTS, err := eng.TimeSeries(ctx, raw)
		if err != nil {
			t.Fatalf("engine timeseries(%s): %v", raw, err)
		}
		if !reflect.DeepEqual(wantTS, gotTS) {
			t.Fatalf("time series differ for %q", raw)
		}
		wantB, err := burstsIn(r, kw)
		if err != nil {
			t.Fatalf("legacy bursts(%s): %v", kw, err)
		}
		gotB, err := eng.Bursts(ctx, raw)
		if err != nil {
			t.Fatalf("engine bursts(%s): %v", raw, err)
		}
		if !reflect.DeepEqual(wantB, gotB) {
			t.Fatalf("bursts differ for %q", raw)
		}
		wantS, err := r.Search([]string{kw}, 2)
		if err != nil {
			t.Fatalf("legacy search(%s): %v", kw, err)
		}
		gotS, err := eng.Search(ctx, []string{raw}, 2)
		if err != nil {
			t.Fatalf("engine search(%s): %v", raw, err)
		}
		if !reflect.DeepEqual(wantS, gotS) {
			t.Fatalf("search results differ for %q", raw)
		}
		var wantR []string
		for _, c := range wantSets[2] {
			if c.Contains(kw) {
				wantR = make([]string, 0, c.Size()-1)
				for _, w := range c.Keywords {
					if w != kw {
						wantR = append(wantR, w)
					}
				}
				break
			}
		}
		gotR, err := eng.Refine(ctx, raw, 2)
		if err != nil {
			t.Fatalf("engine refine(%s): %v", raw, err)
		}
		if !reflect.DeepEqual(wantR, gotR) {
			t.Fatalf("refinements differ for %q: legacy %v, engine %v", raw, wantR, gotR)
		}
	}

	// Correlations against the direct keyword-graph path.
	kw := a.Keywords("somalia")[0]
	gotC, err := eng.Correlations(ctx, "somalia", 0, 5)
	if err != nil {
		t.Fatalf("engine correlations: %v", err)
	}
	if len(gotC) == 0 {
		t.Fatalf("no correlations for %q at t0", kw)
	}
	for _, c := range gotC {
		if c.Keyword == kw {
			t.Fatalf("correlations include the query keyword itself")
		}
	}
}

// TestCorrelationsMatchAnnotatedPrune: Correlations, served from the
// pruned build, ranks every keyword's partners exactly as the unpruned
// graph does after AnnotateStats and Prune at (χ²95, ρ 0), on each day
// of the news week.
func TestCorrelationsMatchAnnotatedPrune(t *testing.T) {
	col := testCorpus(t, 600)
	ctx := context.Background()
	eng, err := Open(ctx, FromCollection(col))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer eng.Close()
	found := 0
	for interval := range col.Intervals {
		kg, err := cooccur.BuildCtx(ctx, col, interval, interval, cooccur.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		kg.AnnotateStats()
		ref := kg.Prune(stats.ChiSquared95, 0)
		for _, raw := range []string{"somalia", "mogadishu", "beckham", "liverpool", "iphone", "apple", "stem"} {
			kw, err := analyzed(raw)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.StrongestCorrelations(kw, 8)
			got, err := eng.Correlations(ctx, raw, interval, 8)
			if err != nil {
				t.Fatalf("correlations(%s, %d): %v", raw, interval, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("correlations(%s, %d) = %v, want %v", raw, interval, got, want)
			}
			if len(want) > 0 {
				found++
			}
		}
	}
	if found < 10 {
		t.Fatalf("only %d (keyword, day) queries have correlations; the corpus does not exercise the comparison", found)
	}
}

// TestEngineSingleFlight asserts the acceptance criterion that N
// goroutines querying one Engine build each stage artifact exactly
// once (run under -race by `make race`).
func TestEngineSingleFlight(t *testing.T) {
	col := testCorpus(t, 80)
	ctx := context.Background()
	eng, err := Open(ctx, FromCollection(col),
		WithGraphOptions(GraphOptions{Gap: 0, Theta: 0.1}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer eng.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	results := make([]*Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := eng.Clusters(ctx); err != nil {
				errs[i] = err
				return
			}
			if _, err := eng.Index(ctx); err != nil {
				errs[i] = err
				return
			}
			if _, err := eng.Bursts(ctx, "somalia"); err != nil {
				errs[i] = err
				return
			}
			res, err := eng.StableClusters(ctx, "bfs", 3, FullPaths)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0].Paths, results[i].Paths) {
			t.Fatalf("goroutine %d saw different paths", i)
		}
	}
	st := eng.Stats()
	for _, stage := range []string{"clusters", "index", "graph"} {
		if got := st.Stages[stage].Builds; got != 1 {
			t.Errorf("stage %q built %d times, want exactly 1", stage, got)
		}
	}
}

// TestEngineCancellation asserts that a canceled context aborts a
// stage build mid-flight promptly and leaks no goroutines: the
// goroutine count returns to (near) its pre-build level.
func TestEngineCancellation(t *testing.T) {
	col := testCorpus(t, 1200)
	before := runtime.NumGoroutine()

	// Cancel from inside the build: the hook runs on the building
	// goroutine as the cluster stage starts, so the cancel lands
	// mid-flight however fast the build is.
	ctx, cancel := context.WithCancel(context.Background())
	eng, err := Open(context.Background(), FromCollection(col),
		WithProgress(func(ev StageEvent) {
			if ev.Stage == "clusters" && !ev.Done {
				cancel()
			}
		}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer eng.Close()

	done := make(chan error, 1)
	go func() {
		_, err := eng.Clusters(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled build returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled build did not return within 10s")
	}

	// The canceled result must not be cached: a live context rebuilds.
	sets, err := eng.Clusters(context.Background())
	if err != nil {
		t.Fatalf("rebuild after cancellation: %v", err)
	}
	if len(sets) != len(col.Intervals) {
		t.Fatalf("rebuild returned %d interval sets, want %d", len(sets), len(col.Intervals))
	}

	// No goroutine leak: worker pools drain after cancellation. Allow
	// brief settling plus slack for runtime background goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestEngineClose asserts Close semantics: idempotent, cancels the
// session, releases the disk index backend's temp segment, and
// subsequent queries fail with ErrEngineClosed.
func TestEngineClose(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	col := testCorpus(t, 60)
	eng, err := Open(context.Background(), FromCollection(col),
		WithIndexOptions(IndexOptions{Backend: "disk"}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := eng.Clusters(context.Background()); err != nil {
		t.Fatalf("clusters: %v", err)
	}
	if _, err := eng.TimeSeries(context.Background(), "somalia"); err != nil {
		t.Fatalf("timeseries: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := eng.Clusters(context.Background()); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("query after close returned %v, want ErrEngineClosed", err)
	}
	// The session owned the private disk segment; Close removed it.
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "blogclusters-idx-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("closed session left temp segments behind: %v", matches)
	}
}

// TestEngineClustersAt asserts the single-interval path: one day's
// query builds only that interval (no full-corpus "clusters" build),
// matches the full build byte for byte, and later full builds reuse
// nothing stale.
func TestEngineClustersAt(t *testing.T) {
	col := testCorpus(t, 80)
	ctx := context.Background()
	eng, err := Open(ctx, FromCollection(col))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer eng.Close()

	day2, err := eng.ClustersAt(ctx, 2)
	if err != nil {
		t.Fatalf("clusters at 2: %v", err)
	}
	st := eng.Stats()
	if st.Stages["clusters"].Builds != 0 {
		t.Fatalf("single-interval query triggered %d full builds", st.Stages["clusters"].Builds)
	}
	if st.Stages["interval-clusters"].Builds != 1 {
		t.Fatalf("interval build count = %d, want 1", st.Stages["interval-clusters"].Builds)
	}
	// Memoized: a second ask does not rebuild.
	if _, err := eng.ClustersAt(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Stages["interval-clusters"].Builds; got != 1 {
		t.Fatalf("repeat interval query rebuilt (%d builds)", got)
	}

	sets, err := eng.Clusters(ctx)
	if err != nil {
		t.Fatalf("full clusters: %v", err)
	}
	if !reflect.DeepEqual(sets[2], day2) {
		t.Fatal("per-interval build differs from the full build")
	}
	if _, err := eng.ClustersAt(ctx, len(col.Intervals)); err == nil {
		t.Fatal("out-of-range interval accepted")
	}
}

// TestEngineIntervalQueriesRejectOutOfRange holds the interval-scoped
// queries to one rule: an interval outside [0, m) is ErrInvalidQuery,
// never an empty answer.
func TestEngineIntervalQueriesRejectOutOfRange(t *testing.T) {
	col := testCorpus(t, 80)
	ctx := context.Background()
	eng, err := Open(ctx, FromCollection(col))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer eng.Close()
	m := len(col.Intervals)
	for _, q := range []struct {
		name string
		run  func(interval int) error
	}{
		{"search", func(iv int) error { _, err := eng.Search(ctx, []string{"somalia"}, iv); return err }},
		{"refine", func(iv int) error { _, err := eng.Refine(ctx, "somalia", iv); return err }},
		{"correlations", func(iv int) error { _, err := eng.Correlations(ctx, "somalia", iv, 3); return err }},
	} {
		for _, iv := range []int{-1, m} {
			if err := q.run(iv); !errors.Is(err, ErrInvalidQuery) {
				t.Errorf("%s at interval %d: got %v, want ErrInvalidQuery", q.name, iv, err)
			}
		}
		if err := q.run(m - 1); err != nil {
			t.Errorf("%s at interval %d: %v", q.name, m-1, err)
		}
	}
}

// TestEngineClusterSetsSource covers the Section 4 entry point: graph
// and path queries work, corpus-backed ones return ErrNoCorpus.
func TestEngineClusterSetsSource(t *testing.T) {
	col := testCorpus(t, 80)
	ctx := context.Background()
	sets, err := allIntervalClustersCtx(ctx, col, corpus.Tokenizing(col), ClusterOptions{})
	if err != nil {
		t.Fatalf("clusters: %v", err)
	}
	eng, err := Open(ctx, FromClusterSets(sets),
		WithGraphOptions(GraphOptions{Gap: 0, Theta: 0.1}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer eng.Close()
	if eng.Collection() != nil {
		t.Fatal("cluster-set engine should have no collection")
	}
	res, err := eng.StableClusters(ctx, "bfs", 3, FullPaths)
	if err != nil {
		t.Fatalf("stable clusters: %v", err)
	}
	if len(res.Paths) == 0 {
		t.Fatal("no stable clusters from cluster-set source")
	}
	if _, err := eng.TimeSeries(ctx, "somalia"); !errors.Is(err, ErrNoCorpus) {
		t.Fatalf("TimeSeries returned %v, want ErrNoCorpus", err)
	}
	if _, err := eng.Bursts(ctx, "somalia"); !errors.Is(err, ErrNoCorpus) {
		t.Fatalf("Bursts returned %v, want ErrNoCorpus", err)
	}
	if _, err := eng.Correlations(ctx, "somalia", 0, 3); !errors.Is(err, ErrNoCorpus) {
		t.Fatalf("Correlations returned %v, want ErrNoCorpus", err)
	}
}

// TestEngineProgress asserts the progress hook sees start/finish
// events for every built stage, with non-negative durations.
func TestEngineProgress(t *testing.T) {
	col := testCorpus(t, 60)
	var mu sync.Mutex
	events := map[string][]StageEvent{}
	eng, err := Open(context.Background(), FromCollection(col),
		WithProgress(func(ev StageEvent) {
			mu.Lock()
			events[ev.Stage] = append(events[ev.Stage], ev)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer eng.Close()
	if _, err := eng.Graph(context.Background()); err != nil {
		t.Fatalf("graph: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, stage := range []string{"corpus", "clusters", "graph"} {
		evs := events[stage]
		if len(evs) != 2 || evs[0].Done || !evs[1].Done {
			t.Fatalf("stage %q events = %+v, want start+finish", stage, evs)
		}
		if evs[1].Err != nil {
			t.Fatalf("stage %q finished with error %v", stage, evs[1].Err)
		}
	}
}

// TestEngineStatsJSON pins the EngineStats wire format: the serving
// layer's /debug/stats (and anything scraping it) parses these field
// names, so a rename here is a breaking API change and must fail this
// test first.
func TestEngineStatsJSON(t *testing.T) {
	col := testCorpus(t, 60)
	ctx := context.Background()
	eng, err := Open(ctx, FromCollection(col))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Materialize the index so the stages map is non-empty and IndexIO
	// has been through its lookup path.
	if _, err := eng.TimeSeries(ctx, "somalia"); err != nil {
		t.Fatal(err)
	}

	raw, err := json.Marshal(eng.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	wantTop := []string{"generation", "intervals", "queries", "pushes", "stages", "index_io", "index_segments", "index_compactions", "index_cache", "planner"}
	if len(m) != len(wantTop) {
		t.Fatalf("EngineStats JSON has %d fields, want %d: %s", len(m), len(wantTop), raw)
	}
	for _, k := range wantTop {
		if _, ok := m[k]; !ok {
			t.Fatalf("EngineStats JSON missing %q: %s", k, raw)
		}
	}

	var stages map[string]map[string]json.RawMessage
	if err := json.Unmarshal(m["stages"], &stages); err != nil {
		t.Fatal(err)
	}
	if _, ok := stages["index"]; !ok {
		t.Fatalf("stages missing %q after TimeSeries: %s", "index", m["stages"])
	}
	for name, st := range stages {
		for _, k := range []string{"builds", "total_ns"} {
			if _, ok := st[k]; !ok {
				t.Fatalf("stage %q missing field %q: %s", name, k, m["stages"])
			}
		}
		if len(st) != 2 {
			t.Fatalf("stage %q has %d fields, want 2: %s", name, len(st), m["stages"])
		}
	}

	var io map[string]int64
	if err := json.Unmarshal(m["index_io"], &io); err != nil {
		t.Fatal(err)
	}
	wantIO := []string{"random_reads", "sequential_reads", "writes", "bytes_read", "bytes_written", "retried_reads", "corrupt_reads"}
	if len(io) != len(wantIO) {
		t.Fatalf("index_io has %d fields, want %d: %s", len(io), len(wantIO), m["index_io"])
	}
	for _, k := range wantIO {
		if _, ok := io[k]; !ok {
			t.Fatalf("index_io missing %q: %s", k, m["index_io"])
		}
	}

	// Round-trip: the same names unmarshal back into the struct.
	var back EngineStats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Queries != eng.Stats().Queries || back.Stages["index"].Builds != 1 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

// TestEnginePlanner pins what replaced the planner: "auto" and "" are
// spellings of the variant's default solver, so they return that
// solver's exact Result (paths and work counters) whatever ran before,
// and Stats().Planner — the name survives only for bench/ — counts
// completed solves per algorithm.
func TestEnginePlanner(t *testing.T) {
	col := testCorpus(t, 150)
	ctx := context.Background()

	eng, err := Open(ctx, FromCollection(col),
		WithGraphOptions(GraphOptions{Gap: 1, Theta: 0.1}))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer eng.Close()

	want, err := eng.StableClusters(ctx, "bfs", 4, 2)
	if err != nil {
		t.Fatalf("bfs solve: %v", err)
	}
	// Another solver's run in between must not change what auto answers.
	if _, err := eng.StableClusters(ctx, "dfs", 4, 2); err != nil {
		t.Fatalf("dfs solve: %v", err)
	}
	for _, spelling := range []string{"auto", ""} {
		got, err := eng.StableClusters(ctx, spelling, 4, 2)
		if err != nil {
			t.Fatalf("%q solve: %v", spelling, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%q solve = %+v, want the bfs result %+v", spelling, got, want)
		}
	}
	wantNorm, err := eng.Solve(ctx, QuerySpec{Variant: "normalized", Algorithm: "normalized", K: 3})
	if err != nil {
		t.Fatalf("normalized solve: %v", err)
	}
	gotNorm, err := eng.Solve(ctx, QuerySpec{Variant: "normalized", Algorithm: "auto", K: 3, LMin: 2})
	if err != nil {
		t.Fatalf("normalized auto solve: %v", err)
	}
	if !reflect.DeepEqual(wantNorm, gotNorm) {
		t.Fatalf("normalized auto solve = %+v, want %+v", gotNorm, wantNorm)
	}

	st := eng.Stats().Planner
	wantBy := map[string]int64{"bfs": 3, "dfs": 1, "normalized": 2}
	if !reflect.DeepEqual(st.ByAlgorithm, wantBy) {
		t.Fatalf("ByAlgorithm = %v, want %v", st.ByAlgorithm, wantBy)
	}
	for algo, n := range wantBy {
		if got := st.SolveNs[algo].Count; got != n {
			t.Fatalf("SolveNs[%s].Count = %d, want %d", algo, got, n)
		}
	}
}

// TestEngineSolveSpanOnError: a traced solve that fails or is cancelled
// still leaves its solve:<algorithm> span, carrying the error — the
// request that hit its deadline is the one an operator traces.
func TestEngineSolveSpanOnError(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(ctx, FromCollection(testCorpus(t, 150)))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer eng.Close()
	// Build the graph first so the cancelled query reaches the solver.
	if _, err := eng.Graph(ctx); err != nil {
		t.Fatalf("graph: %v", err)
	}

	cctx, cancel := context.WithCancel(ctx)
	cctx, rec := obs.WithRecorder(cctx)
	cancel()
	if _, err := eng.Solve(cctx, QuerySpec{K: 3, L: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
	}
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Name != "solve:bfs" || spans[0].Err != context.Canceled.Error() || spans[0].Work != nil {
		t.Fatalf("spans after a cancelled solve = %+v, want one solve:bfs span carrying %q and no work", spans, context.Canceled)
	}
	if n := eng.Stats().Planner.ByAlgorithm["bfs"]; n != 0 {
		t.Fatalf("failed solve counted as completed: ByAlgorithm[bfs] = %d", n)
	}
}

// TestStatsRecordAndMerge checks the solve accounting: ByAlgorithm
// tracks the histogram counts, Work sums the counters and keeps the
// largest peak, Merge sums, and merging into a zero SolveStats copies
// deeply (the Engine snapshots that way).
func TestStatsRecordAndMerge(t *testing.T) {
	var a, b SolveStats
	a.recordSolve("bfs", 5e3, core.Stats{NodeReads: 10, EdgeReads: 20, HeapConsiders: 30, PeakStatePaths: 7})
	a.recordSolve("bfs", 5e6, core.Stats{NodeReads: 1, EdgeReads: 2, HeapConsiders: 3, PeakStatePaths: 9})
	a.recordSolve("dfs", 2e10, core.Stats{Pruned: 4, Repushes: 5})
	a.recordSolve("normalized", 5e5, core.Stats{EdgeReads: 2})
	b.recordSolve("bfs", 5e3, core.Stats{NodeReads: 100, RandomSeeks: 6, PeakStatePaths: 8})
	b.recordSolve("normalized", 5e5, core.Stats{EdgeReads: 3})

	var sum SolveStats
	sum.Merge(a)
	sum.Merge(b)
	if want := map[string]int64{"bfs": 3, "dfs": 1, "normalized": 2}; !reflect.DeepEqual(sum.ByAlgorithm, want) {
		t.Errorf("ByAlgorithm = %v, want %v", sum.ByAlgorithm, want)
	}
	bfs := sum.SolveNs["bfs"]
	if bfs.Count != 3 || bfs.SumNs != 5e3+5e6+5e3 || bfs.Counts[0] != 2 || bfs.Counts[3] != 1 {
		t.Errorf("merged bfs histogram = %+v", bfs)
	}
	if over := sum.SolveNs["dfs"].Counts[len(SolveNsBuckets)]; over != 1 {
		t.Errorf("overflow slot = %d, want 1", over)
	}
	if want := map[string]core.Stats{
		"bfs":        {NodeReads: 111, EdgeReads: 22, HeapConsiders: 33, RandomSeeks: 6, PeakStatePaths: 9},
		"dfs":        {Pruned: 4, Repushes: 5},
		"normalized": {EdgeReads: 5},
	}; !reflect.DeepEqual(sum.Work, want) {
		t.Errorf("Work = %+v, want %+v", sum.Work, want)
	}
	a.recordSolve("bfs", 1, core.Stats{NodeReads: 1})
	if sum.SolveNs["bfs"].Count != 3 || sum.SolveNs["bfs"].Counts[0] != 2 || sum.Work["bfs"].NodeReads != 111 {
		t.Error("Merge aliased its source's counts")
	}
}
