package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	blogclusters "repro"
	"repro/internal/core"
)

// quietConfig returns a Config that logs nowhere, with the given
// overrides applied after.
func quietConfig(mut func(*Config)) Config {
	cfg := Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// newTestServer opens a small seeded news-week session, attaches it to
// a fresh Server and exposes it over httptest. Cleanup closes both.
func newTestServer(t *testing.T, cfg Config, opts ...blogclusters.Option) (*Server, *blogclusters.Engine, *httptest.Server) {
	t.Helper()
	eng, err := blogclusters.Open(t.Context(), blogclusters.FromGenerator(blogclusters.NewsWeekCorpus(2007, 60)), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := New(cfg)
	srv.SetEngine(eng)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, eng, ts
}

// get fetches path and decodes the JSON body into a generic map,
// returning the response for header/status assertions.
func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: not JSON (%v): %s", path, err, body)
	}
	return resp, m
}

func wantStatus(t *testing.T, resp *http.Response, body map[string]any, want int) {
	t.Helper()
	if resp.StatusCode != want {
		t.Fatalf("%s: status %d, want %d (body %v)", resp.Request.URL, resp.StatusCode, want, body)
	}
}

// TestEndpoints drives every route once against one shared session and
// sanity-checks the response shapes.
func TestEndpoints(t *testing.T) {
	_, _, ts := newTestServer(t, quietConfig(nil))

	resp, m := get(t, ts, "/healthz")
	wantStatus(t, resp, m, 200)
	if m["status"] != "ok" {
		t.Fatalf("healthz body %v", m)
	}

	resp, m = get(t, ts, "/readyz")
	wantStatus(t, resp, m, 200)
	if m["status"] != "ok" {
		t.Fatalf("readyz body %v", m)
	}

	resp, m = get(t, ts, "/v1/timeseries?keyword=somalia")
	wantStatus(t, resp, m, 200)
	counts, ok := m["counts"].([]any)
	if !ok || len(counts) != 7 {
		t.Fatalf("timeseries counts %v, want 7 intervals", m["counts"])
	}

	resp, m = get(t, ts, "/v1/bursts?keyword=somalia")
	wantStatus(t, resp, m, 200)
	if _, ok := m["bursts"].([]any); !ok {
		t.Fatalf("bursts body %v", m)
	}

	resp, m = get(t, ts, "/v1/search?terms=somalia&interval=0")
	wantStatus(t, resp, m, 200)
	if _, ok := m["count"].(float64); !ok {
		t.Fatalf("search body %v", m)
	}

	resp, m = get(t, ts, "/v1/refine?query=somalia&interval=0")
	wantStatus(t, resp, m, 200)
	if _, ok := m["keywords"].([]any); !ok {
		t.Fatalf("refine body %v", m)
	}

	resp, m = get(t, ts, "/v1/correlations?keyword=somalia&interval=0&n=3")
	wantStatus(t, resp, m, 200)
	if _, ok := m["correlations"].([]any); !ok {
		t.Fatalf("correlations body %v", m)
	}

	resp, m = get(t, ts, "/v1/stable-clusters?k=3")
	wantStatus(t, resp, m, 200)
	paths, ok := m["paths"].([]any)
	if !ok || len(paths) == 0 {
		t.Fatalf("stable-clusters paths %v, want non-empty", m["paths"])
	}
	first := paths[0].(map[string]any)
	nodes := first["nodes"].([]any)
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = fmt.Sprintf("%d", int64(n.(float64)))
	}

	resp, m = get(t, ts, "/v1/stable-clusters?variant=normalized&k=3&lmin=2")
	wantStatus(t, resp, m, 200)
	resp, m = get(t, ts, "/v1/stable-clusters?variant=diverse&k=3&mode=prefix")
	wantStatus(t, resp, m, 200)

	resp, m = get(t, ts, "/v1/describe?nodes="+strings.Join(ids, ","))
	wantStatus(t, resp, m, 200)
	if desc, ok := m["description"].(string); !ok || !strings.Contains(desc, "t0") && !strings.Contains(desc, "t1") {
		t.Fatalf("describe body %v", m)
	}

	resp, m = get(t, ts, "/debug/stats")
	wantStatus(t, resp, m, 200)
	engStats, ok := m["engine"].(map[string]any)
	if !ok {
		t.Fatalf("debug/stats engine %v", m["engine"])
	}
	stages := engStats["stages"].(map[string]any)
	for _, stage := range []string{"index", "clusters", "graph", "kwgraph"} {
		if _, ok := stages[stage]; !ok {
			t.Errorf("debug/stats missing stage %q: %v", stage, stages)
		}
	}
	srvStats := m["server"].(map[string]any)
	if srvStats["ready"] != true {
		t.Fatalf("server stats not ready: %v", srvStats)
	}
	cache := srvStats["cache"].(map[string]any)
	if cache["misses"].(float64) == 0 {
		t.Fatalf("cache stats show no misses after queries: %v", cache)
	}
}

// TestBadParams covers the 400 surface: missing/invalid parameters
// and out-of-range intervals never reach (or are rejected by) the
// Engine.
func TestBadParams(t *testing.T) {
	_, _, ts := newTestServer(t, quietConfig(nil))
	for _, path := range []string{
		"/v1/timeseries",                             // missing keyword
		"/v1/timeseries?keyword=the",                 // stop word: no analyzable keyword
		"/v1/bursts?keyword=",                        // empty keyword
		"/v1/search?terms=somalia",                   // missing interval
		"/v1/search?terms=&interval=0",               // no terms
		"/v1/search?terms=somalia&interval=x",        // non-integer interval
		"/v1/refine?query=somalia",                   // missing interval
		"/v1/refine?query=somalia&interval=99",       // interval outside corpus
		"/v1/correlations?keyword=somalia",           // missing interval
		"/v1/stable-clusters?k=0",                    // non-positive k
		"/v1/stable-clusters?k=x",                    // non-integer k
		"/v1/stable-clusters?algorithm=astar",        // unknown algorithm
		"/v1/stable-clusters?variant=quantum",        // unknown variant
		"/v1/stable-clusters?variant=diverse&mode=x", // unknown mode
		"/v1/search?terms=somalia&interval=99",       // interval outside corpus
		"/v1/search?terms=somalia&interval=-1",       // negative interval
		"/v1/describe?nodes=1e5",                     // malformed node list
		"/v1/describe?nodes=999999",                  // node outside graph
		"/v1/describe",                               // missing nodes
		"/v1/describe?nodes=0&weight=NaN",            // non-finite weight
		"/v1/describe?nodes=0&weight=Inf",            // non-finite weight
	} {
		resp, m := get(t, ts, path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %v)", path, resp.StatusCode, m)
		}
		if _, ok := m["error"].(string); !ok {
			t.Errorf("%s: no error field in %v", path, m)
		}
	}
}

// countingSession counts the solves that reach the session.
type countingSession struct {
	Session
	solves atomic.Int64
}

func (c *countingSession) Solve(ctx context.Context, spec blogclusters.QuerySpec) (*blogclusters.Result, error) {
	c.solves.Add(1)
	return c.Session.Solve(ctx, spec)
}

// TestStableClustersKCeiling pins the k ceiling end to end: one past
// core.MaxK is a 400 that names the bound and never reaches the
// session (solvers size their heaps by k, so an unbounded k is an
// allocation the client chooses); the bound itself is served.
func TestStableClustersKCeiling(t *testing.T) {
	srv, eng, ts := newTestServer(t, quietConfig(nil))
	sess := &countingSession{Session: eng}
	srv.SetEngine(sess)

	resp, m := get(t, ts, fmt.Sprintf("/v1/stable-clusters?k=%d", core.MaxK+1))
	wantStatus(t, resp, m, http.StatusBadRequest)
	if msg, _ := m["error"].(string); !strings.Contains(msg, fmt.Sprint(core.MaxK)) {
		t.Errorf("400 body does not name the bound %d: %v", core.MaxK, m)
	}
	if n := sess.solves.Load(); n != 0 {
		t.Fatalf("k over the ceiling reached the session: %d solves", n)
	}
	if text := scrapeMetrics(t, ts); strings.Contains(text, "engine_solve_duration_seconds_count") {
		t.Error("rejected request left an engine_solve_duration_seconds sample")
	}

	resp, m = get(t, ts, fmt.Sprintf("/v1/stable-clusters?k=%d", core.MaxK))
	wantStatus(t, resp, m, 200)
	if n := sess.solves.Load(); n != 1 {
		t.Fatalf("k at the ceiling: %d solves, want 1", n)
	}
}

// TestNotReadyAndNoCorpus covers the two degraded-session cases: no
// Engine attached yet (503 + Retry-After on every query and /readyz),
// and a cluster-set session where corpus-backed queries are 422 while
// graph queries still work.
func TestNotReadyAndNoCorpus(t *testing.T) {
	srv := New(quietConfig(nil))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, m := get(t, ts, "/readyz")
	wantStatus(t, resp, m, http.StatusServiceUnavailable)
	resp, m = get(t, ts, "/v1/timeseries?keyword=somalia")
	wantStatus(t, resp, m, http.StatusServiceUnavailable)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("not-ready rejection missing Retry-After")
	}
	resp, m = get(t, ts, "/healthz")
	wantStatus(t, resp, m, 200)
	resp, m = get(t, ts, "/debug/stats")
	wantStatus(t, resp, m, 200)
	if m["engine"] != nil {
		t.Fatalf("debug/stats engine should be null before SetEngine: %v", m["engine"])
	}

	// Cluster-set session: Section 4 queries fine, corpus queries 422.
	sets := [][]blogclusters.Cluster{
		{newCluster(0, 0, "alpha", "beta")},
		{newCluster(1, 1, "alpha", "beta", "gamma")},
	}
	eng, err := blogclusters.Open(t.Context(), blogclusters.FromClusterSets(sets))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv.SetEngine(eng)

	resp, m = get(t, ts, "/readyz")
	wantStatus(t, resp, m, 200)
	resp, m = get(t, ts, "/v1/stable-clusters?k=1&l=1")
	wantStatus(t, resp, m, 200)
	resp, m = get(t, ts, "/v1/search?terms=alpha&interval=0")
	wantStatus(t, resp, m, http.StatusUnprocessableEntity)
}

func newCluster(id int64, interval int, kws ...string) blogclusters.Cluster {
	return blogclusters.Cluster{ID: id, Interval: interval, Keywords: kws}
}

// TestCacheHitMissNormalization pins the cache-key normalization:
// defaults, parameter order, and keyword surface forms all unify.
func TestCacheHitMissNormalization(t *testing.T) {
	srv, _, ts := newTestServer(t, quietConfig(nil))

	xcache := func(path string) string {
		resp, m := get(t, ts, path)
		wantStatus(t, resp, m, 200)
		return resp.Header.Get("X-Cache")
	}

	if got := xcache("/v1/stable-clusters"); got != "miss" {
		t.Fatalf("first query X-Cache %q, want miss", got)
	}
	// Explicit defaults and reordered params share the first entry.
	for _, path := range []string{
		"/v1/stable-clusters?variant=topk&algorithm=auto&k=5&l=-1",
		"/v1/stable-clusters?l=-1&k=5",
		"/v1/stable-clusters",
	} {
		if got := xcache(path); got != "hit" {
			t.Fatalf("%s: X-Cache %q, want hit", path, got)
		}
	}
	// A different k is a different entry, and so is a different solver;
	// naming the default solver is the same query as auto.
	if got := xcache("/v1/stable-clusters?k=4"); got != "miss" {
		t.Fatalf("distinct k X-Cache %q, want miss", got)
	}
	if got := xcache("/v1/stable-clusters?algorithm=dfs"); got != "miss" {
		t.Fatalf("non-default algorithm X-Cache %q, want miss", got)
	}
	if got := xcache("/v1/stable-clusters?algorithm=bfs"); got != "hit" {
		t.Fatalf("explicit default algorithm X-Cache %q, want hit (auto resolves to it)", got)
	}
	// Any negative l means full paths; it must not fragment the cache.
	if got := xcache("/v1/stable-clusters?l=-7"); got != "hit" {
		t.Fatalf("negative l X-Cache %q, want hit (clamped to -1)", got)
	}
	// Diversity-mode spellings unify on the canonical short form.
	if got := xcache("/v1/stable-clusters?variant=diverse&mode=endpoints"); got != "miss" {
		t.Fatalf("first diverse query X-Cache %q, want miss", got)
	}
	if got := xcache("/v1/stable-clusters?variant=diverse&mode=distinct-endpoints"); got != "hit" {
		t.Fatalf("mode spelling variant X-Cache %q, want hit", got)
	}

	// Keyword surface forms unify on the analyzed form.
	if got := xcache("/v1/timeseries?keyword=Somalia"); got != "miss" {
		t.Fatalf("first keyword query X-Cache %q, want miss", got)
	}
	for _, path := range []string{
		"/v1/timeseries?keyword=somalia",
		"/v1/timeseries?keyword=SOMALIA",
	} {
		if got := xcache(path); got != "hit" {
			t.Fatalf("%s: X-Cache %q, want hit", path, got)
		}
	}
	// Search term order is normalized away.
	if got := xcache("/v1/search?terms=somalia,election&interval=1"); got != "miss" {
		t.Fatalf("first search X-Cache %q, want miss", got)
	}
	if got := xcache("/v1/search?terms=election,somalia&interval=1"); got != "hit" {
		t.Fatalf("reordered search X-Cache %q, want hit", got)
	}

	// Describe keys on parsed values: spacing and float spelling unify.
	if got := xcache("/v1/describe?nodes=0&weight=0"); got != "miss" {
		t.Fatalf("first describe X-Cache %q, want miss", got)
	}
	for _, path := range []string{
		"/v1/describe?nodes=%200&weight=0.0",
		"/v1/describe?nodes=0",
	} {
		if got := xcache(path); got != "hit" {
			t.Fatalf("%s: X-Cache %q, want hit", path, got)
		}
	}

	st := srv.Stats()
	if st.Cache.Hits < 6 || st.Cache.Misses < 3 {
		t.Fatalf("cache stats %+v, want >=6 hits and >=3 misses", st.Cache)
	}
	if st.Cache.Entries == 0 || st.Cache.Bytes == 0 {
		t.Fatalf("cache stats %+v, want resident entries", st.Cache)
	}
}

// TestConcurrentSingleFlight is the acceptance test for the
// single-flight response cache: N identical hot queries admitted
// together trigger exactly one Engine build chain (clusters + graph
// built once, one cache fill) and return identical bodies. Run under
// -race this also exercises the whole handler stack concurrently.
func TestConcurrentSingleFlight(t *testing.T) {
	const n = 16
	srv, eng, ts := newTestServer(t, quietConfig(func(c *Config) { c.MaxInflight = n }))

	var wg sync.WaitGroup
	bodies := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/stable-clusters?k=3")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != 200 {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			bodies[i] = string(b)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}

	cs := srv.Stats().Cache
	if cs.Misses != 1 || cs.Hits != n-1 {
		t.Fatalf("cache stats %+v, want exactly 1 miss and %d hits", cs, n-1)
	}
	es := eng.Stats()
	for _, stage := range []string{"clusters", "graph"} {
		if b := es.Stages[stage].Builds; b != 1 {
			t.Fatalf("stage %q built %d times under %d concurrent identical queries, want 1", stage, b, n)
		}
	}
}

// TestAdmissionControl deterministically fills the only admission slot
// with a request blocked inside an Engine build (via a progress hook),
// asserts the next request is rejected with 429 + Retry-After while
// operational endpoints stay reachable, then releases the build and
// sees the queued-for-retry request succeed.
func TestAdmissionControl(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hook := func(ev blogclusters.StageEvent) {
		if ev.Stage == "clusters" && !ev.Done {
			once.Do(func() {
				close(started)
				<-release
			})
		}
	}
	srv, _, ts := newTestServer(t,
		quietConfig(func(c *Config) { c.MaxInflight = 1 }),
		blogclusters.WithProgress(hook),
	)

	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/stable-clusters?k=2")
		if err != nil {
			firstDone <- err
			return
		}
		defer resp.Body.Close()
		io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			firstDone <- fmt.Errorf("first request status %d", resp.StatusCode)
			return
		}
		firstDone <- nil
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the clusters build")
	}

	// The slot is held mid-build: the next query must bounce.
	resp, m := get(t, ts, "/v1/timeseries?keyword=somalia")
	wantStatus(t, resp, m, http.StatusTooManyRequests)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	if srv.Stats().Rejected != 1 {
		t.Fatalf("rejected counter %d, want 1", srv.Stats().Rejected)
	}

	// Operational endpoints bypass admission.
	resp, m = get(t, ts, "/healthz")
	wantStatus(t, resp, m, 200)
	resp, m = get(t, ts, "/debug/stats")
	wantStatus(t, resp, m, 200)
	if m["server"].(map[string]any)["inflight"].(float64) != 1 {
		t.Fatalf("debug/stats inflight %v, want 1", m["server"])
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}

	// Slot free again: the bounced query now succeeds.
	resp, m = get(t, ts, "/v1/timeseries?keyword=somalia")
	wantStatus(t, resp, m, 200)
}

// TestConcurrentMixedQueries is the -race soak over the whole surface:
// many goroutines across distinct endpoints and parameters, one shared
// session, with admission small enough that some requests 429. Every
// response must be either a successful query or a well-formed 429.
func TestConcurrentMixedQueries(t *testing.T) {
	srv, _, ts := newTestServer(t, quietConfig(func(c *Config) { c.MaxInflight = 4 }))
	paths := []string{
		"/v1/stable-clusters?k=2",
		"/v1/stable-clusters?variant=normalized&k=2",
		"/v1/timeseries?keyword=somalia",
		"/v1/bursts?keyword=somalia",
		"/v1/search?terms=somalia&interval=0",
		"/v1/refine?query=somalia&interval=1",
		"/v1/correlations?keyword=somalia&interval=0",
		"/debug/stats",
	}
	const rounds = 6
	var wg sync.WaitGroup
	errCh := make(chan error, rounds*len(paths))
	for r := 0; r < rounds; r++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					errCh <- err
					return
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				switch resp.StatusCode {
				case 200:
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						errCh <- fmt.Errorf("%s: 429 without Retry-After", p)
					}
				default:
					errCh <- fmt.Errorf("%s: status %d: %s", p, resp.StatusCode, body)
				}
			}(p)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := srv.Stats()
	if st.Requests == 0 {
		t.Fatal("no requests recorded")
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight %d after drain, want 0", st.Inflight)
	}
}
