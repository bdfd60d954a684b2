package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	blogclusters "repro"
	"repro/internal/shard"
)

// scrapeMetrics fetches /metrics and returns the exposition text.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue finds the sample whose name matches and whose label set
// contains every given pair, failing when absent. Label values here
// never need escaping, so plain substring matching on rendered pairs
// is exact.
func metricValue(t *testing.T, text, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := lookupMetric(text, name, labels)
	if !ok {
		t.Fatalf("metric %s%v not found in exposition", name, labels)
	}
	return v
}

func lookupMetric(text, name string, labels map[string]string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		rest, found := strings.CutPrefix(line, name)
		if !found || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		ok := true
		for k, v := range labels {
			if !strings.Contains(rest, k+`="`+v+`"`) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		val, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		return val, true
	}
	return 0, false
}

// TestMetricsEndpoint drives known traffic and checks the route
// counters, latency histogram counts and cache counters agree exactly
// with what was served (and with the X-Cache headers the same requests
// carried).
func TestMetricsEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, quietConfig(nil))

	var hits, misses int
	const n = 5
	for i := 0; i < n; i++ {
		resp, err := http.Get(ts.URL + "/v1/timeseries?keyword=somalia")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.Header.Get("X-Cache") {
		case "hit":
			hits++
		case "miss":
			misses++
		}
	}
	if misses != 1 || hits != n-1 {
		t.Fatalf("traffic saw %d misses / %d hits, want 1/%d", misses, hits, n-1)
	}

	text := scrapeMetrics(t, ts)

	if got := metricValue(t, text, "http_requests_total", map[string]string{"route": "timeseries", "status": "200"}); got != n {
		t.Errorf("http_requests_total{route=timeseries} = %v, want %d", got, n)
	}
	if got := metricValue(t, text, "http_request_duration_seconds_count", map[string]string{"route": "timeseries"}); got != n {
		t.Errorf("duration _count{route=timeseries} = %v, want %d", got, n)
	}
	if got := metricValue(t, text, "cache_requests_total", map[string]string{"state": "hit"}); got != float64(hits) {
		t.Errorf("cache_requests_total{state=hit} = %v, want %d", got, hits)
	}
	if got := metricValue(t, text, "cache_requests_total", map[string]string{"state": "miss"}); got != float64(misses) {
		t.Errorf("cache_requests_total{state=miss} = %v, want %d", got, misses)
	}
	if got := metricValue(t, text, "engine_generation", nil); got != 1 {
		t.Errorf("engine_generation = %v, want 1", got)
	}
	if got := metricValue(t, text, "engine_intervals", nil); got != 7 {
		t.Errorf("engine_intervals = %v, want 7", got)
	}
	// The timeseries fill built the index: its stage counter must show.
	if got := metricValue(t, text, "engine_stage_builds_total", map[string]string{"stage": "index"}); got < 1 {
		t.Errorf("engine_stage_builds_total{stage=index} = %v, want >= 1", got)
	}

	// A second scrape must never move a counter backwards — and the
	// scrape itself advances its own route counter.
	text2 := scrapeMetrics(t, ts)
	if got := metricValue(t, text2, "http_requests_total", map[string]string{"route": "metrics", "status": "200"}); got != 1 {
		t.Errorf("http_requests_total{route=metrics} on second scrape = %v, want 1 (first scrape counted)", got)
	}
	if got := metricValue(t, text2, "http_requests_total", map[string]string{"route": "timeseries", "status": "200"}); got != n {
		t.Errorf("timeseries counter moved between scrapes: %v", got)
	}
}

// TestMetricsSolveHistogram checks the per-algorithm solver work
// accounting reaches the exposition, with an auto solve counted under
// the solver it resolves to.
func TestMetricsSolveHistogram(t *testing.T) {
	_, _, ts := newTestServer(t, quietConfig(nil))

	resp, m := get(t, ts, "/v1/stable-clusters?k=3&algorithm=dfs")
	wantStatus(t, resp, m, 200)
	text := scrapeMetrics(t, ts)
	if got := metricValue(t, text, "engine_solve_duration_seconds_count", map[string]string{"algorithm": "dfs"}); got != 1 {
		t.Errorf("solve histogram count for dfs = %v, want 1", got)
	}
	// One solve so far: the summed work is that solve's own counters,
	// on /debug/stats and on /metrics.
	stats := m["stats"].(map[string]any)
	_, dbg := get(t, ts, "/debug/stats")
	work, _ := dbg["engine"].(map[string]any)["planner"].(map[string]any)["work"].(map[string]any)["dfs"].(map[string]any)
	for _, counter := range []string{"node_reads", "edge_reads", "heap_considers"} {
		want := stats[counter].(float64)
		if work[counter] != want {
			t.Errorf("/debug/stats engine.planner.work.dfs.%s = %v, the solve reported %v", counter, work[counter], want)
		}
		if got := metricValue(t, text, "engine_solve_work_total", map[string]string{"algorithm": "dfs", "counter": counter}); got != want || want == 0 {
			t.Errorf("engine_solve_work_total{dfs,%s} = %v, the solve reported %v (want equal and non-zero)", counter, got, want)
		}
	}

	resp, m = get(t, ts, "/v1/stable-clusters?k=3&algorithm=auto")
	wantStatus(t, resp, m, 200)
	resp, m = get(t, ts, "/v1/stable-clusters?k=3&variant=normalized")
	wantStatus(t, resp, m, 200)
	text = scrapeMetrics(t, ts)
	for _, algo := range []string{"bfs", "dfs", "normalized"} {
		if got := metricValue(t, text, "engine_solve_duration_seconds_count", map[string]string{"algorithm": algo}); got != 1 {
			t.Errorf("solve histogram count for %s = %v, want 1", algo, got)
		}
	}
	if got := metricValue(t, text, "engine_solve_peak_state_paths", map[string]string{"algorithm": "bfs"}); got <= 0 {
		t.Errorf("engine_solve_peak_state_paths{bfs} = %v, want > 0", got)
	}
	// The normalized solve's heap offers, as /debug/stats reports them.
	_, dbg = get(t, ts, "/debug/stats")
	offers := dbg["engine"].(map[string]any)["planner"].(map[string]any)["work"].(map[string]any)["normalized"].(map[string]any)["heap_considers"]
	if got := metricValue(t, text, "engine_solve_work_total", map[string]string{"algorithm": "normalized", "counter": "heap_considers"}); got != offers || got < 1 {
		t.Errorf("engine_solve_work_total{normalized,heap_considers} = %v, /debug/stats says %v (want equal and >= 1)", got, offers)
	}
}

// TestRequestID checks the id lifecycle: minted when absent, echoed
// when present, unique per request.
func TestRequestID(t *testing.T) {
	_, _, ts := newTestServer(t, quietConfig(nil))

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id1 := resp.Header.Get("X-Request-ID")
	if id1 == "" {
		t.Fatal("no X-Request-ID on response")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id2 := resp.Header.Get("X-Request-ID"); id2 == id1 {
		t.Fatalf("request ids not unique: %q twice", id2)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-supplied-7" {
		t.Fatalf("supplied id not echoed: got %q", got)
	}
}

// TestTraceBlock checks ?trace=1: the response carries a span
// waterfall, bypasses the cache, and cold requests show the engine
// stages that actually ran.
func TestTraceBlock(t *testing.T) {
	_, _, ts := newTestServer(t, quietConfig(nil))

	resp, m := get(t, ts, "/v1/stable-clusters?k=3&trace=1")
	wantStatus(t, resp, m, 200)
	if got := resp.Header.Get("X-Cache"); got != "bypass" {
		t.Fatalf("traced request X-Cache %q, want bypass", got)
	}
	spans, ok := m["trace"].([]any)
	if !ok || len(spans) == 0 {
		t.Fatalf("no trace block: %v", m)
	}
	names := map[string]bool{}
	for _, sp := range spans {
		span := sp.(map[string]any)
		names[span["name"].(string)] = true
		if _, ok := span["dur_us"].(float64); !ok {
			t.Fatalf("span without dur_us: %v", span)
		}
	}
	// Cold solve: the cluster and graph stages ran inside this request.
	for _, want := range []string{"clusters", "graph", "request"} {
		if !names[want] {
			t.Errorf("trace missing span %q (got %v)", want, names)
		}
	}
	solved := false
	for name := range names {
		if strings.HasPrefix(name, "solve:") {
			solved = true
		}
	}
	if !solved {
		t.Errorf("trace has no solve span: %v", names)
	}

	// The traced request must not have seeded the cache, and a repeat
	// trace is honest about hot state: no build spans the second time.
	resp, m = get(t, ts, "/v1/stable-clusters?k=3&trace=1")
	wantStatus(t, resp, m, 200)
	if got := resp.Header.Get("X-Cache"); got != "bypass" {
		t.Fatalf("second traced request X-Cache %q, want bypass", got)
	}
	for _, sp := range m["trace"].([]any) {
		if name := sp.(map[string]any)["name"].(string); name == "clusters" || name == "graph" {
			t.Errorf("hot traced request re-reports build span %q", name)
		}
	}
	// An untraced request now misses (trace never cached) then hits.
	resp, err := http.Get(ts.URL + "/v1/stable-clusters?k=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("untraced after traced: X-Cache %q, want miss", got)
	}
}

// TestTraceSolveSpanCarriesWork checks that a traced solve's
// solve:<algorithm> span reports the same work counters as the body's
// stats.
func TestTraceSolveSpanCarriesWork(t *testing.T) {
	_, _, ts := newTestServer(t, quietConfig(nil))
	resp, m := get(t, ts, "/v1/stable-clusters?k=3&l=2&algorithm=bfs&trace=1")
	wantStatus(t, resp, m, 200)
	stats, ok := m["stats"].(map[string]any)
	if !ok {
		t.Fatalf("no stats block: %v", m)
	}
	var work map[string]any
	for _, sp := range m["trace"].([]any) {
		if span := sp.(map[string]any); span["name"] == "solve:bfs" {
			work, _ = span["work"].(map[string]any)
		}
	}
	if work == nil {
		t.Fatalf("no solve:bfs span with a work block: %v", m["trace"])
	}
	for _, counter := range []string{"edge_reads", "heap_considers", "pruned"} {
		if w, ok := work[counter].(float64); !ok || w != stats[counter] {
			t.Errorf("solve:bfs span %s = %v, body stats say %v", counter, work[counter], stats[counter])
		}
	}
	if work["edge_reads"] == 0.0 {
		t.Error("solve:bfs span counts no edge reads")
	}
}

// TestDebugStatsProcess pins the /debug/stats wire format including
// the process block.
func TestDebugStatsProcess(t *testing.T) {
	_, _, ts := newTestServer(t, quietConfig(nil))
	resp, m := get(t, ts, "/debug/stats")
	wantStatus(t, resp, m, 200)
	for _, field := range []string{"generation", "engine", "server", "process"} {
		if _, ok := m[field]; !ok {
			t.Errorf("/debug/stats missing %q: %v", field, m)
		}
	}
	proc, ok := m["process"].(map[string]any)
	if !ok {
		t.Fatalf("process block not an object: %v", m["process"])
	}
	if v, ok := proc["go_version"].(string); !ok || !strings.HasPrefix(v, "go") {
		t.Errorf("process.go_version = %v", proc["go_version"])
	}
	if v, ok := proc["gomaxprocs"].(float64); !ok || v < 1 {
		t.Errorf("process.gomaxprocs = %v", proc["gomaxprocs"])
	}
	if v, ok := proc["goroutines"].(float64); !ok || v < 1 {
		t.Errorf("process.goroutines = %v", proc["goroutines"])
	}
	if v, ok := proc["uptime_seconds"].(float64); !ok || v < 0 {
		t.Errorf("process.uptime_seconds = %v", proc["uptime_seconds"])
	}
}

// TestConcurrentScrapeWhileServing is the -race gate for the metrics
// path: queries, pushes of counters and scrapes all running at once.
func TestConcurrentScrapeWhileServing(t *testing.T) {
	_, _, ts := newTestServer(t, quietConfig(nil))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(ts.URL + "/v1/timeseries?keyword=somalia")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				scrapeMetrics(t, ts)
			}
		}()
	}
	wg.Wait()
	text := scrapeMetrics(t, ts)
	if got := metricValue(t, text, "http_requests_total", map[string]string{"route": "timeseries", "status": "200"}); got != 80 {
		t.Errorf("http_requests_total{route=timeseries} = %v, want 80", got)
	}
}

// TestShardedMetrics checks the coordinator appends its own families
// to the exposition with per-shard labels, and that the boundary
// accounting series move after a scattered solve.
func TestShardedMetrics(t *testing.T) {
	_, _, ts := newShardedServer(t, quietConfig(nil))

	// A bounded-length top-k scatters across both shards.
	resp, m := get(t, ts, "/v1/stable-clusters?k=3&l=2")
	wantStatus(t, resp, m, 200)

	text := scrapeMetrics(t, ts)
	if got := metricValue(t, text, "coordinator_solves_total", map[string]string{"route": "scatter"}); got != 1 {
		t.Errorf("coordinator_solves_total{route=scatter} = %v, want 1", got)
	}
	if got := metricValue(t, text, "coordinator_fanout_width_count", nil); got != 1 {
		t.Errorf("coordinator_fanout_width_count = %v, want 1", got)
	}
	if got := metricValue(t, text, "coordinator_scatter_partials_total", map[string]string{"kind": "window"}); got < 1 {
		t.Errorf("coordinator_scatter_partials_total{kind=window} = %v, want >= 1", got)
	}
	for _, sh := range []string{"0", "1"} {
		if got := metricValue(t, text, "shard_intervals", map[string]string{"shard": sh}); got < 1 {
			t.Errorf("shard_intervals{shard=%s} = %v, want >= 1", sh, got)
		}
		if got := metricValue(t, text, "shard_generation", map[string]string{"shard": sh}); got != 1 {
			t.Errorf("shard_generation{shard=%s} = %v, want 1", sh, got)
		}
		if _, ok := lookupMetric(text, "coordinator_shard_gather_duration_seconds_count", map[string]string{"shard": sh, "method": "solve"}); !ok {
			t.Errorf("no gather-latency histogram for shard %s solve hops", sh)
		}
	}
	// The server-side engine block is the cross-shard aggregate.
	if got := metricValue(t, text, "engine_intervals", nil); got != 7 {
		t.Errorf("aggregate engine_intervals = %v, want 7", got)
	}
}

// TestRequestIDPropagatesToShards checks the coordinator forwards the
// serving layer's request id on its shard hops, so one query
// correlates across all processes.
func TestRequestIDPropagatesToShards(t *testing.T) {
	col, err := blogclusters.GenerateCorpus(blogclusters.NewsWeekCorpus(2007, 60))
	if err != nil {
		t.Fatal(err)
	}
	subs, err := shard.SplitCollection(col, 2)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	seen := map[string]bool{}
	shardTS := make([]*httptest.Server, 2)
	for i := range subs {
		eng, err := blogclusters.Open(t.Context(), blogclusters.FromCollection(subs[i]))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		ssrv := New(quietConfig(nil))
		ssrv.SetEngine(eng)
		inner := ssrv.Handler()
		shardTS[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if id := r.Header.Get("X-Request-ID"); id != "" {
				mu.Lock()
				seen[id] = true
				mu.Unlock()
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(shardTS[i].Close)
	}

	backends := make([]shard.Backend, 2)
	for i, sts := range shardTS {
		b, err := NewClient(sts.URL, sts.Client())
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = b
	}
	coord, err := shard.NewCoordinator(t.Context(), backends, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	srv := New(quietConfig(nil))
	srv.SetEngine(coord)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/timeseries?keyword=games", nil)
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("coordinator query: status %d", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if !seen["trace-me-42"] {
		t.Fatalf("shard servers never saw the forwarded request id; saw %v", seen)
	}
}

// TestShardedTrace checks a traced scattered query reports its
// fan-out hops as shard<N>.<method> spans.
func TestShardedTrace(t *testing.T) {
	_, _, ts := newShardedServer(t, quietConfig(nil))
	resp, m := get(t, ts, "/v1/stable-clusters?k=3&l=2&trace=1")
	wantStatus(t, resp, m, 200)
	spans, ok := m["trace"].([]any)
	if !ok || len(spans) == 0 {
		t.Fatalf("no trace block: %v", m)
	}
	hops := 0
	for _, sp := range spans {
		name := sp.(map[string]any)["name"].(string)
		if strings.HasPrefix(name, "shard0.") || strings.HasPrefix(name, "shard1.") {
			hops++
		}
	}
	if hops == 0 {
		names := make([]string, 0, len(spans))
		for _, sp := range spans {
			names = append(names, fmt.Sprint(sp.(map[string]any)["name"]))
		}
		t.Fatalf("traced sharded query has no shard hop spans: %v", names)
	}
}

// TestMetricInventoryMatchesDesign is the doc-drift gate for the metric
// inventory: DESIGN.md "Observability → Naming" lists the families by
// subsystem prefix (`http_*`, `engine_*`, …). Every family a server or
// a coordinator exposes must fall under a prefix that paragraph names,
// and every prefix it names must still have a family — so a metric
// added without a doc line fails here, and so does a doc line that
// outlives its metrics.
func TestMetricInventoryMatchesDesign(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, naming, ok := strings.Cut(string(design), "**Naming.**")
	if !ok {
		t.Fatal(`DESIGN.md has no "**Naming.**" paragraph under Observability`)
	}
	naming, _, _ = strings.Cut(naming, "\n\n")
	var prefixes []string
	for _, m := range regexp.MustCompile("`([a-z_]+_)\\*`").FindAllStringSubmatch(naming, -1) {
		prefixes = append(prefixes, m[1])
	}
	if len(prefixes) == 0 {
		t.Fatalf("no `prefix_*` entries found in the Naming paragraph:\n%s", naming)
	}

	// One solve on each so the labelled solve/routing families have a
	// series to expose.
	_, _, single := newTestServer(t, quietConfig(nil))
	_, _, sharded := newShardedServer(t, quietConfig(nil))
	used, exposed := map[string]bool{}, map[string]bool{}
	counters := map[string]bool{} // engine_solve_work_total's counter labels
	for _, ts := range []*httptest.Server{single, sharded} {
		resp, m := get(t, ts, "/v1/stable-clusters?k=3&l=2")
		wantStatus(t, resp, m, 200)
		for _, line := range strings.Split(scrapeMetrics(t, ts), "\n") {
			if c := workCounter.FindStringSubmatch(line); c != nil {
				counters[c[1]] = true
			}
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[0] != "#" || fields[1] != "TYPE" {
				continue
			}
			family, documented := fields[2], false
			exposed[family] = true
			for _, p := range prefixes {
				if strings.HasPrefix(family, p) {
					used[p], documented = true, true
				}
			}
			if !documented {
				t.Errorf("metric family %s is under no prefix DESIGN.md's Naming paragraph lists (%v)", family, prefixes)
			}
		}
	}
	for _, p := range prefixes {
		if !used[p] {
			t.Errorf("DESIGN.md's Naming paragraph lists `%s*` but no such family is exposed", p)
		}
	}
	// The solve families are held to the stricter rule the rest of the
	// inventory is due (ROADMAP item 7): named in full, both ways.
	named := map[string]bool{}
	for _, m := range regexp.MustCompile("`(engine_solve_[a-z_]+)").FindAllStringSubmatch(naming, -1) {
		named[m[1]] = true
		if !exposed[m[1]] {
			t.Errorf("DESIGN.md's Naming paragraph names %s but no such family is exposed", m[1])
		}
	}
	for family := range exposed {
		if strings.HasPrefix(family, "engine_solve_") && !named[family] {
			t.Errorf("metric family %s is not named in DESIGN.md's Naming paragraph", family)
		}
	}
	if len(counters) == 0 {
		t.Error("no engine_solve_work_total series exposed")
	}
	for c := range counters {
		if !strings.Contains(naming, "`"+c+"`") {
			t.Errorf("engine_solve_work_total counter %q is not named in DESIGN.md's Naming paragraph", c)
		}
	}
}

var workCounter = regexp.MustCompile(`^engine_solve_work_total\{.*counter="([a-z_]+)"`)
