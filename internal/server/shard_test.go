package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	blogclusters "repro"
	"repro/internal/shard"
)

// newShardedServer fronts an in-process 2-shard coordinator with a
// Server: the serving layer must not be able to tell it from a single
// Engine (same routes, same statuses, same cache behavior), plus the
// coordinator-only extras (per-shard /debug/stats rows).
func newShardedServer(t *testing.T, cfg Config) (*Server, *shard.Coordinator, *httptest.Server) {
	t.Helper()
	col, err := blogclusters.GenerateCorpus(blogclusters.NewsWeekCorpus(2007, 60))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := OpenInProcess(t.Context(), col, 2, quietConfig(nil), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	srv := New(cfg)
	srv.SetEngine(coord)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, coord, ts
}

// TestShardedEndpoints drives the query surface against a coordinator
// session and checks the coordinator-specific envelope pieces.
func TestShardedEndpoints(t *testing.T) {
	_, coord, ts := newShardedServer(t, quietConfig(nil))
	m := coord.Stats().Intervals

	resp, body := get(t, ts, "/v1/stable-clusters?k=3&l=2")
	wantStatus(t, resp, body, 200)
	if body["generation"].(float64) != 1 {
		t.Errorf("generation %v, want 1", body["generation"])
	}
	if len(body["paths"].([]any)) == 0 {
		t.Error("no stable clusters over the sharded session")
	}

	resp, body = get(t, ts, "/v1/meta")
	wantStatus(t, resp, body, 200)
	if int(body["intervals"].(float64)) != m {
		t.Errorf("meta intervals %v, want %d", body["intervals"], m)
	}
	if len(body["totals"].([]any)) != m {
		t.Errorf("meta totals length %d, want %d", len(body["totals"].([]any)), m)
	}

	resp, body = get(t, ts, fmt.Sprintf("/v1/clusters?from=0&to=%d", m))
	wantStatus(t, resp, body, 200)
	if len(body["sets"].([]any)) != m {
		t.Errorf("clusters sets length %d, want %d", len(body["sets"].([]any)), m)
	}
	resp, body = get(t, ts, "/v1/clusters?from=0&to=2&counts=1")
	wantStatus(t, resp, body, 200)
	if len(body["counts"].([]any)) != 2 {
		t.Errorf("clusters counts %v", body["counts"])
	}
	resp, body = get(t, ts, fmt.Sprintf("/v1/clusters?from=0&to=%d", m+1))
	wantStatus(t, resp, body, 400)

	resp, body = get(t, ts, "/v1/timeseries?keyword=games")
	wantStatus(t, resp, body, 200)
	if len(body["counts"].([]any)) != m || len(body["totals"].([]any)) != m {
		t.Errorf("timeseries lengths %d/%d, want %d", len(body["counts"].([]any)), len(body["totals"].([]any)), m)
	}

	resp, body = get(t, ts, "/v1/search?terms=games&interval=99")
	wantStatus(t, resp, body, 400)

	resp, body = get(t, ts, "/debug/stats")
	wantStatus(t, resp, body, 200)
	shards, ok := body["shards"].([]any)
	if !ok || len(shards) != 2 {
		t.Fatalf("debug stats shards block: %v", body["shards"])
	}
	row := shards[0].(map[string]any)
	if row["intervals"].(float64) == 0 || row["engine"] == nil {
		t.Errorf("shard row incomplete: %v", row)
	}
}

// TestShardedPushInvalidatesCache checks the composite generation keys
// the response cache exactly like a single engine's: a push through
// the coordinator moves sequence-dependent queries to a fresh cache
// namespace while interval-scoped entries keep hitting.
func TestShardedPushInvalidatesCache(t *testing.T) {
	_, coord, ts := newShardedServer(t, quietConfig(nil))
	m := coord.Stats().Intervals

	xcache := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return resp.Header.Get("X-Cache")
	}

	if got := xcache("/v1/stable-clusters?k=3&l=2"); got != "miss" {
		t.Fatalf("cold solve: X-Cache %q, want miss", got)
	}
	if got := xcache("/v1/stable-clusters?k=3&l=2"); got != "hit" {
		t.Fatalf("warm solve: X-Cache %q, want hit", got)
	}
	if got := xcache("/v1/search?terms=games&interval=0"); got != "miss" {
		t.Fatalf("cold search: X-Cache %q, want miss", got)
	}

	pushBody := fmt.Sprintf(`{"interval":%d,"label":"pushed","docs":[{"id":900001,"keywords":["game","games"]}]}`, m)
	resp, err := http.Post(ts.URL+"/v1/push", "application/json", bytes.NewReader([]byte(pushBody)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("push: status %d", resp.StatusCode)
	}
	if got := coord.Generation(); got != 2 {
		t.Fatalf("composite generation %d after push, want 2", got)
	}

	// Sequence-dependent entry re-keyed by the new generation: miss.
	if got := xcache("/v1/stable-clusters?k=3&l=2"); got != "miss" {
		t.Errorf("post-push solve: X-Cache %q, want miss (new generation namespace)", got)
	}
	// Interval-scoped entry survives the push: hit.
	if got := xcache("/v1/search?terms=games&interval=0"); got != "hit" {
		t.Errorf("post-push search: X-Cache %q, want hit (interval is immutable)", got)
	}

	// Replaying the same push is now out of order: 409.
	resp, err = http.Post(ts.URL+"/v1/push", "application/json", bytes.NewReader([]byte(pushBody)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("replayed push: status %d, want 409", resp.StatusCode)
	}
}

// TestShardedUnavailable checks a dead shard surfaces as 503 at the
// serving layer — the fail-closed policy made visible to clients.
func TestShardedUnavailable(t *testing.T) {
	col, err := blogclusters.GenerateCorpus(blogclusters.NewsWeekCorpus(2007, 60))
	if err != nil {
		t.Fatal(err)
	}
	subs, err := shard.SplitCollection(col, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 is live; shard 1 is a server that never got a session, so
	// its queries 503 — which the coordinator folds into ErrUnavailable.
	eng, err := blogclusters.Open(t.Context(), blogclusters.FromCollection(subs[0]), blogclusters.WithGraphOptions(blogclusters.GraphOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	live := New(quietConfig(nil))
	live.SetEngine(eng)
	liveTS := httptest.NewServer(live.Handler())
	t.Cleanup(liveTS.Close)

	deadEng, err := blogclusters.Open(t.Context(), blogclusters.FromCollection(subs[1]))
	if err != nil {
		t.Fatal(err)
	}
	dead := New(quietConfig(nil))
	dead.SetEngine(deadEng)
	deadTS := httptest.NewServer(dead.Handler())

	b0, err := NewClient(liveTS.URL, liveTS.Client())
	if err != nil {
		t.Fatal(err)
	}
	b1, err := NewClient(deadTS.URL, deadTS.Client())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := shard.NewCoordinator(t.Context(), []shard.Backend{b0, b1}, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	deadTS.Close()
	deadEng.Close()

	srv := New(quietConfig(nil))
	srv.SetEngine(coord)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, body := get(t, ts, "/v1/timeseries?keyword=games")
	wantStatus(t, resp, body, http.StatusServiceUnavailable)
	resp, body = get(t, ts, "/v1/bursts?keyword=games")
	wantStatus(t, resp, body, http.StatusServiceUnavailable)

	// The dashboard stays best-effort: 200 with the dead shard's row
	// carrying an error instead of stats.
	resp, body = get(t, ts, "/debug/stats")
	wantStatus(t, resp, body, 200)
	rows := body["shards"].([]any)
	if len(rows) != 2 {
		t.Fatalf("shards rows: %v", body["shards"])
	}
	deadRow := rows[1].(map[string]any)
	if deadRow["error"] == nil || deadRow["error"] == "" {
		t.Errorf("dead shard row has no error: %v", deadRow)
	}
}

// TestDescribeNodeCeiling checks a describe with more node ids than the
// graph has intervals is a 400 on an unsharded server and through a
// coordinator: a path holds at most one node per interval, and the
// rendering grew with the list.
func TestDescribeNodeCeiling(t *testing.T) {
	srv, _, single := newTestServer(t, quietConfig(nil))
	_, _, sharded := newShardedServer(t, quietConfig(nil))
	m := srv.Session().Stats().Intervals
	nodes := strings.TrimSuffix(strings.Repeat("0,", m), ",")
	for _, ts := range []*httptest.Server{single, sharded} {
		resp, body := get(t, ts, "/v1/describe?nodes="+nodes)
		wantStatus(t, resp, body, http.StatusOK)
		resp, body = get(t, ts, "/v1/describe?nodes=0,"+nodes)
		wantStatus(t, resp, body, http.StatusBadRequest)
	}
}

// TestShardedKeywordsTravelRaw checks a coordinator forwards a keyword
// as the client sent it. The analyzer is not idempotent (agreed → agre
// → agr), so a shard asked about the analyzed form would answer for a
// different word; here every document carries "agre", the analyzed
// form of "agreed".
func TestShardedKeywordsTravelRaw(t *testing.T) {
	col := &blogclusters.Collection{}
	id := int64(0)
	for i := range 4 {
		iv := blogclusters.Interval{Index: i, Label: fmt.Sprint("day ", i)}
		for d := range 40 {
			kws := []string{"agre", "treati"}
			if d%2 == 1 {
				kws = []string{"weather", "rain"}
			}
			iv.Docs = append(iv.Docs, blogclusters.Document{ID: id, Interval: i, Keywords: kws})
			id++
		}
		col.Intervals = append(col.Intervals, iv)
	}
	ref, err := blogclusters.Open(t.Context(), blogclusters.FromCollection(col))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	coord, err := OpenInProcess(t.Context(), col, 2, quietConfig(nil), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	serve := func(sess Session) *httptest.Server {
		srv := New(quietConfig(nil))
		srv.SetEngine(sess)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	single, sharded := serve(ref), serve(coord)

	for _, tc := range []struct{ path, field string }{
		{"/v1/timeseries?keyword=agreed", "counts"},
		{"/v1/correlations?keyword=agreed&interval=1", "correlations"},
		{"/v1/refine?query=agreed&interval=2", "keywords"},
	} {
		resp, want := get(t, single, tc.path)
		wantStatus(t, resp, want, http.StatusOK)
		resp, got := get(t, sharded, tc.path)
		wantStatus(t, resp, got, http.StatusOK)
		delete(want, "generation")
		delete(got, "generation")
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: coordinator answered %v, unsharded %v", tc.path, got, want)
		}
		if list, _ := want[tc.field].([]any); len(list) == 0 || reflect.DeepEqual(list, []any{0.0, 0.0, 0.0, 0.0}) {
			t.Errorf("%s: empty %s in %v", tc.path, tc.field, want)
		}
	}
}
