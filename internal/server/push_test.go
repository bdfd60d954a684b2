package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	blogclusters "repro"
	"repro/internal/raceflag"
)

// pushBody renders a /v1/push request for one synthetic interval whose
// docs all mention kw. IDs start high so they never collide with the
// generated corpus.
func pushBody(t *testing.T, index int, kw string, docs int) *bytes.Reader {
	t.Helper()
	type doc struct {
		ID       int64    `json:"id"`
		Keywords []string `json:"keywords"`
	}
	body := struct {
		Interval int    `json:"interval"`
		Label    string `json:"label"`
		Docs     []doc  `json:"docs"`
	}{Interval: index, Label: fmt.Sprintf("pushed-t%d", index)}
	for i := 0; i < docs; i++ {
		body.Docs = append(body.Docs, doc{
			ID:       int64(1_000_000 + index*1000 + i),
			Keywords: []string{kw, "pushedfiller"},
		})
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func postPush(t *testing.T, ts *httptest.Server, body io.Reader) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/push", "application/json", body)
	if err != nil {
		t.Fatalf("POST /v1/push: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("POST /v1/push: not JSON (%v): %s", err, raw)
	}
	return resp, m
}

// TestCacheFillStaleGeneration is the regression test for the
// single-flight/ingest race: a cache fill that starts against
// generation N must not be stored if the Engine has moved to N+1 by
// the time the fill completes. Without the guard, the stale-snapshot
// response would be replayed as a "hit" to clients who pushed the new
// interval and expect to see it.
func TestCacheFillStaleGeneration(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hook := func(ev blogclusters.StageEvent) {
		if ev.Stage == "index" && !ev.Done {
			once.Do(func() {
				close(started)
				<-release
			})
		}
	}
	srv, eng, ts := newTestServer(t, quietConfig(nil), blogclusters.WithProgress(hook))

	// Kick off a timeseries query; its fill blocks inside the index
	// build, holding the generation-1 snapshot.
	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/timeseries?keyword=somalia")
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
		t.Fatal("first request never reached the index build")
	}

	// Push interval 7 mid-fill: the Engine is now at generation 2.
	n := eng.NumIntervals()
	if _, err := eng.Push(t.Context(), blogclusters.Interval{
		Index: n, Label: "pushed",
		Docs: []blogclusters.Document{{ID: 9_000_001, Interval: n, Keywords: []string{"somalia"}}},
	}); err != nil {
		t.Fatalf("Push: %v", err)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}

	// The fill straddled the push, so its entry must not have been
	// stored: a stale 7-interval answer served post-push would hide the
	// interval the client just ingested.
	if cs := srv.Stats().Cache; cs.Entries != 0 {
		t.Fatalf("stale-generation fill was stored: %+v", cs)
	}
	resp, m := get(t, ts, "/v1/timeseries?keyword=somalia")
	wantStatus(t, resp, m, 200)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("post-push query X-Cache %q, want miss (stale-generation entry must not be replayed)", got)
	}
	counts, _ := m["counts"].([]any)
	if len(counts) != n+1 {
		t.Fatalf("post-push timeseries has %d intervals, want %d", len(counts), n+1)
	}
}

// TestPushEndpoint drives POST /v1/push through the full status
// surface: a successful ingest bumps the generation everywhere it is
// reported, a replayed or skipped interval is 409, and bodies that do
// not decode or fail interval validation are 422.
func TestPushEndpoint(t *testing.T) {
	srv, eng, ts := newTestServer(t, quietConfig(nil))
	n := eng.NumIntervals()

	resp, m := get(t, ts, "/debug/stats")
	wantStatus(t, resp, m, 200)
	if m["generation"].(float64) != 1 {
		t.Fatalf("debug/stats generation %v, want 1", m["generation"])
	}

	resp, m = postPush(t, ts, pushBody(t, n, "somalia", 40))
	wantStatus(t, resp, m, 200)
	if m["generation"].(float64) != 2 || m["docs"].(float64) != 40 {
		t.Fatalf("push response %v, want generation 2 with 40 docs", m)
	}
	if got := eng.Generation(); got != 2 {
		t.Fatalf("Engine generation %d after push, want 2", got)
	}
	if st := srv.Stats(); st.Pushes != 1 {
		t.Fatalf("server pushes %d, want 1", st.Pushes)
	}
	resp, m = get(t, ts, "/debug/stats")
	wantStatus(t, resp, m, 200)
	if m["generation"].(float64) != 2 {
		t.Fatalf("debug/stats generation %v after push, want 2", m["generation"])
	}

	// Replaying the same interval (or skipping ahead) is a sequencing
	// conflict, not a bad request.
	resp, m = postPush(t, ts, pushBody(t, n, "somalia", 1))
	wantStatus(t, resp, m, http.StatusConflict)
	resp, m = postPush(t, ts, pushBody(t, n+5, "somalia", 1))
	wantStatus(t, resp, m, http.StatusConflict)

	// Malformed bodies and malformed intervals are 422.
	for name, body := range map[string]io.Reader{
		"not json":      bytes.NewReader([]byte("{")),
		"unknown field": bytes.NewReader([]byte(`{"interval":8,"surprise":true}`)),
		"negative id":   bytes.NewReader([]byte(`{"interval":8,"docs":[{"id":-1,"keywords":["x"]}]}`)),
		"dup id":        bytes.NewReader([]byte(`{"interval":8,"docs":[{"id":1,"keywords":["x"]},{"id":1,"keywords":["y"]}]}`)),
	} {
		resp, m = postPush(t, ts, body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422 (body %v)", name, resp.StatusCode, m)
		}
	}
	// None of the failures moved the session.
	if got := eng.Generation(); got != 2 {
		t.Fatalf("Engine generation %d after failed pushes, want 2", got)
	}
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestPushBodyLimit pins the ceiling on push bodies at both sides of
// the boundary: a body of exactly maxPushBody bytes is ingested, one
// byte more is 413 and leaves the session alone. The padding is JSON
// whitespace streamed ahead of a small valid body, and the handler is
// driven without a socket, so the only large buffer is the decoder's.
func TestPushBodyLimit(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("buffers two 64 MiB bodies, which the race detector's shadow memory multiplies")
	}
	srv, eng, _ := newTestServer(t, quietConfig(nil))
	body, err := io.ReadAll(pushBody(t, eng.NumIntervals(), "somalia", 3))
	if err != nil {
		t.Fatal(err)
	}
	push := func(total int64) *httptest.ResponseRecorder {
		pad := io.LimitReader(spaces{}, total-int64(len(body)))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/push", io.MultiReader(pad, bytes.NewReader(body))))
		return rec
	}

	rec := push(maxPushBody + 1)
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || rec.Code != http.StatusRequestEntityTooLarge || m["error"] == nil {
		t.Fatalf("over the limit: status %d body %s, want 413 with a JSON error", rec.Code, rec.Body)
	}
	if got := eng.Generation(); got != 1 {
		t.Fatalf("Engine generation %d after the refused push, want 1", got)
	}

	if rec := push(maxPushBody); rec.Code != http.StatusOK {
		t.Fatalf("at the limit: status %d body %s, want 200", rec.Code, rec.Body)
	}
	if got := eng.Generation(); got != 2 {
		t.Fatalf("Engine generation %d after the accepted push, want 2", got)
	}
}

// TestPushEvictsExactlyDependentEntries is the acceptance test for
// generation-keyed invalidation: after a push, whole-timeline queries
// (timeseries here) refill under the new generation while
// interval-scoped queries (search) keep hitting their old entries.
func TestPushEvictsExactlyDependentEntries(t *testing.T) {
	_, eng, ts := newTestServer(t, quietConfig(nil))
	n := eng.NumIntervals()

	xcache := func(path string, wantGen float64) string {
		t.Helper()
		resp, m := get(t, ts, path)
		wantStatus(t, resp, m, 200)
		if m["generation"] != wantGen {
			t.Fatalf("%s: generation %v, want %v", path, m["generation"], wantGen)
		}
		return resp.Header.Get("X-Cache")
	}

	// Warm both classes at generation 1.
	if got := xcache("/v1/timeseries?keyword=somalia", 1); got != "miss" {
		t.Fatalf("cold timeseries X-Cache %q, want miss", got)
	}
	if got := xcache("/v1/search?terms=somalia&interval=0", 1); got != "miss" {
		t.Fatalf("cold search X-Cache %q, want miss", got)
	}
	if got := xcache("/v1/timeseries?keyword=somalia", 1); got != "hit" {
		t.Fatalf("warm timeseries X-Cache %q, want hit", got)
	}

	resp, m := postPush(t, ts, pushBody(t, n, "somalia", 30))
	wantStatus(t, resp, m, 200)

	// The generation-keyed entry is dead: same query refills and sees
	// the pushed interval. The interval-scoped entry survives — its
	// interval is immutable — so the untouched query's hit is preserved
	// (still answering for the generation it was rendered at).
	if got := xcache("/v1/timeseries?keyword=somalia", 2); got != "miss" {
		t.Fatalf("post-push timeseries X-Cache %q, want miss", got)
	}
	if got := xcache("/v1/search?terms=somalia&interval=0", 1); got != "hit" {
		t.Fatalf("post-push search X-Cache %q, want hit (interval 0 is immutable)", got)
	}
	resp, m = get(t, ts, "/v1/timeseries?keyword=somalia")
	wantStatus(t, resp, m, 200)
	counts := m["counts"].([]any)
	if len(counts) != n+1 || counts[n].(float64) == 0 {
		t.Fatalf("post-push timeseries %v, want %d intervals with activity in the pushed one", m["counts"], n+1)
	}
}
