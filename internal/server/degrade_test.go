package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	blogclusters "repro"
)

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		timeout time.Duration
		want    string
	}{
		{0, "1"},                      // degenerate: still a valid hint
		{500 * time.Millisecond, "1"}, // ceil(0.25) = 1
		{30 * time.Second, "15"},
		{31 * time.Second, "16"}, // ceil rounds up
		{10 * time.Minute, "30"}, // clamped
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.timeout); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", c.timeout, got, c.want)
		}
	}
}

// TestPanicRecovery proves a handler panic becomes a 500 — with the
// process (and the server) still alive to answer the next request —
// and that http.ErrAbortHandler passes through untouched.
func TestPanicRecovery(t *testing.T) {
	srv := New(quietConfig(nil))
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	mux.HandleFunc("GET /abort", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	mux.HandleFunc("GET /fine", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct{}{})
	})
	ts := httptest.NewServer(srv.withOutcome(mux))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatalf("panicking handler killed the connection: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic returned %d, want 500", resp.StatusCode)
	}
	// The process survived: the next request is served normally.
	resp, err = http.Get(ts.URL + "/fine")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic returned %d, want 200", resp.StatusCode)
	}
	if got := srv.Stats().Panics; got != 1 {
		t.Fatalf("Stats().Panics = %d, want 1", got)
	}
	// ErrAbortHandler is the sanctioned hang-up: the connection dies
	// (the client sees an error), the counter does not move, and the
	// server keeps serving.
	if resp, err := http.Get(ts.URL + "/abort"); err == nil {
		resp.Body.Close()
		t.Fatal("ErrAbortHandler did not abort the connection")
	}
	if got := srv.Stats().Panics; got != 1 {
		t.Fatalf("ErrAbortHandler counted as a panic (Panics = %d)", got)
	}
	resp, err = http.Get(ts.URL + "/fine")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after abort returned %d, want 200", resp.StatusCode)
	}
}

// TestBreakerTripsAndRecovers drives a route into repeated mid-query
// Engine failures until its circuit breaker opens, checks that the
// open breaker sheds with 503 + Retry-After and degrades /readyz (but
// does not fail it), then restores the Engine and watches the breaker
// half-open, probe, and reclose.
func TestBreakerTripsAndRecovers(t *testing.T) {
	cfg := quietConfig(func(c *Config) {
		c.CacheBytes = -1 // bypass the cache: every request hits the Engine
		c.BreakerCooldown = 50 * time.Millisecond
	})
	srv, eng, ts := newTestServer(t, cfg)
	// Kill the session out from under the server: every query now dies
	// with ErrEngineClosed (503), which is exactly the failure shape the
	// breaker watches for. The serving process must survive all of it.
	eng.Close()

	path := "/v1/timeseries?keyword=somalia"
	var tripped bool
	for i := 0; i < breakerMinSamples+2; i++ {
		resp, m := get(t, ts, path)
		wantStatus(t, resp, m, http.StatusServiceUnavailable)
		if strings.Contains(m["error"].(string), "circuit breaker") {
			tripped = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("breaker 503 missing Retry-After")
			}
			break
		}
	}
	if !tripped {
		t.Fatalf("breaker never opened after %d consecutive 503s", breakerMinSamples+2)
	}
	if st := srv.Stats().Breakers["timeseries"]; st != "open" {
		t.Fatalf("breaker state = %q, want open", st)
	}
	// Degraded, not failing: /readyz stays 200 so the instance keeps
	// taking traffic for its healthy routes.
	resp, m := get(t, ts, "/readyz")
	wantStatus(t, resp, m, http.StatusOK)
	if m["status"] != "degraded" {
		t.Fatalf("readyz status = %v, want degraded", m["status"])
	}
	if !strings.Contains(m["reason"].(string), "timeseries") {
		t.Fatalf("readyz reason %q does not name the shedding route", m["reason"])
	}

	// Replace the session and let the cooldown lapse: the next request
	// is the half-open probe, it succeeds, and the breaker recloses.
	eng2, err := blogclusters.Open(context.Background(),
		blogclusters.FromGenerator(blogclusters.NewsWeekCorpus(2007, 60)))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	srv.SetEngine(eng2)
	time.Sleep(60 * time.Millisecond)
	resp, m = get(t, ts, path)
	wantStatus(t, resp, m, http.StatusOK)
	if st := srv.Stats().Breakers["timeseries"]; st != "closed" {
		t.Fatalf("breaker state after successful probe = %q, want closed", st)
	}
	resp, m = get(t, ts, "/readyz")
	wantStatus(t, resp, m, http.StatusOK)
	if m["status"] != "ok" {
		t.Fatalf("readyz after recovery = %v, want ok", m["status"])
	}
}

// TestBreakerHalfOpenReopens pins the other probe outcome: a failing
// probe sends the breaker straight back to open.
func TestBreakerHalfOpenReopens(t *testing.T) {
	b := &breaker{cooldown: 10 * time.Millisecond}
	for i := 0; i < breakerMinSamples; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.record(true)
	}
	if st, _ := b.snapshot(); st != "open" {
		t.Fatalf("state after %d failures = %q, want open", breakerMinSamples, st)
	}
	if b.allow() {
		t.Fatal("open breaker allowed a request inside the cooldown")
	}
	time.Sleep(15 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open after the cooldown")
	}
	// Only one probe at a time.
	if b.allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	b.record(true)
	if st, _ := b.snapshot(); st != "open" {
		t.Fatalf("state after failed probe = %q, want open", st)
	}
	if _, trips := b.snapshot(); trips != 2 {
		t.Fatalf("trips = %d, want 2", trips)
	}
}

// TestCachedAnswerOutlivesEngineFailure: a cached answer is fixed by
// its key, so it is replayed as a hit, byte for byte, after the Engine
// behind it has closed, while an uncached query surfaces the failure.
func TestCachedAnswerOutlivesEngineFailure(t *testing.T) {
	_, eng, ts := newTestServer(t, quietConfig(nil))
	path := "/v1/timeseries?keyword=somalia"

	state, primed := getRaw(t, ts, path, http.StatusOK)
	if state != "miss" {
		t.Fatalf("priming request X-Cache = %q, want miss", state)
	}
	eng.Close()
	state, body := getRaw(t, ts, path, http.StatusOK)
	if state != "hit" {
		t.Fatalf("X-Cache with the Engine closed = %q, want hit", state)
	}
	if !bytes.Equal(body, primed) {
		t.Fatalf("cached body changed:\n%s\nwant\n%s", body, primed)
	}
	getRaw(t, ts, "/v1/timeseries?keyword=election", http.StatusServiceUnavailable)
}

// TestSetEngineEmptiesCache: a session that replaces another starts
// from an empty response cache (both sessions count generations from
// the same start, so their keys collide), and a fill on the replaced
// session is served to its own request but not stored.
func TestSetEngineEmptiesCache(t *testing.T) {
	srv, eng, ts := newTestServer(t, quietConfig(nil))
	path := "/v1/timeseries?keyword=somalia"
	open := func(seed int64, posts int) *blogclusters.Engine {
		t.Helper()
		e, err := blogclusters.Open(t.Context(), blogclusters.FromGenerator(blogclusters.NewsWeekCorpus(seed, posts)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	counts := func(sess Session) string {
		t.Helper()
		c, err := sess.TimeSeries(t.Context(), "somalia")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(c)
	}
	served := func(body []byte) string {
		t.Helper()
		var r timeSeriesResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(r.Counts)
	}

	getRaw(t, ts, path, http.StatusOK)
	next := open(99, 300)
	if counts(next) == counts(eng) {
		t.Fatal("the two sessions agree on the series; the test cannot tell them apart")
	}
	srv.SetEngine(next)
	state, body := getRaw(t, ts, path, http.StatusOK)
	if state != "miss" || served(body) != counts(next) {
		t.Fatalf("after SetEngine: X-Cache %s, counts %s; want miss, %s (the replaced session's are %s)",
			state, served(body), counts(next), counts(eng))
	}

	// A request that resolved the replaced session before the
	// replacement and fills after it.
	blocked := &blockingSession{Session: next, entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(blocked.release) })
	t.Cleanup(release)
	srv.SetEngine(blocked)
	done := make(chan string)
	go func() {
		_, b := getRaw(t, ts, path, http.StatusOK)
		done <- served(b)
	}()
	<-blocked.entered
	last := open(7, 200)
	srv.SetEngine(last)
	release()
	if got := <-done; got != counts(next) {
		t.Fatalf("the old session's request got %s, want %s", got, counts(next))
	}
	state, body = getRaw(t, ts, path, http.StatusOK)
	if state != "miss" || served(body) != counts(last) {
		t.Fatalf("after the old fill: X-Cache %s, counts %s; want miss, %s", state, served(body), counts(last))
	}
}

// blockingSession holds its first Generation call until release closes.
type blockingSession struct {
	Session
	entered, release chan struct{}
	once             sync.Once
}

func (b *blockingSession) Generation() int64 {
	b.once.Do(func() {
		close(b.entered)
		<-b.release
	})
	return b.Session.Generation()
}

// getRaw fetches path, requires status want, and returns the X-Cache
// header and the body bytes.
func getRaw(t *testing.T, ts *httptest.Server, path string, want int) (string, []byte) {
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
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d, want %d (body %s)", path, resp.StatusCode, want, body)
	}
	return resp.Header.Get("X-Cache"), body
}

// TestReadyzOpenFailure covers the background-open failure surface: the
// server reports failing with the open error in the /readyz body and on
// /v1 503s, keeps /healthz at 200 (the process is fine), and a later
// successful SetEngine clears the failure.
func TestReadyzOpenFailure(t *testing.T) {
	srv := New(quietConfig(nil))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// No engine yet: failing, still loading.
	resp, m := get(t, ts, "/readyz")
	wantStatus(t, resp, m, http.StatusServiceUnavailable)
	if m["status"] != "failing" {
		t.Fatalf("readyz before load = %v, want failing", m["status"])
	}

	srv.SetOpenError(errors.New("corpus file is unreadable"))
	resp, m = get(t, ts, "/readyz")
	wantStatus(t, resp, m, http.StatusServiceUnavailable)
	if m["status"] != "failing" || !strings.Contains(m["reason"].(string), "corpus file is unreadable") {
		t.Fatalf("readyz after open failure = %v, want failing with the open error", m)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("failing readyz missing Retry-After")
	}
	// Queries surface the same error; liveness is unaffected.
	resp, m = get(t, ts, "/v1/timeseries?keyword=somalia")
	wantStatus(t, resp, m, http.StatusServiceUnavailable)
	if !strings.Contains(m["error"].(string), "corpus file is unreadable") {
		t.Fatalf("query 503 body %v does not surface the open error", m)
	}
	resp, m = get(t, ts, "/healthz")
	wantStatus(t, resp, m, http.StatusOK)

	// A retried load that succeeds clears the failure.
	eng, err := blogclusters.Open(context.Background(),
		blogclusters.FromGenerator(blogclusters.NewsWeekCorpus(2007, 60)))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv.SetEngine(eng)
	resp, m = get(t, ts, "/readyz")
	wantStatus(t, resp, m, http.StatusOK)
	if m["status"] != "ok" {
		t.Fatalf("readyz after recovery = %v, want ok", m["status"])
	}
	st := srv.Stats()
	if st.Health != "ok" || st.HealthReason != "" {
		t.Fatalf("Stats health = %q/%q, want ok with no reason", st.Health, st.HealthReason)
	}
}
