package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	blogclusters "repro"
)

// outcomeSession is a session whose TimeSeries panics with v when v is
// set; every other call goes to the wrapped Engine.
type outcomeSession struct {
	Session
	v any
}

func (o outcomeSession) TimeSeries(ctx context.Context, keyword string) ([]int64, error) {
	if o.v != nil {
		panic(o.v)
	}
	return o.Session.TimeSeries(ctx, keyword)
}

// breakerView is what the outcome contract pins of a route's breaker.
type breakerView struct {
	state    string // "" when the route has no breaker
	n, fails int
	trips    int64
}

func viewBreaker(s *Server, route string) breakerView {
	s.breakerMu.Lock()
	b := s.breakers[route]
	s.breakerMu.Unlock()
	if b == nil {
		return breakerView{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerView{b.state.String(), b.n, b.fails, b.trips}
}

// TestRequestOutcomeContract pins, for one /v1 route driven through a
// window of each outcome, what every observer of a request records: the
// route's status counter and latency count, the route breaker, the
// server's request, panic and shed counters, the X-Request-ID echo and
// the access-log record. A panic is a 500 everywhere and a breaker
// failure; http.ErrAbortHandler counts against its route and the
// breaker, then goes up to net/http with no log record; a breaker shed
// is not fed back to the breaker, while an admission 429 counts as a
// success; an unmatched path is only logged.
func TestRequestOutcomeContract(t *testing.T) {
	eng, err := blogclusters.Open(t.Context(), blogclusters.FromGenerator(blogclusters.NewsWeekCorpus(2007, 60)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })

	const n = breakerMinSamples
	query := func(i int) string { return fmt.Sprintf("/v1/timeseries?keyword=word%d", i) }
	cases := []struct {
		name   string
		path   func(i int) string
		panic  any
		setup  func(s *Server)
		status int // written and logged; 0 when the handler aborts
		metric string
		// Server counters after the window.
		requests, panics, rejected int64
		shed                       string // http_requests_shed_total reason, if any
		breaker                    breakerView
	}{
		{name: "ok", path: query, status: 200, metric: "200", requests: n,
			breaker: breakerView{"closed", n, 0, 0}},
		{name: "bad-request", path: func(int) string { return "/v1/timeseries" }, status: 400, metric: "400", requests: n,
			breaker: breakerView{"closed", n, 0, 0}},
		{name: "admission-full", path: query, status: 429, metric: "429", requests: n, rejected: n, shed: "admission",
			setup:   func(s *Server) { s.sem <- struct{}{} },
			breaker: breakerView{"closed", n, 0, 0}},
		{name: "breaker-open", path: query, status: 503, metric: "503", requests: n, rejected: n, shed: "breaker",
			setup: func(s *Server) {
				b := s.breakerFor("timeseries")
				for range breakerMinSamples {
					b.record(true)
				}
			},
			breaker: breakerView{"open", 0, 0, 1}},
		{name: "panic", path: query, panic: "kaboom", status: 500, metric: "500", requests: n, panics: n,
			breaker: breakerView{"open", 0, 0, 1}},
		{name: "abort", path: query, panic: http.ErrAbortHandler, metric: "500",
			breaker: breakerView{"open", 0, 0, 1}},
		{name: "unmatched", path: func(int) string { return "/v1/no-such-route" }, status: 404, requests: n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var logs bytes.Buffer
			srv := New(Config{
				MaxInflight:     1,
				BreakerCooldown: time.Hour,
				Logger:          slog.New(slog.NewJSONHandler(&logs, nil)),
			})
			srv.SetEngine(outcomeSession{Session: eng, v: tc.panic})
			if tc.setup != nil {
				tc.setup(srv)
			}
			h := srv.Handler()
			for i := range n {
				id := fmt.Sprintf("%s-%d", tc.name, i)
				req := httptest.NewRequest("GET", tc.path(i), nil)
				req.Header.Set("X-Request-ID", id)
				rec := httptest.NewRecorder()
				var raised any
				func() {
					defer func() { raised = recover() }()
					h.ServeHTTP(rec, req)
				}()
				if tc.status == 0 {
					if raised != http.ErrAbortHandler {
						t.Fatalf("request %d raised %v, want http.ErrAbortHandler", i, raised)
					}
				} else {
					if raised != nil {
						t.Fatalf("request %d raised %v", i, raised)
					}
					if rec.Code != tc.status {
						t.Fatalf("request %d: status %d, want %d (body %s)", i, rec.Code, tc.status, rec.Body)
					}
				}
				if got := rec.Header().Get("X-Request-ID"); got != id {
					t.Fatalf("request %d: X-Request-ID %q, want %q", i, got, id)
				}
			}

			srv.syncMetrics()
			var text strings.Builder
			if _, err := srv.m.reg.WriteTo(&text); err != nil {
				t.Fatal(err)
			}
			route := map[string]string{"route": "timeseries"}
			if tc.metric == "" {
				for _, name := range []string{"http_requests_total", "http_request_duration_seconds_count"} {
					if v, ok := lookupMetric(text.String(), name, nil); ok {
						t.Errorf("%s = %v for an unmatched path, want no series", name, v)
					}
				}
			} else {
				if got := metricValue(t, text.String(), "http_requests_total", map[string]string{"route": "timeseries", "status": tc.metric}); got != n {
					t.Errorf("http_requests_total{status=%s} = %v, want %d", tc.metric, got, n)
				}
				if got := metricValue(t, text.String(), "http_request_duration_seconds_count", route); got != n {
					t.Errorf("duration _count = %v, want %d", got, n)
				}
			}
			for _, reason := range []string{"admission", "breaker"} {
				want := 0.0
				if reason == tc.shed {
					want = n
				}
				if got, _ := lookupMetric(text.String(), "http_requests_shed_total", map[string]string{"reason": reason}); got != want {
					t.Errorf("http_requests_shed_total{reason=%s} = %v, want %v", reason, got, want)
				}
			}

			st := srv.Stats()
			if st.Requests != tc.requests || st.Panics != tc.panics || st.Rejected != tc.rejected {
				t.Errorf("Stats requests/panics/rejected = %d/%d/%d, want %d/%d/%d",
					st.Requests, st.Panics, st.Rejected, tc.requests, tc.panics, tc.rejected)
			}
			if got := viewBreaker(srv, "timeseries"); got != tc.breaker {
				t.Errorf("breaker = %+v, want %+v", got, tc.breaker)
			}

			var records, panicRecords int
			for _, line := range bytes.Split(bytes.TrimSpace(logs.Bytes()), []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				var rec map[string]any
				if err := json.Unmarshal(line, &rec); err != nil {
					t.Fatalf("log line is not JSON: %s", line)
				}
				switch rec["msg"] {
				case "request":
					if rec["status"] != float64(tc.status) {
						t.Errorf("access log status %v, want %d", rec["status"], tc.status)
					}
					if id, _ := rec["request_id"].(string); !strings.HasPrefix(id, tc.name+"-") {
						t.Errorf("access log request_id %q, want the echoed id", id)
					}
					records++
				case "panic in handler":
					if s, _ := rec["stack"].(string); s == "" {
						t.Error("panic record has no stack")
					}
					panicRecords++
				}
			}
			if records != int(tc.requests) || panicRecords != int(tc.panics) {
				t.Errorf("access log: %d request records and %d panic records, want %d and %d",
					records, panicRecords, tc.requests, tc.panics)
			}
		})
	}
}

// gatedOutcomeSession is an outcomeSession whose TimeSeries, for the
// keyword gated, first counts itself in entered and waits for gate.
type gatedOutcomeSession struct {
	outcomeSession
	gated   string
	entered chan struct{}
	gate    chan struct{}
}

func (g gatedOutcomeSession) TimeSeries(ctx context.Context, keyword string) ([]int64, error) {
	if keyword == g.gated {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.outcomeSession.TimeSeries(ctx, keyword)
}

// TestCacheFillPanicFreesKey holds the response cache to a fill that
// panics: the panic must free the key's in-flight slot, or every later
// GET of the URL waits on it until its deadline and answers 504. Two
// GETs of one URL must each answer 500 (or, for http.ErrAbortHandler,
// raise it), and so must a waiter that joined a fill that then panics,
// all well inside the 300 ms deadline.
func TestCacheFillPanicFreesKey(t *testing.T) {
	eng, err := blogclusters.Open(t.Context(), blogclusters.FromGenerator(blogclusters.NewsWeekCorpus(2007, 60)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	const timeout = 300 * time.Millisecond
	for _, v := range []any{"kaboom", http.ErrAbortHandler} {
		t.Run(fmt.Sprint(v), func(t *testing.T) {
			sess := gatedOutcomeSession{
				outcomeSession: outcomeSession{Session: eng, v: v},
				gated:          "slow",
				entered:        make(chan struct{}, 2),
				gate:           make(chan struct{}),
			}
			srv := New(Config{RequestTimeout: timeout, Logger: slog.New(slog.DiscardHandler)})
			srv.SetEngine(sess)
			h := srv.Handler()
			// get serves one GET and reports its status, 500 for a
			// raised http.ErrAbortHandler, and how long it took.
			get := func(keyword string) (int, time.Duration) {
				start := time.Now()
				rec := httptest.NewRecorder()
				func() {
					defer func() {
						if raised := recover(); raised != nil {
							if raised != http.ErrAbortHandler {
								panic(raised)
							}
							rec.Code = http.StatusInternalServerError
						}
					}()
					h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/timeseries?keyword="+keyword, nil))
				}()
				return rec.Code, time.Since(start)
			}
			check := func(who string, status int, took time.Duration) {
				t.Helper()
				if status != http.StatusInternalServerError || took > timeout/2 {
					t.Errorf("%s: status %d after %v, want 500 well inside the %v deadline", who, status, took, timeout)
				}
			}
			for i := range 2 {
				status, took := get("somalia")
				check(fmt.Sprintf("GET %d", i+1), status, took)
			}

			type reply struct {
				status int
				took   time.Duration
			}
			filler, waiter := make(chan reply, 1), make(chan reply, 1)
			go func() { s, d := get("slow"); filler <- reply{s, d} }()
			<-sess.entered
			go func() { s, d := get("slow"); waiter <- reply{s, d} }()
			for !waitingOnFill() {
				time.Sleep(time.Millisecond)
			}
			close(sess.gate)
			f, w := <-filler, <-waiter
			check("the panicking filler", f.status, f.took)
			check("its waiter", w.status, w.took)
			if n := len(sess.entered); n != 0 {
				t.Errorf("the waiter ran the fill again (%d more entries); want it to share the panic", n)
			}
		})
	}
}

// waitingOnFill reports whether a goroutine waits in the response
// cache's rendezvous: blocked in a select whose first frame outside the
// runtime is responseCache.Do.
func waitingOnFill() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(g, "\n")
		if !strings.Contains(lines[0], "[select") {
			continue
		}
		for _, l := range lines[1:] {
			if !strings.HasPrefix(l, "\t") && !strings.HasPrefix(l, "runtime.") {
				if strings.HasPrefix(l, "repro/internal/server.(*responseCache).Do(") {
					return true
				}
				break
			}
		}
	}
	return false
}
