package server

import (
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"

	blogclusters "repro"
	"repro/internal/raceflag"
)

// nopWriter is the cheapest ResponseWriter, so the counts below are the
// handler's own.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) WriteHeader(int)             {}
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestHitAllocationCeiling counts the allocations of a response-cache
// hit through Handler(): a hit answers from a rendered entry, so it
// should pay for the request wrapper and a minted request id, not for
// a parsed query map, a key string, a deadline context, boxed log
// arguments or an analyzer. The wrapper, the id and the access-log
// record's attributes beyond slog's five inline ones make 3; each
// ceiling is about twice the count its route recorded, so a regression
// of the hit path fails `go test`.
func TestHitAllocationCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	eng, err := blogclusters.Open(t.Context(), blogclusters.FromGenerator(blogclusters.NewsWeekCorpus(2007, 60)))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := New(quietConfig(nil))
	srv.SetEngine(eng)
	h := srv.Handler()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := &nopWriter{h: http.Header{}}
	for _, tc := range []struct {
		path    string
		ceiling float64
	}{
		// Recorded 4: "Somalia" is lower-cased into a fresh string.
		{"/v1/timeseries?keyword=Somalia", 8},
		// Recorded 6: the split list and the raw and analyzed terms.
		{"/v1/search?terms=somalia,mogadishu&interval=3", 12},
		{"/v1/refine?query=somalia&interval=0", 6},
		{"/v1/correlations?keyword=somalia&interval=0&n=3", 6},
		{"/v1/stable-clusters?k=3&l=2&algorithm=bfs", 6},
	} {
		r := httptest.NewRequest(http.MethodGet, tc.path, nil)
		serve := func() {
			clear(w.h)
			h.ServeHTTP(w, r)
		}
		serve() // the fill
		if got := w.h.Get("X-Cache"); got != string(cacheMiss) {
			t.Fatalf("%s: first request X-Cache %q, want miss", tc.path, got)
		}
		n := testing.AllocsPerRun(100, serve)
		if got := w.h.Get("X-Cache"); got != string(cacheHit) {
			t.Fatalf("%s: X-Cache %q, want hit", tc.path, got)
		}
		t.Logf("%s: %.1f allocations per hit", tc.path, n)
		if n > tc.ceiling {
			t.Errorf("%s: %.1f allocations per hit, ceiling %.0f", tc.path, n, tc.ceiling)
		}
	}
}
