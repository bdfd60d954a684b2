package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	blogclusters "repro"
	"repro/internal/corpus"
	"repro/internal/server"
)

// The serving workloads run cmd/blogserved as a child process and load
// it from closed-loop callers, one keep-alive connection and one
// goroutine each (serve_churn has one caller, serve_hot four). Their
// corpora are frozen like the other workloads' data; --seed draws the
// URLs and the order they are asked in.
const serveCorpusSeed = 2007

// serveCorpus is the NewsWeek corpus stretched to any number of days:
// the week's events recur every seven days, so stories persist, drift
// and return across the whole span, and the background vocabulary is
// the generator's 4000 words.
func serveCorpus(intervals, posts int) (*corpus.Collection, error) {
	week := blogclusters.NewsWeekCorpus(serveCorpusSeed, posts)
	cfg := week
	cfg.NumIntervals = intervals
	cfg.Events = nil
	for _, ev := range week.Events {
		out := corpus.Event{Name: ev.Name}
		for _, ph := range ev.Phases {
			p := ph
			p.Intervals = nil
			for shift := 0; shift < intervals; shift += 7 {
				for _, iv := range ph.Intervals {
					if iv+shift < intervals {
						p.Intervals = append(p.Intervals, iv+shift)
					}
				}
			}
			out.Phases = append(out.Phases, p)
		}
		cfg.Events = append(cfg.Events, out)
	}
	return blogclusters.GenerateCorpus(cfg)
}

// queryable reports whether the analyzer maps the word to itself, i.e.
// whether it can be asked for as it is stored (the analyzer drops very
// short tokens and stems the rest).
func queryable(w string) bool {
	kws := blogclusters.NewAnalyzer().Keywords(w)
	return len(kws) == 1 && kws[0] == w
}

// eventKeywords are the story keywords of the generated corpus that a
// query can name.
func eventKeywords() []string {
	var out []string
	seen := map[string]bool{}
	for _, ev := range blogclusters.NewsWeekCorpus(0, 1).Events {
		for _, ph := range ev.Phases {
			for _, k := range ph.Keywords {
				if !seen[k] && queryable(k) {
					seen[k] = true
					out = append(out, k)
				}
			}
		}
	}
	return out
}

func bgWord(rank int) string { return fmt.Sprintf("bg%05d", rank) }

// writeCorpus writes the first n intervals as the JSONL file blogserved
// loads.
func writeCorpus(col *corpus.Collection, n int, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	part := &corpus.Collection{Intervals: col.Intervals[:n]}
	if err := part.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pushBody renders one interval as a POST /v1/push body.
func pushBody(iv corpus.Interval) ([]byte, error) {
	type doc struct {
		ID       int64    `json:"id"`
		Keywords []string `json:"keywords"`
	}
	req := struct {
		Interval int    `json:"interval"`
		Label    string `json:"label"`
		Docs     []doc  `json:"docs"`
	}{Interval: iv.Index, Label: iv.Label}
	for _, d := range iv.Docs {
		req.Docs = append(req.Docs, doc{d.ID, d.Keywords})
	}
	return json.Marshal(req)
}

// query is one GET of the serving workloads, in the three forms the
// traced run issues it: a URL path, and the Engine call behind it.
type query struct {
	route    string // timeseries, bursts, search, refine, correlations or stable-clusters
	keyword  string
	interval int
	spec     blogclusters.QuerySpec
	path     string
}

var keywordRoutes = []string{"timeseries", "bursts", "search", "refine", "correlations"}

func keywordQuery(route, keyword string, interval int) query {
	q := query{route: route, keyword: keyword, interval: interval}
	kw := url.QueryEscape(keyword)
	switch route {
	case "timeseries", "bursts":
		q.path = "/v1/" + route + "?keyword=" + kw
	case "search":
		q.path = "/v1/search?terms=" + kw + "&interval=" + strconv.Itoa(interval)
	case "refine":
		q.path = "/v1/refine?query=" + kw + "&interval=" + strconv.Itoa(interval)
	case "correlations":
		q.path = "/v1/correlations?keyword=" + kw + "&interval=" + strconv.Itoa(interval) + "&n=5"
	}
	return q
}

func stableQuery(spec blogclusters.QuerySpec) query {
	v := url.Values{}
	if spec.Variant != "" {
		v.Set("variant", spec.Variant)
	}
	if spec.Algorithm != "" {
		v.Set("algorithm", spec.Algorithm)
	}
	v.Set("k", strconv.Itoa(spec.K))
	if spec.Variant == "normalized" {
		v.Set("lmin", strconv.Itoa(spec.LMin))
	} else {
		v.Set("l", strconv.Itoa(spec.L))
	}
	if spec.Mode != "" {
		v.Set("mode", spec.Mode)
	}
	return query{route: "stable-clusters", spec: spec, path: "/v1/stable-clusters?" + v.Encode()}
}

// direct issues the query as the Engine call its handler makes.
func (q query) direct(ctx context.Context, e *blogclusters.Engine) error {
	var err error
	switch q.route {
	case "timeseries":
		if _, err = e.TimeSeries(ctx, q.keyword); err == nil {
			_, err = e.DocTotals(ctx)
		}
	case "bursts":
		_, err = e.Bursts(ctx, q.keyword)
	case "search":
		_, err = e.Search(ctx, []string{q.keyword}, q.interval)
	case "refine":
		_, err = e.Refine(ctx, q.keyword, q.interval)
	case "correlations":
		_, err = e.Correlations(ctx, q.keyword, q.interval, 5)
	case "stable-clusters":
		_, err = e.Solve(ctx, q.spec)
	}
	return err
}

// envelopeGeneration reads the "generation" every /v1 JSON envelope
// starts with, after checking that the whole body decodes.
func envelopeGeneration(body []byte) (int64, error) {
	var env struct {
		Generation *int64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return 0, err
	}
	if env.Generation == nil {
		return 0, fmt.Errorf("no generation in %.60q", body)
	}
	return *env.Generation, nil
}

// intervalScoped reports whether a route answers from one interval
// only. Intervals never change once pushed, so the server keeps those
// answers cached across pushes and a later hit carries the generation
// it was rendered at; the other routes are keyed by generation.
func intervalScoped(route string) bool {
	return route == "search" || route == "refine" || route == "correlations"
}

// serveEnv is what both serving workloads set up once per run: the
// server binary and the corpus.
type serveEnv struct {
	bin    string
	buildS float64
	col    *corpus.Collection
	input  string // JSONL of the intervals the server starts with
}

func newServeEnv(rc *runCtx, intervals, base, posts int) (*serveEnv, error) {
	binDir := filepath.Join(rc.root, ".bench_build", "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	bin, took, err := buildServer(rc.root, binDir)
	if err != nil {
		return nil, err
	}
	col, err := serveCorpus(intervals, posts)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{bin: bin, buildS: took.Seconds(), col: col, input: filepath.Join(rc.tmp, "corpus.jsonl")}
	return env, writeCorpus(col, base, env.input)
}

// session is one running blogserved and the load generator's
// connections to it.
type session struct {
	c  *child
	ks []*conn
}

// openSession starts blogserved with args and dials n connections.
func openSession(rc *runCtx, env *serveEnv, n int, args ...string) (*session, error) {
	c, err := startServer(env.bin, rc.tmp, append([]string{"-input", env.input}, args...)...)
	if err != nil {
		return nil, err
	}
	s := &session{c: c}
	for i := 0; i < n; i++ {
		k, err := dial(c.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.ks = append(s.ks, k)
	}
	return s, nil
}

func (s *session) close() {
	for _, k := range s.ks {
		k.close()
	}
	s.c.stop()
}

// twin is the traced run's in-process copy of the served session: the
// same corpus and options behind internal/server's handler, so an
// operation can be timed at the socket, at the handler and at the
// Engine, and the differences attributed.
type twin struct {
	eng    *blogclusters.Engine
	cached http.Handler // response cache on, as served
	direct http.Handler // response cache off: every request reaches the Engine
	events map[string][]float64
}

func newTwin(ctx context.Context, input string, cacheBytes int, opts ...blogclusters.Option) (*twin, error) {
	t := &twin{events: map[string][]float64{}}
	opts = append(opts, blogclusters.WithProgress(func(ev blogclusters.StageEvent) {
		if ev.Done && ev.Err == nil {
			t.events[ev.Stage] = append(t.events[ev.Stage], ms(ev.Duration))
		}
	}))
	eng, err := blogclusters.Open(ctx, blogclusters.FromJSONLFile(input), opts...)
	if err != nil {
		return nil, err
	}
	t.eng = eng
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, h := range []struct {
		dst   *http.Handler
		bytes int
	}{{&t.cached, cacheBytes}, {&t.direct, -1}} {
		srv := server.New(server.Config{CacheBytes: h.bytes, Logger: quiet})
		srv.SetEngine(eng)
		*h.dst = srv.Handler()
	}
	return t, nil
}

// nullWriter is the cheapest ResponseWriter: the twin's handler timings
// and allocation counts should be the handler's, not a recorder's.
type nullWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(s int)   { w.status = s }
func (w *nullWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

func (t *twin) serve(h http.Handler, path string) (status int, err error) {
	req, err := http.NewRequest("GET", path, nil)
	if err != nil {
		return 0, err
	}
	w := &nullWriter{h: http.Header{}, status: 200}
	h.ServeHTTP(w, req)
	return w.status, nil
}

func (t *twin) push(ctx context.Context, body []byte) error {
	req, err := http.NewRequest("POST", "/v1/push", bytes.NewReader(body))
	if err != nil {
		return err
	}
	w := &nullWriter{h: http.Header{}, status: 200}
	t.cached.ServeHTTP(w, req)
	if w.status != 200 {
		return fmt.Errorf("twin push: status %d", w.status)
	}
	return nil
}

// zipf draws ranks 0..n-1 with weight 1/(rank+1)^s.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	total := 0.0
	for i := range z.cum {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func pathsDigest(qs []query) string {
	var sb strings.Builder
	for _, q := range qs {
		sb.WriteString(q.path)
		sb.WriteByte('\n')
	}
	return sb.String()
}
