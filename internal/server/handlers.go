package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	blogclusters "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
)

// --- JSON plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		// Response structs are plain data; a marshal failure is a bug.
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// renderEntry marshals v into a replayable cache entry.
func renderEntry(v any) (*cacheEntry, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return &cacheEntry{status: http.StatusOK, contentType: "application/json", body: buf.Bytes()}, nil
}

// writeEntry replays a (possibly cached) entry, tagging how the cache
// treated it.
func writeEntry(w http.ResponseWriter, e *cacheEntry, state cacheState) {
	w.Header().Set("Content-Type", e.contentType)
	w.Header().Set("X-Cache", string(state))
	w.WriteHeader(e.status)
	w.Write(e.body)
}

// statusSentinels is the API's one status↔sentinel table, in match
// order: errStatus maps an error to the status of the first sentinel it
// wraps, and Client maps a status back to every sentinel listed with it.
// Validation failures (ErrInvalidQuery) are the client's fault,
// session-state errors are availability; an error no row matches is a
// server bug (500).
var statusSentinels = []struct {
	status   int
	sentinel error
}{
	{http.StatusBadRequest, blogclusters.ErrInvalidQuery},
	// The pushed interval is not the next one: a sequencing conflict with
	// the session's current state, not a malformed request.
	{http.StatusConflict, blogclusters.ErrOutOfOrderInterval},
	{http.StatusUnprocessableEntity, blogclusters.ErrMalformedInterval},
	{http.StatusUnprocessableEntity, blogclusters.ErrNoCorpus},
	// A shard behind the coordinator failed or was unreachable; the
	// merge fails closed rather than serving a truncated answer.
	{http.StatusServiceUnavailable, shard.ErrUnavailable},
	{http.StatusServiceUnavailable, blogclusters.ErrEngineClosed},
	{http.StatusGatewayTimeout, context.DeadlineExceeded},
	// The client went away; the status is for the access log only.
	{statusClientClosedRequest, context.Canceled},
}

// errStatus maps an Engine/query error onto an HTTP status via its
// sentinel (statusSentinels).
func errStatus(err error) int {
	for _, row := range statusSentinels {
		if errors.Is(err, row.sentinel) {
			return row.status
		}
	}
	return http.StatusInternalServerError
}

// statusClientClosedRequest is nginx's conventional 499 for
// client-canceled requests; net/http has no name for it.
const statusClientClosedRequest = 499

// serve runs one cacheable query: resolve the session, consult the
// response cache under the normalized key, fill via the Engine on a
// miss, replay the rendered bytes. result builds the response body
// (receiving the generation the request is keyed against, for the
// response envelope); it runs at most once across concurrent identical
// requests.
//
// genKeyed marks queries whose answers depend on the whole interval
// sequence (stable clusters, timeseries, bursts): their cache keys are
// prefixed with the Engine generation, so a Push invalidates exactly
// those entries — post-push requests key a fresh namespace while
// stale-generation entries age out of the LRU. Interval-scoped queries
// (search, refine, correlations, describe) answer from intervals that
// are immutable once pushed, so their entries survive a Push and the
// hit ratio for untouched queries is preserved.
//
// Either way a fill that straddles a Push is marked noStore: the
// Engine snapshot it read is ambiguous, so the result is served to the
// waiting clients but never cached.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, key string, genKeyed bool, result func(ctx context.Context, sess Session, gen int64) (any, error)) {
	sess := s.Session()
	if sess == nil {
		w.Header().Set("Retry-After", s.retryHint)
		if p := s.openErr.Load(); p != nil {
			writeError(w, http.StatusServiceUnavailable, "corpus failed to load: "+p.err.Error())
			return
		}
		writeError(w, http.StatusServiceUnavailable, "corpus is still loading; retry shortly")
		return
	}
	gen := sess.Generation()
	if r.URL.Query().Get("trace") == "1" {
		s.serveTraced(w, r, sess, gen, result)
		return
	}
	if genKeyed {
		key = "g" + strconv.FormatInt(gen, 10) + "|" + key
	}
	entry, state, err := s.cache.Do(r.Context(), key, func(ctx context.Context) (*cacheEntry, error) {
		v, err := result(ctx, sess, gen)
		if err != nil {
			return nil, err
		}
		e, err := renderEntry(v)
		if err == nil && sess.Generation() != gen {
			e.noStore = true
		}
		return e, err
	})
	if err != nil {
		writeError(w, errStatus(err), err.Error())
		return
	}
	writeEntry(w, entry, state)
}

// serveTraced handles ?trace=1: the request bypasses the response
// cache (a replayed body cannot carry this request's spans — the point
// is to watch the work happen), runs the query with a span recorder in
// its context, and splices the recorded spans into the JSON envelope
// as a trailing "trace" array. Engine stage builds, solver runs and
// shard fan-out hops all record into the same recorder; a memo-hot
// request honestly shows few or no engine spans, because the work was
// already done by an earlier request.
func (s *Server) serveTraced(w http.ResponseWriter, r *http.Request, sess Session, gen int64, result func(ctx context.Context, sess Session, gen int64) (any, error)) {
	ctx, rec := obs.WithRecorder(r.Context())
	start := time.Now()
	v, err := result(ctx, sess, gen)
	rec.Record("request", start, err)
	s.cache.noteBypass()
	if err != nil {
		writeError(w, errStatus(err), err.Error())
		return
	}
	e, rerr := renderEntry(v)
	if rerr != nil {
		writeError(w, http.StatusInternalServerError, "encode response")
		return
	}
	e.body = spliceTrace(e.body, rec.Spans())
	writeEntry(w, e, cacheBypass)
}

// spliceTrace injects `"trace":[...]` as the last member of a JSON
// object body (every /v1 envelope is an object, so splicing before its
// closing brace is safe without re-decoding).
func spliceTrace(body []byte, spans []obs.Span) []byte {
	if spans == nil {
		spans = []obs.Span{}
	}
	tr, err := json.Marshal(spans)
	if err != nil {
		return body
	}
	i := bytes.LastIndexByte(body, '}')
	if i < 0 {
		return body
	}
	out := make([]byte, 0, len(body)+len(tr)+16)
	out = append(out, body[:i]...)
	out = append(out, `,"trace":`...)
	out = append(out, tr...)
	out = append(out, body[i:]...)
	return out
}

// --- param parsing ---

// params wraps url.Values with typed accessors that accumulate the
// first error, and records every (name, value) pair it resolved —
// including defaults — so the cache key is the normalized parameter
// set, not the raw query string: ?k=5 and ?? (absent, default 5) and
// ?k=05 all share one cache entry.
type params struct {
	q        url.Values
	resolved [][2]string
	err      error
}

func newParams(r *http.Request) *params { return &params{q: r.URL.Query()} }

func (p *params) fail(name, val, want string) {
	if p.err == nil {
		p.err = fmt.Errorf("parameter %q: %q is not %s", name, val, want)
	}
}

func (p *params) record(name, val string) {
	p.resolved = append(p.resolved, [2]string{name, val})
}

// str returns the raw parameter or def when absent.
func (p *params) str(name, def string) string {
	v := p.q.Get(name)
	if v == "" {
		v = def
	}
	p.record(name, v)
	return v
}

// requiredRaw fails when the parameter is missing or empty, without
// recording it in the cache key: keyword- and list-shaped parameters
// key the cache on a normalized form the handler records afterwards
// (the analyzed keyword, the re-rendered node list), so surface
// variants share one entry.
func (p *params) requiredRaw(name string) string {
	v := p.q.Get(name)
	if v == "" && p.err == nil {
		p.err = fmt.Errorf("parameter %q is required", name)
	}
	return v
}

func (p *params) intDef(name string, def int) int {
	raw := p.q.Get(name)
	if raw == "" {
		p.record(name, strconv.Itoa(def))
		return def
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		p.fail(name, raw, "an integer")
		return def
	}
	p.record(name, strconv.Itoa(n))
	return n
}

// intFloor is intDef with a floor: parsed values below floor clamp to
// it before being recorded, so requests that mean the same thing (any
// negative l = full paths) share one cache key.
func (p *params) intFloor(name string, def, floor int) int {
	raw := p.q.Get(name)
	n := def
	if raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			p.fail(name, raw, "an integer")
		} else {
			n = v
		}
	}
	if n < floor {
		n = floor
	}
	p.record(name, strconv.Itoa(n))
	return n
}

func (p *params) requiredInt(name string) int {
	raw := p.q.Get(name)
	if raw == "" {
		if p.err == nil {
			p.err = fmt.Errorf("parameter %q is required", name)
		}
		return 0
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		p.fail(name, raw, "an integer")
		return 0
	}
	p.record(name, strconv.Itoa(n))
	return n
}

// enum returns the parameter (or def) and fails unless it is one of
// allowed.
func (p *params) enum(name, def string, allowed ...string) string {
	v := p.str(name, def)
	for _, a := range allowed {
		if v == a {
			return v
		}
	}
	p.fail(name, v, "one of "+strings.Join(allowed, "|"))
	return def
}

// key builds the canonical cache key: route name plus the resolved
// (name, value) pairs in sorted order.
func (p *params) key(route string) string {
	pairs := make([]string, len(p.resolved))
	for i, kv := range p.resolved {
		pairs[i] = kv[0] + "=" + kv[1]
	}
	sort.Strings(pairs)
	return route + "?" + strings.Join(pairs, "&")
}

// analyzedKeyword normalizes a raw query term exactly like the Engine
// (and the corpus analyzer) does and records the analyzed form as the
// parameter's cache-key value, so surface variants — "Somalia",
// "somalia", "somalias" — share one cache entry, mirroring the
// paper's rule that queries are analyzed exactly like documents.
// Response bodies echo the analyzed form for the same reason: it is
// the term the Engine actually answered for.
func analyzedKeyword(p *params, name string, raw string) string {
	if raw == "" {
		return ""
	}
	kws := blogclusters.NewAnalyzer().Keywords(raw)
	if len(kws) == 0 {
		p.fail(name, raw, "an analyzable keyword")
		return ""
	}
	p.record(name, kws[0])
	return kws[0]
}

// --- response shapes ---
//
// Each route encodes one named type and Client decodes the same one, so
// the wire format is stated once. Slices that may be nil go through
// orEmpty: an empty answer renders [], never null.

// orEmpty returns s, or an empty slice when s is nil.
func orEmpty[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// solverStats is the slice of a solve's work counters the API serves.
type solverStats struct {
	NodeReads     int64 `json:"node_reads"`
	NodeWrites    int64 `json:"node_writes"`
	EdgeReads     int64 `json:"edge_reads"`
	HeapConsiders int64 `json:"heap_considers"`
	Pruned        int64 `json:"pruned"`
}

type stableClustersResponse struct {
	Generation int64               `json:"generation"`
	Variant    string              `json:"variant"`
	K          int                 `json:"k"`
	Paths      []blogclusters.Path `json:"paths"`
	Stats      solverStats         `json:"stats"`
}

type timeSeriesResponse struct {
	Generation int64   `json:"generation"`
	Keyword    string  `json:"keyword"`
	Counts     []int64 `json:"counts"`
	Totals     []int64 `json:"totals"`
}

type burstsResponse struct {
	Generation int64                       `json:"generation"`
	Keyword    string                      `json:"keyword"`
	Bursts     []blogclusters.KeywordBurst `json:"bursts"`
}

type searchResponse struct {
	Generation int64    `json:"generation"`
	Terms      []string `json:"terms"`
	Interval   int      `json:"interval"`
	Count      int      `json:"count"`
	IDs        []int64  `json:"ids"`
}

type refineResponse struct {
	Generation int64    `json:"generation"`
	Query      string   `json:"query"`
	Interval   int      `json:"interval"`
	Clustered  bool     `json:"clustered"`
	Keywords   []string `json:"keywords"`
}

type correlationsResponse struct {
	Generation   int64                      `json:"generation"`
	Keyword      string                     `json:"keyword"`
	Interval     int                        `json:"interval"`
	Correlations []blogclusters.Correlation `json:"correlations"`
}

type describeResponse struct {
	Generation  int64             `json:"generation"`
	Path        blogclusters.Path `json:"path"`
	Description string            `json:"description"`
}

type metaResponse struct {
	Generation int64   `json:"generation"`
	Intervals  int     `json:"intervals"`
	Totals     []int64 `json:"totals"`
}

type clusterSetsResponse struct {
	Generation int64                    `json:"generation"`
	From       int                      `json:"from"`
	To         int                      `json:"to"`
	Sets       [][]blogclusters.Cluster `json:"sets"`
}

type clusterCountsResponse struct {
	Generation int64 `json:"generation"`
	From       int   `json:"from"`
	To         int   `json:"to"`
	Counts     []int `json:"counts"`
}

type statsResponse struct {
	Generation int64                     `json:"generation"`
	Engine     *blogclusters.EngineStats `json:"engine"`
	Shards     []shard.ShardStat         `json:"shards,omitempty"`
	Server     Stats                     `json:"server"`
	Process    processStats              `json:"process"`
}

// --- /v1 handlers ---

// handleStableClusters answers Problems 1 and 2 and the diversity
// variant over the session's graph: ?variant=topk (default,
// with ?algorithm=auto|bfs|dfs|ta|brute, ?k, ?l), ?variant=normalized
// (?k, ?lmin) or ?variant=diverse (?k, ?l, ?mode). Algorithm "auto"
// (the default) is a spelling of the variant's default solver.
//
// The parameters fold into one blogclusters.QuerySpec: its
// normalization provides the response-cache key (cacheKey) — equivalent
// requests (?l=-1 vs ?l=-7, ?mode=endpoints vs
// ?mode=distinct-endpoints) share one entry — and its validation is the
// single source of client errors, the same checks the Engine itself
// would apply.
func (s *Server) handleStableClusters(w http.ResponseWriter, r *http.Request) {
	p := newParams(r)
	spec := blogclusters.QuerySpec{
		Variant:   p.str("variant", "topk"),
		Algorithm: p.str("algorithm", "auto"),
		K:         p.intDef("k", 5),
		L:         p.intFloor("l", -1, -1),
		LMin:      p.intDef("lmin", 2),
		Mode:      p.str("mode", "endpoints"),
	}
	if p.err != nil {
		writeError(w, http.StatusBadRequest, p.err.Error())
		return
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serve(w, r, "stable-clusters?"+cacheKey(spec), true, func(ctx context.Context, sess Session, gen int64) (any, error) {
		res, err := sess.Solve(ctx, spec)
		if err != nil {
			return nil, err
		}
		st := res.Stats
		return stableClustersResponse{gen, spec.Variant, spec.K, orEmpty(res.Paths), solverStats{
			NodeReads:     st.NodeReads,
			NodeWrites:    st.NodeWrites,
			EdgeReads:     st.EdgeReads,
			HeapConsiders: st.HeapConsiders,
			Pruned:        st.Pruned,
		}}, nil
	})
}

// cacheKey renders the normalized spec as a canonical string: the
// response-cache key of a stable-clusters request, naming only the
// fields its variant reads.
func cacheKey(spec blogclusters.QuerySpec) string {
	spec = spec.Normalize()
	var b strings.Builder
	b.WriteString("variant=")
	b.WriteString(spec.Variant)
	b.WriteString("&algorithm=")
	b.WriteString(spec.Algorithm)
	b.WriteString("&k=")
	b.WriteString(strconv.Itoa(spec.K))
	switch spec.Variant {
	case core.VariantNormalized:
		b.WriteString("&lmin=")
		b.WriteString(strconv.Itoa(spec.LMin))
	case core.VariantDiverse:
		b.WriteString("&l=")
		b.WriteString(strconv.Itoa(spec.L))
		b.WriteString("&mode=")
		b.WriteString(spec.Mode)
	default:
		b.WriteString("&l=")
		b.WriteString(strconv.Itoa(spec.L))
	}
	return b.String()
}

// handleTimeSeries serves A(w) per interval: ?keyword=.
func (s *Server) handleTimeSeries(w http.ResponseWriter, r *http.Request) {
	p := newParams(r)
	raw := p.requiredRaw("keyword")
	kw := analyzedKeyword(p, "keyword", raw)
	if p.err != nil {
		writeError(w, http.StatusBadRequest, p.err.Error())
		return
	}
	s.serve(w, r, p.key("timeseries"), true, func(ctx context.Context, sess Session, gen int64) (any, error) {
		counts, err := sess.TimeSeries(ctx, raw)
		if err != nil {
			return nil, err
		}
		totals, err := sess.DocTotals(ctx)
		if err != nil {
			return nil, err
		}
		// The two reads are not atomic against a push; trim both to the
		// shorter so the pairing stays positionally aligned.
		if len(totals) < len(counts) {
			counts = counts[:len(totals)]
		} else {
			totals = totals[:len(counts)]
		}
		return timeSeriesResponse{gen, kw, counts, totals}, nil
	})
}

// handleBursts serves the keyword's information bursts: ?keyword=.
func (s *Server) handleBursts(w http.ResponseWriter, r *http.Request) {
	p := newParams(r)
	raw := p.requiredRaw("keyword")
	kw := analyzedKeyword(p, "keyword", raw)
	if p.err != nil {
		writeError(w, http.StatusBadRequest, p.err.Error())
		return
	}
	s.serve(w, r, p.key("bursts"), true, func(ctx context.Context, sess Session, gen int64) (any, error) {
		bursts, err := sess.Bursts(ctx, raw)
		if err != nil {
			return nil, err
		}
		return burstsResponse{gen, kw, orEmpty(bursts)}, nil
	})
}

// handleSearch serves boolean search: ?terms=a,b,c&interval=i.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	p := newParams(r)
	rawTerms := p.requiredRaw("terms")
	interval := p.requiredInt("interval")
	var terms []string
	for _, t := range strings.Split(rawTerms, ",") {
		if t = strings.TrimSpace(t); t != "" {
			terms = append(terms, t)
		}
	}
	if len(terms) == 0 && p.err == nil {
		p.err = fmt.Errorf("parameter %q needs at least one term", "terms")
	}
	// Normalize the key on the sorted analyzed terms: boolean AND is
	// order-insensitive, so "a,b" and "b,a" share one entry.
	analyzer := blogclusters.NewAnalyzer()
	analyzed := make([]string, 0, len(terms))
	for _, t := range terms {
		kws := analyzer.Keywords(t)
		if len(kws) == 0 {
			p.fail("terms", t, "an analyzable keyword")
			break
		}
		analyzed = append(analyzed, kws[0])
	}
	sort.Strings(analyzed)
	p.record("terms", strings.Join(analyzed, ","))
	if p.err != nil {
		writeError(w, http.StatusBadRequest, p.err.Error())
		return
	}
	s.serve(w, r, p.key("search"), false, func(ctx context.Context, sess Session, gen int64) (any, error) {
		ids, err := sess.Search(ctx, terms, interval)
		if err != nil {
			return nil, err
		}
		return searchResponse{gen, analyzed, interval, len(ids), orEmpty(ids)}, nil
	})
}

// handleRefine serves query refinement: ?query=&interval=i.
func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	p := newParams(r)
	raw := p.requiredRaw("query")
	interval := p.requiredInt("interval")
	kw := analyzedKeyword(p, "query", raw)
	if p.err != nil {
		writeError(w, http.StatusBadRequest, p.err.Error())
		return
	}
	s.serve(w, r, p.key("refine"), false, func(ctx context.Context, sess Session, gen int64) (any, error) {
		kws, err := sess.Refine(ctx, raw, interval)
		if err != nil {
			return nil, err
		}
		return refineResponse{gen, kw, interval, len(kws) > 0, orEmpty(kws)}, nil
	})
}

// handleCorrelations serves the strongest ρ neighbors:
// ?keyword=&interval=i&n=5.
func (s *Server) handleCorrelations(w http.ResponseWriter, r *http.Request) {
	p := newParams(r)
	raw := p.requiredRaw("keyword")
	interval := p.requiredInt("interval")
	n := p.intDef("n", 5)
	kw := analyzedKeyword(p, "keyword", raw)
	if n <= 0 {
		p.fail("n", strconv.Itoa(n), "positive")
	}
	if p.err != nil {
		writeError(w, http.StatusBadRequest, p.err.Error())
		return
	}
	s.serve(w, r, p.key("correlations"), false, func(ctx context.Context, sess Session, gen int64) (any, error) {
		cs, err := sess.Correlations(ctx, raw, interval, n)
		if err != nil {
			return nil, err
		}
		return correlationsResponse{gen, kw, interval, orEmpty(cs)}, nil
	})
}

// handleDescribe renders a stable-cluster path with its keyword
// clusters: ?nodes=1,5,9&weight=&length= (weight/length default 0 and
// only affect the rendered header).
func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	p := newParams(r)
	rawNodes := p.requiredRaw("nodes")
	length := p.intDef("length", 0)
	weightStr := p.q.Get("weight")
	if weightStr == "" {
		weightStr = "0"
	}
	weight, werr := strconv.ParseFloat(weightStr, 64)
	if werr != nil || math.IsNaN(weight) || math.IsInf(weight, 0) {
		// NaN/Inf parse fine but cannot be JSON-encoded; reject here so
		// the client gets a 400, not an encode-time 500.
		p.fail("weight", weightStr, "a finite number")
	}
	var nodes []int64
	canonical := make([]string, 0, 4)
	if rawNodes != "" {
		for _, f := range strings.Split(rawNodes, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				p.fail("nodes", rawNodes, "a comma-separated list of node ids")
				break
			}
			nodes = append(nodes, id)
			canonical = append(canonical, strconv.FormatInt(id, 10))
		}
	}
	// Key on the re-rendered parsed values, not the raw strings, so
	// "1, 5" vs "1,5" and "0.0" vs "0" share one cache entry.
	p.record("nodes", strings.Join(canonical, ","))
	p.record("weight", strconv.FormatFloat(weight, 'g', -1, 64))
	if p.err != nil {
		writeError(w, http.StatusBadRequest, p.err.Error())
		return
	}
	s.serve(w, r, p.key("describe"), false, func(ctx context.Context, sess Session, gen int64) (any, error) {
		// Node-bounds validation lives in the session's Describe now
		// (out-of-range ids come back as ErrInvalidQuery → 400).
		path := blogclusters.Path{Nodes: nodes, Length: length, Weight: weight}
		desc, err := sess.Describe(ctx, path)
		if err != nil {
			return nil, err
		}
		return describeResponse{gen, path, desc}, nil
	})
}

// --- health and observability ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// handleReadyz reports the three-state health model: "failing" (no
// Engine — still loading, or the background open died; 503 so load
// balancers pull the instance), "degraded" (serving, but some route's
// circuit breaker is shedding; still 200 — a degraded server beats no
// server), or "ok". The reason field explains the non-ok states; an
// open failure surfaces its error here instead of killing the process.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state, reason := s.health()
	body := struct {
		Status string `json:"status"`
		Reason string `json:"reason,omitempty"`
	}{state, reason}
	if state == healthFailing {
		w.Header().Set("Retry-After", s.retryHint)
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// processStats is the process-level block of /debug/stats: the runtime
// identity an operator needs when correlating a scrape or a pprof
// profile with the binary that produced it.
type processStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	Goroutines    int     `json:"goroutines"`
	// Main and Revision come from the embedded build info when the
	// binary carries it (empty under plain `go test`).
	Main     string `json:"main,omitempty"`
	Revision string `json:"revision,omitempty"`
}

func (s *Server) processInfo() processStats {
	p := processStats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     runtime.Version(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Goroutines:    runtime.NumGoroutine(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		p.Main = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				p.Revision = kv.Value
			}
		}
	}
	return p
}

// handleDebugStats serves the session's EngineStats (stage builds,
// wall-clock, disk IOStats) next to the server counters and the
// process block. The session generation is surfaced at the top level
// so ingest monitors can poll it without digging into the engine block
// (it is 0 before SetEngine). A sharded session additionally exposes
// its per-shard rows under "shards" (the engine block is then the
// cross-shard aggregate).
func (s *Server) handleDebugStats(w http.ResponseWriter, r *http.Request) {
	var eng *blogclusters.EngineStats
	var gen int64
	var shards []shard.ShardStat
	if sess := s.Session(); sess != nil {
		st := sess.Stats()
		eng = &st
		gen = st.Generation
		if sc, ok := sess.(interface{ ShardStats() []shard.ShardStat }); ok {
			shards = sc.ShardStats()
		}
	}
	writeJSON(w, http.StatusOK, statsResponse{gen, eng, shards, s.Stats(), s.processInfo()})
}

// handleMeta serves the session's shape in one cheap read —
// {generation, intervals, totals} — the handshake a shard coordinator
// (or any client wanting the corpus width before querying) starts
// with.
func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	p := newParams(r)
	s.serve(w, r, p.key("meta"), true, func(ctx context.Context, sess Session, gen int64) (any, error) {
		totals, err := sess.DocTotals(ctx)
		if err != nil {
			return nil, err
		}
		return metaResponse{gen, len(totals), orEmpty(totals)}, nil
	})
}

// handleClusters serves the canonical per-interval cluster sets for
// global intervals [from, to): ?from=&to=[&counts=1]. With counts=1
// only the per-interval cluster counts are returned — the cheap lens a
// coordinator uses to build its node-id offset table without shipping
// every keyword set across the wire.
func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	p := newParams(r)
	from := p.requiredInt("from")
	to := p.requiredInt("to")
	countsOnly := p.str("counts", "") == "1"
	if p.err != nil {
		writeError(w, http.StatusBadRequest, p.err.Error())
		return
	}
	s.serve(w, r, p.key("clusters"), true, func(ctx context.Context, sess Session, gen int64) (any, error) {
		sets, err := sess.ClusterSets(ctx, from, to)
		if err != nil {
			return nil, err
		}
		if countsOnly {
			counts := make([]int, len(sets))
			for i, set := range sets {
				counts[i] = len(set)
			}
			return clusterCountsResponse{gen, from, to, counts}, nil
		}
		// sets may share the session's memo: render from a fresh outer
		// slice instead of writing the [] placeholders into it.
		out := make([][]blogclusters.Cluster, len(sets))
		for i, set := range sets {
			out[i] = orEmpty(set)
		}
		return clusterSetsResponse{gen, from, to, out}, nil
	})
}
