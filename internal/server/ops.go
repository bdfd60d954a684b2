package server

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	blogclusters "repro"
	"repro/internal/core"
)

// op is one GET /v1 query, declared once. Q is its parsed, normalized
// request. routes registers every entry of queries, serve answers it,
// and Client.fetch sends it to a remote server, so the route name, the
// parameter format and the cache key have one source each.
type op[Q any] struct {
	// name is the route /v1/<name>, and its metric, breaker and
	// access-log label.
	name string
	// genKeyed marks answers that depend on the whole interval
	// sequence: their cache keys carry the session generation, so a Push
	// moves them to a fresh namespace and the stale entries age out of
	// the LRU. The others answer from intervals, which are immutable
	// once pushed, so their entries survive a Push.
	genKeyed bool
	// parse validates and normalizes the query string. Its error is the
	// route's 400, and the only one the serving layer makes itself.
	parse func(params) (Q, error)
	// render writes q's parameters in one fixed order (see enc): the
	// query string a Client sends and, with the keywords analyzed, the
	// response-cache key.
	render func(e *enc, q Q)
	// answer computes the response body against the session, at the
	// generation the request is keyed against.
	answer func(ctx context.Context, sess Session, gen int64, q Q) (any, error)
}

// endpoint is a table entry with its request type erased: what routes
// needs to register it.
type endpoint interface {
	label() string
	serve(s *Server, w http.ResponseWriter, r *http.Request)
}

func (o *op[Q]) label() string { return o.name }

// queries is every GET /v1 route.
var queries = []endpoint{opStableClusters, opTimeSeries, opBursts, opSearch, opRefine, opCorrelations, opDescribe, opMeta, opClusters}

// renderKey renders q's response-cache key into e, over whatever e
// held: the route name and the normalized parameters, so ?k=5, ?k=05
// and no k at all (default 5) share one entry, behind the generation
// for genKeyed routes.
func (o *op[Q]) renderKey(e *enc, gen int64, q Q) {
	*e = enc{b: e.b[:0], key: true}
	if o.genKeyed {
		e.b = append(e.b, 'g')
		e.b = strconv.AppendInt(e.b, gen, 10)
		e.b = append(e.b, '|')
	}
	e.b = append(e.b, o.name...)
	e.b = append(e.b, '?')
	o.render(e, q)
}

// query renders q as the query string a Client sends.
func (o *op[Q]) query(q Q) string {
	var e enc
	o.render(&e, q)
	return string(e.b)
}

// keyEncs holds the encoders serve renders cache keys into, so a key
// costs no allocation until a miss stores it.
var keyEncs = sync.Pool{New: func() any { return &enc{b: make([]byte, 0, 128)} }}

// serve is the one GET path of every table entry: parse the query
// string once, in place, resolve the session, probe the response cache
// with the rendered key and replay a hit's bytes. Only a miss pays for
// the request's workContext and a fill through answer, which runs at
// most once across concurrent identical requests.
func (o *op[Q]) serve(s *Server, w http.ResponseWriter, r *http.Request) {
	p := params(r.URL.RawQuery)
	q, err := o.parse(p)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	box := s.sess.Load()
	if box == nil {
		w.Header().Set("Retry-After", s.retryHint)
		if p := s.openErr.Load(); p != nil {
			writeError(w, http.StatusServiceUnavailable, "corpus failed to load: "+p.err.Error())
			return
		}
		writeError(w, http.StatusServiceUnavailable, "corpus is still loading; retry shortly")
		return
	}
	gen := box.s.Generation()
	if p.Get("trace") == "1" {
		ctx, cancel := s.workContext(w, r)
		defer cancel()
		s.serveTraced(ctx, w, o.fill(s, box, gen, q))
		return
	}
	key := keyEncs.Get().(*enc)
	defer keyEncs.Put(key)
	o.renderKey(key, gen, q)
	if entry, ok := s.cache.Get(key.b); ok {
		writeEntry(w, entry, cacheHit)
		return
	}
	ctx, cancel := s.workContext(w, r)
	defer cancel()
	entry, state, err := s.cache.Do(ctx, key.b, o.fill(s, box, gen, q))
	if err != nil {
		writeError(w, errStatus(err), err.Error())
		return
	}
	writeEntry(w, entry, state)
}

// fill answers q against box's session at generation gen and renders
// the entry. A fill that straddles a Push or a SetEngine is marked
// noStore: the session snapshot it read is ambiguous, so the result is
// served to the waiting clients but never cached.
func (o *op[Q]) fill(s *Server, box *sessionBox, gen int64, q Q) func(context.Context) (*cacheEntry, error) {
	return func(ctx context.Context) (*cacheEntry, error) {
		body, err := o.answer(ctx, box.s, gen, q)
		if err != nil {
			return nil, err
		}
		e, err := renderEntry(body)
		if err == nil && (s.sess.Load() != box || box.s.Generation() != gen) {
			e.noStore = true
		}
		return e, err
	}
}

// enc renders a request's parameters as escaped name=value pairs joined
// by '&', in the order its op writes them. With key set it renders the
// cache key, where a keyword carries its analyzed form; otherwise the
// query string, which carries the raw term.
type enc struct {
	b   []byte
	key bool
	n   int // pairs written
}

func (e *enc) name(name string) {
	if e.n > 0 {
		e.b = append(e.b, '&')
	}
	e.n++
	e.b = append(e.b, name...)
	e.b = append(e.b, '=')
}

// str writes one value, or several as a comma-separated list.
func (e *enc) str(name string, vs ...string) {
	e.name(name)
	for i, v := range vs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, url.QueryEscape(v)...)
	}
}

func (e *enc) num(name string, v int) {
	e.name(name)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

// term writes a keyword parameter.
func (e *enc) term(name string, t term) {
	if e.key {
		e.str(name, t.kw)
	} else {
		e.str(name, t.raw)
	}
}

// term is a keyword parameter: raw is the term as sent, kw its analyzed
// form (filled by parse). The cache key and the response echo use kw,
// so surface variants — "Somalia", "somalia", "somalias" — share one
// entry, mirroring the paper's rule that queries are analyzed exactly
// like documents. The session and a Client's wire get raw: the analyzer
// is not idempotent (agreed → agre → agr), so forwarding kw would ask a
// shard about a different word.
type term struct{ raw, kw string }

// keywordAt is a keyword query scoped to one interval; n is the
// correlation count (correlations only).
type keywordAt struct {
	term
	interval, n int
}

// searchReq is a boolean search: terms as sent (trimmed, empties
// dropped), their analyzed forms sorted, since AND is order-insensitive
// and "a,b" and "b,a" share one entry.
type searchReq struct {
	terms, analyzed []string
	interval        int
}

// clustersReq asks for global intervals [from, to): their cluster sets,
// or only their sizes.
type clustersReq struct {
	from, to int
	counts   bool
}

// params is a raw query string, read in place: Get returns what
// url.ParseQuery(string(p)).Get returns, without building the map.
type params string

// Get returns the first value of name. Like url.ParseQuery it skips a
// pair that holds a ';' or whose key or value has a bad escape, and it
// unescapes keys and values; one without escapes is a substring of p.
func (p params) Get(name string) string {
	for rest := string(p); rest != ""; {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != name {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// args reads one query string for a parse and keeps its first failure;
// reads after a failure return zero values the parse then discards.
type args struct {
	v   params
	err error
}

func (a *args) fail(format string, x ...any) {
	if a.err == nil {
		a.err = fmt.Errorf(format, x...)
	}
}

// str returns a required parameter.
func (a *args) str(name string) string {
	s := a.v.Get(name)
	if s == "" {
		a.fail("parameter %q is required", name)
	}
	return s
}

// num returns a required integer parameter.
func (a *args) num(name string) int { return a.atoi(name, a.str(name)) }

// numOr returns an integer parameter, or def when it is absent.
func (a *args) numOr(name string, def int) int {
	if s := a.v.Get(name); s != "" {
		return a.atoi(name, s)
	}
	return def
}

func (a *args) atoi(name, s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		a.fail("parameter %q: %q is not an integer", name, s)
	}
	return n
}

// term returns a required keyword parameter.
func (a *args) term(name string) term {
	raw := a.str(name)
	return term{raw, a.analyze(name, raw)}
}

// analyzer is the corpus analyzer every parse shares; an Analyzer is
// read-only once made.
var analyzer = blogclusters.NewAnalyzer()

// analyze returns the first keyword the corpus analyzer finds in raw.
func (a *args) analyze(name, raw string) string {
	kw, ok := analyzer.First(raw)
	if !ok {
		a.fail("parameter %q: %q is not an analyzable keyword", name, raw)
	}
	return kw
}

// opStableClusters answers Problems 1 and 2 and the diversity variant
// over the session's graph: ?variant=topk (default, with
// ?algorithm=auto|bfs|dfs|ta|brute, ?k, ?l), ?variant=normalized (?k,
// ?lmin) or ?variant=diverse (?k, ?l, ?mode). The parameters fold into
// one QuerySpec whose normalization is the cache key — ?l=-1 and
// ?l=-7, ?mode=endpoints and ?mode=distinct-endpoints, ?algorithm=auto
// and the solver it resolves to are one entry — and whose validation
// is the Engine's own.
var opStableClusters = &op[blogclusters.QuerySpec]{
	name:     "stable-clusters",
	genKeyed: true,
	parse: func(v params) (blogclusters.QuerySpec, error) {
		a := args{v: v}
		spec := blogclusters.QuerySpec{
			Variant:   v.Get("variant"),
			Algorithm: v.Get("algorithm"),
			K:         a.numOr("k", 5),
			L:         a.numOr("l", blogclusters.FullPaths),
			LMin:      a.numOr("lmin", 2),
			Mode:      v.Get("mode"),
		}.Normalize()
		return spec, cmp.Or(a.err, spec.Validate())
	},
	// Only the fields the variant reads: Normalize zeroes the others.
	render: func(e *enc, q blogclusters.QuerySpec) {
		e.str("variant", q.Variant)
		e.str("algorithm", q.Algorithm)
		e.num("k", q.K)
		if q.Variant == core.VariantNormalized {
			e.num("lmin", q.LMin)
		} else {
			e.num("l", q.L)
		}
		if q.Mode != "" {
			e.str("mode", q.Mode)
		}
	},
	answer: func(ctx context.Context, sess Session, gen int64, spec blogclusters.QuerySpec) (any, error) {
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
	},
}

// opTimeSeries serves A(w) per interval: ?keyword=.
var opTimeSeries = &op[term]{
	name:     "timeseries",
	genKeyed: true,
	parse: func(v params) (term, error) {
		a := args{v: v}
		t := a.term("keyword")
		return t, a.err
	},
	render: func(e *enc, q term) { e.term("keyword", q) },
	answer: func(ctx context.Context, sess Session, gen int64, q term) (any, error) {
		counts, err := sess.TimeSeries(ctx, q.raw)
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
		return timeSeriesResponse{gen, q.kw, counts, totals}, nil
	},
}

// opBursts serves the keyword's information bursts: ?keyword=.
var opBursts = &op[term]{
	name:     "bursts",
	genKeyed: true,
	parse:    opTimeSeries.parse,
	render:   opTimeSeries.render,
	answer: func(ctx context.Context, sess Session, gen int64, q term) (any, error) {
		bursts, err := sess.Bursts(ctx, q.raw)
		if err != nil {
			return nil, err
		}
		return burstsResponse{gen, q.kw, orEmpty(bursts)}, nil
	},
}

// opSearch serves boolean search: ?terms=a,b,c&interval=i.
var opSearch = &op[searchReq]{
	name: "search",
	parse: func(v params) (searchReq, error) {
		a := args{v: v}
		raw := a.str("terms")
		// A plain loop, not strings.SplitSeq: a range-over-func body
		// would move a and q to the heap.
		parts := strings.Split(raw, ",")
		q := searchReq{terms: make([]string, 0, len(parts)), analyzed: make([]string, 0, len(parts)), interval: a.num("interval")}
		for _, t := range parts {
			if t = strings.TrimSpace(t); t != "" {
				q.terms = append(q.terms, t)
				q.analyzed = append(q.analyzed, a.analyze("terms", t))
			}
		}
		if len(q.terms) == 0 {
			a.fail("parameter %q needs at least one term", "terms")
		}
		slices.Sort(q.analyzed)
		return q, a.err
	},
	render: func(e *enc, q searchReq) {
		if e.key {
			e.str("terms", q.analyzed...)
		} else {
			e.str("terms", q.terms...)
		}
		e.num("interval", q.interval)
	},
	answer: func(ctx context.Context, sess Session, gen int64, q searchReq) (any, error) {
		ids, err := sess.Search(ctx, q.terms, q.interval)
		if err != nil {
			return nil, err
		}
		return searchResponse{gen, q.analyzed, q.interval, len(ids), orEmpty(ids)}, nil
	},
}

// opRefine serves query refinement: ?query=&interval=i.
var opRefine = &op[keywordAt]{
	name: "refine",
	parse: func(v params) (keywordAt, error) {
		a := args{v: v}
		q := keywordAt{term: a.term("query"), interval: a.num("interval")}
		return q, a.err
	},
	render: func(e *enc, q keywordAt) {
		e.term("query", q.term)
		e.num("interval", q.interval)
	},
	answer: func(ctx context.Context, sess Session, gen int64, q keywordAt) (any, error) {
		kws, err := sess.Refine(ctx, q.raw, q.interval)
		if err != nil {
			return nil, err
		}
		return refineResponse{gen, q.kw, q.interval, len(kws) > 0, orEmpty(kws)}, nil
	},
}

// opCorrelations serves the strongest ρ neighbors:
// ?keyword=&interval=i&n=5.
var opCorrelations = &op[keywordAt]{
	name: "correlations",
	parse: func(v params) (keywordAt, error) {
		a := args{v: v}
		q := keywordAt{term: a.term("keyword"), interval: a.num("interval"), n: a.numOr("n", 5)}
		if q.n <= 0 {
			a.fail("parameter %q: %q is not positive", "n", strconv.Itoa(q.n))
		}
		return q, a.err
	},
	render: func(e *enc, q keywordAt) {
		e.term("keyword", q.term)
		e.num("interval", q.interval)
		e.num("n", q.n)
	},
	answer: func(ctx context.Context, sess Session, gen int64, q keywordAt) (any, error) {
		cs, err := sess.Correlations(ctx, q.raw, q.interval, q.n)
		if err != nil {
			return nil, err
		}
		return correlationsResponse{gen, q.kw, q.interval, orEmpty(cs)}, nil
	},
}

// opDescribe renders a stable-cluster path with its keyword clusters:
// ?nodes=1,5,9&weight=&length= (weight and length default 0 and only
// affect the rendered header). The key is the parsed values re-rendered,
// so "1, 5" and "1,5", "0.0" and "0" share one entry; node bounds are
// the session's to check (ErrInvalidQuery → 400).
var opDescribe = &op[blogclusters.Path]{
	name: "describe",
	parse: func(v params) (blogclusters.Path, error) {
		a := args{v: v}
		raw := a.str("nodes")
		p := blogclusters.Path{Length: a.numOr("length", 0)}
		for _, f := range strings.Split(raw, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				a.fail("parameter %q: %q is not a comma-separated list of node ids", "nodes", raw)
				break
			}
			p.Nodes = append(p.Nodes, id)
		}
		if s := v.Get("weight"); s != "" {
			// NaN/Inf parse fine but cannot be JSON-encoded; reject here so
			// the client gets a 400, not an encode-time 500.
			w, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsNaN(w) || math.IsInf(w, 0) {
				a.fail("parameter %q: %q is not a finite number", "weight", s)
			}
			p.Weight = w
		}
		return p, a.err
	},
	render: func(e *enc, p blogclusters.Path) {
		e.name("nodes")
		for i, id := range p.Nodes {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = strconv.AppendInt(e.b, id, 10)
		}
		e.num("length", p.Length)
		e.name("weight")
		e.b = strconv.AppendFloat(e.b, p.Weight, 'g', -1, 64)
	},
	answer: func(ctx context.Context, sess Session, gen int64, p blogclusters.Path) (any, error) {
		desc, err := sess.Describe(ctx, p)
		if err != nil {
			return nil, err
		}
		return describeResponse{gen, p, desc}, nil
	},
}

// opMeta serves the session's shape in one cheap read — {generation,
// intervals, totals} — the handshake a shard coordinator (or any client
// wanting the corpus width before querying) starts with.
var opMeta = &op[struct{}]{
	name:     "meta",
	genKeyed: true,
	parse:    func(params) (struct{}, error) { return struct{}{}, nil },
	render:   func(*enc, struct{}) {},
	answer: func(ctx context.Context, sess Session, gen int64, _ struct{}) (any, error) {
		totals, err := sess.DocTotals(ctx)
		if err != nil {
			return nil, err
		}
		return metaResponse{gen, len(totals), orEmpty(totals)}, nil
	},
}

// opClusters serves the canonical per-interval cluster sets for global
// intervals [from, to): ?from=&to=[&counts=1]. With counts=1 only the
// per-interval cluster counts are returned — the cheap lens a
// coordinator uses to build its node-id offset table without shipping
// every keyword set across the wire.
var opClusters = &op[clustersReq]{
	name:     "clusters",
	genKeyed: true,
	parse: func(v params) (clustersReq, error) {
		a := args{v: v}
		q := clustersReq{from: a.num("from"), to: a.num("to"), counts: v.Get("counts") == "1"}
		return q, a.err
	},
	render: func(e *enc, q clustersReq) {
		e.num("from", q.from)
		e.num("to", q.to)
		if q.counts {
			e.num("counts", 1)
		}
	},
	answer: func(ctx context.Context, sess Session, gen int64, q clustersReq) (any, error) {
		sets, err := sess.ClusterSets(ctx, q.from, q.to)
		if err != nil {
			return nil, err
		}
		if q.counts {
			counts := make([]int, len(sets))
			for i, set := range sets {
				counts[i] = len(set)
			}
			return clusterCountsResponse{gen, q.from, q.to, counts}, nil
		}
		// sets may share the session's memo: render from a fresh outer
		// slice instead of writing the [] placeholders into it.
		out := make([][]blogclusters.Cluster, len(sets))
		for i, set := range sets {
			out[i] = orEmpty(set)
		}
		return clusterSetsResponse{gen, q.from, q.to, out}, nil
	},
}
