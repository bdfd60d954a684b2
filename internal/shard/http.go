package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	blogclusters "repro"
	"repro/internal/obs"
	"repro/internal/plan"
)

// HTTPBackend is the remote shard transport: it speaks the JSON API of
// internal/server, so any ordinary blogserved instance can serve as a
// shard. Request contexts propagate the coordinator's deadlines; HTTP
// statuses map back onto the typed error taxonomy (400 →
// ErrInvalidQuery, 409 → ErrOutOfOrderInterval, 422 →
// ErrMalformedInterval, everything transient → ErrUnavailable), so the
// coordinator — and the serving layer above it — handle remote shards
// exactly like in-process ones.
type HTTPBackend struct {
	base   *url.URL
	client *http.Client
}

// NewHTTPBackend wraps the shard server at baseURL (e.g.
// "http://host:8080"). client may be nil for http.DefaultClient-like
// behavior (no client-level timeout; per-request contexts bound every
// call).
func NewHTTPBackend(baseURL string, client *http.Client) (*HTTPBackend, error) {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("shard: parse shard url %q: %w", baseURL, err)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("shard: shard url %q has no host", baseURL)
	}
	if client == nil {
		client = &http.Client{}
	}
	return &HTTPBackend{base: u, client: client}, nil
}

// URL returns the shard's base URL.
func (b *HTTPBackend) URL() string { return b.base.String() }

// do issues one request and decodes the JSON response into out,
// translating error statuses into the sentinel taxonomy.
func (b *HTTPBackend) do(ctx context.Context, method, path string, query url.Values, body any, out any) error {
	u := *b.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	if query != nil {
		u.RawQuery = query.Encode()
	}
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("shard: encode %s body: %w", path, err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
	if err != nil {
		return fmt.Errorf("shard: build %s request: %w", path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Forward the coordinator-side request id so one query's access-log
	// lines correlate across the coordinator and every shard it touched.
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		// The transport wraps context errors; surface cancellation as
		// itself so ctx-joined callers see their own deadline, and
		// everything else as a transient shard failure.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("shard: %s %s: %v: %w", method, path, err, ErrUnavailable)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("shard: read %s response: %v: %w", path, err, ErrUnavailable)
	}
	if resp.StatusCode != http.StatusOK {
		return statusError(resp.StatusCode, path, raw)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("shard: decode %s response: %v: %w", path, err, ErrUnavailable)
	}
	return nil
}

// statusError maps a non-200 shard response onto the sentinel taxonomy,
// carrying the shard's own error message.
func statusError(status int, path string, raw []byte) error {
	msg := strings.TrimSpace(string(raw))
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	var sentinel error
	switch status {
	case http.StatusBadRequest:
		sentinel = blogclusters.ErrInvalidQuery
	case http.StatusConflict:
		sentinel = blogclusters.ErrOutOfOrderInterval
	case http.StatusUnprocessableEntity:
		sentinel = blogclusters.ErrMalformedInterval
	default:
		// 404 (wrong server), 429 (shedding), 5xx, 503, 504 — all
		// transient or operational: retryable from the client's seat.
		sentinel = ErrUnavailable
	}
	return fmt.Errorf("shard: %s: %d: %s: %w", path, status, msg, sentinel)
}

func (b *HTTPBackend) Meta(ctx context.Context) (Meta, error) {
	var resp struct {
		Generation int64   `json:"generation"`
		Intervals  int     `json:"intervals"`
		Totals     []int64 `json:"totals"`
	}
	if err := b.do(ctx, http.MethodGet, "/v1/meta", nil, nil, &resp); err != nil {
		return Meta{}, err
	}
	return Meta{Intervals: resp.Intervals, Generation: resp.Generation, Totals: resp.Totals}, nil
}

func (b *HTTPBackend) ClusterSets(ctx context.Context, from, to int) ([][]blogclusters.Cluster, error) {
	q := url.Values{"from": {strconv.Itoa(from)}, "to": {strconv.Itoa(to)}}
	var resp struct {
		Sets [][]blogclusters.Cluster `json:"sets"`
	}
	if err := b.do(ctx, http.MethodGet, "/v1/clusters", q, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Sets, nil
}

func (b *HTTPBackend) ClusterCounts(ctx context.Context, from, to int) ([]int, error) {
	q := url.Values{"from": {strconv.Itoa(from)}, "to": {strconv.Itoa(to)}, "counts": {"1"}}
	var resp struct {
		Counts []int `json:"counts"`
	}
	if err := b.do(ctx, http.MethodGet, "/v1/clusters", q, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Counts, nil
}

func (b *HTTPBackend) Solve(ctx context.Context, spec blogclusters.QuerySpec) (*blogclusters.Result, error) {
	spec = spec.Normalize()
	q := url.Values{
		"variant":   {spec.Variant},
		"algorithm": {spec.Algorithm},
		"k":         {strconv.Itoa(spec.K)},
	}
	switch spec.Variant {
	case plan.VariantNormalized:
		q.Set("lmin", strconv.Itoa(spec.LMin))
	case plan.VariantDiverse:
		q.Set("l", strconv.Itoa(spec.L))
		q.Set("mode", spec.Mode)
	default:
		q.Set("l", strconv.Itoa(spec.L))
	}
	var resp struct {
		Paths []struct {
			Nodes  []int64 `json:"nodes"`
			Length int     `json:"length"`
			Weight float64 `json:"weight"`
		} `json:"paths"`
		Stats struct {
			NodeReads     int64 `json:"node_reads"`
			NodeWrites    int64 `json:"node_writes"`
			EdgeReads     int64 `json:"edge_reads"`
			HeapConsiders int64 `json:"heap_considers"`
			Pruned        int64 `json:"pruned"`
		} `json:"stats"`
	}
	if err := b.do(ctx, http.MethodGet, "/v1/stable-clusters", q, nil, &resp); err != nil {
		return nil, err
	}
	res := &blogclusters.Result{Paths: make([]blogclusters.Path, len(resp.Paths))}
	for i, p := range resp.Paths {
		res.Paths[i] = blogclusters.Path{Nodes: p.Nodes, Length: p.Length, Weight: p.Weight}
	}
	res.Stats.NodeReads = resp.Stats.NodeReads
	res.Stats.NodeWrites = resp.Stats.NodeWrites
	res.Stats.EdgeReads = resp.Stats.EdgeReads
	res.Stats.HeapConsiders = resp.Stats.HeapConsiders
	res.Stats.Pruned = resp.Stats.Pruned
	return res, nil
}

func (b *HTTPBackend) TimeSeries(ctx context.Context, keyword string) (counts, totals []int64, err error) {
	q := url.Values{"keyword": {keyword}}
	var resp struct {
		Counts []int64 `json:"counts"`
		Totals []int64 `json:"totals"`
	}
	if err := b.do(ctx, http.MethodGet, "/v1/timeseries", q, nil, &resp); err != nil {
		return nil, nil, err
	}
	return resp.Counts, resp.Totals, nil
}

func (b *HTTPBackend) Search(ctx context.Context, terms []string, interval int) ([]int64, error) {
	q := url.Values{
		"terms":    {strings.Join(terms, ",")},
		"interval": {strconv.Itoa(interval)},
	}
	var resp struct {
		IDs []int64 `json:"ids"`
	}
	if err := b.do(ctx, http.MethodGet, "/v1/search", q, nil, &resp); err != nil {
		return nil, err
	}
	if len(resp.IDs) == 0 {
		return nil, nil
	}
	return resp.IDs, nil
}

func (b *HTTPBackend) Refine(ctx context.Context, query string, interval int) ([]string, error) {
	q := url.Values{"query": {query}, "interval": {strconv.Itoa(interval)}}
	var resp struct {
		Keywords []string `json:"keywords"`
	}
	if err := b.do(ctx, http.MethodGet, "/v1/refine", q, nil, &resp); err != nil {
		return nil, err
	}
	if len(resp.Keywords) == 0 {
		return nil, nil
	}
	return resp.Keywords, nil
}

func (b *HTTPBackend) Correlations(ctx context.Context, keyword string, interval, n int) ([]blogclusters.Correlation, error) {
	q := url.Values{
		"keyword":  {keyword},
		"interval": {strconv.Itoa(interval)},
		"n":        {strconv.Itoa(n)},
	}
	var resp struct {
		Correlations []struct {
			Keyword string  `json:"keyword"`
			Rho     float64 `json:"rho"`
			Count   int64   `json:"count"`
		} `json:"correlations"`
	}
	if err := b.do(ctx, http.MethodGet, "/v1/correlations", q, nil, &resp); err != nil {
		return nil, err
	}
	out := make([]blogclusters.Correlation, len(resp.Correlations))
	for i, c := range resp.Correlations {
		out[i] = blogclusters.Correlation{Keyword: c.Keyword, Rho: c.Rho, Count: c.Count}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func (b *HTTPBackend) Push(ctx context.Context, iv blogclusters.Interval) (int64, error) {
	type pushDoc struct {
		ID       int64    `json:"id"`
		Keywords []string `json:"keywords"`
	}
	body := struct {
		Interval int       `json:"interval"`
		Label    string    `json:"label"`
		Docs     []pushDoc `json:"docs"`
	}{Interval: iv.Index, Label: iv.Label, Docs: make([]pushDoc, len(iv.Docs))}
	for i, d := range iv.Docs {
		body.Docs[i] = pushDoc{ID: d.ID, Keywords: d.Keywords}
	}
	var resp struct {
		Generation int64 `json:"generation"`
	}
	if err := b.do(ctx, http.MethodPost, "/v1/push", nil, body, &resp); err != nil {
		return 0, err
	}
	return resp.Generation, nil
}

func (b *HTTPBackend) Stats(ctx context.Context) (blogclusters.EngineStats, error) {
	var resp struct {
		Engine *blogclusters.EngineStats `json:"engine"`
	}
	if err := b.do(ctx, http.MethodGet, "/debug/stats", nil, nil, &resp); err != nil {
		return blogclusters.EngineStats{}, err
	}
	if resp.Engine == nil {
		return blogclusters.EngineStats{}, fmt.Errorf("shard: %s has no session attached: %w", b.base.Host, ErrUnavailable)
	}
	return *resp.Engine, nil
}

// Close is a no-op: the remote shard owns its own session.
func (b *HTTPBackend) Close() error { return nil }

// WaitReady polls the shard server's /readyz until it answers 200 or
// ctx expires — the startup handshake for a coordinator fanning out to
// shard servers that are still loading their sub-corpora.
func WaitReady(ctx context.Context, baseURL string, client *http.Client) error {
	b, err := NewHTTPBackend(baseURL, client)
	if err != nil {
		return err
	}
	for {
		err := b.do(ctx, http.MethodGet, "/readyz", nil, nil, nil)
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("shard: %s not ready: %v: %w", b.base.Host, err, cerr)
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("shard: %s not ready: %v: %w", b.base.Host, err, ctx.Err())
		}
	}
}
