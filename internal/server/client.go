package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"time"

	blogclusters "repro"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Client is this package's JSON API from the other side: it implements
// shard.Backend over the routes a Server serves, decoding into the very
// response types the handlers encode. A coordinator reaches every shard
// through one, remote shard servers and in-process ones (OpenInProcess)
// alike. Request contexts carry the coordinator's deadlines and request
// id; error statuses map back onto sentinels through statusSentinels,
// and statuses the table does not name (404, 429, 500) become
// shard.ErrUnavailable.
type Client struct {
	base *url.URL
	hc   *http.Client
	// eng is the in-process shard's Engine, which the Client owns and
	// Close closes; nil for a remote server.
	eng *blogclusters.Engine
}

// NewClient returns a client of the server at baseURL (e.g.
// "http://host:8080" or "host:8080"). hc may be nil for a plain
// http.Client with no client-level timeout: per-request contexts bound
// every call.
func NewClient(baseURL string, hc *http.Client) (*Client, error) {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("server: parse url %q: %w", baseURL, err)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("server: url %q has no host", baseURL)
	}
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: u, hc: hc}, nil
}

// OpenInProcess splits col into n interval slices, opens one Engine per
// slice and fronts each with its own Server, reached by a Client over an
// in-memory transport: an in-process shard is a shard server without
// the socket. cfg configures every shard server, whose access log gains
// a shard attribute; engOpts open every shard Engine, and copts.Graph
// should mirror them so merged answers are built on the same graph.
func OpenInProcess(ctx context.Context, col *blogclusters.Collection, n int, cfg Config, copts shard.Options, engOpts ...blogclusters.Option) (*shard.Coordinator, error) {
	subs, err := shard.SplitCollection(col, n)
	if err != nil {
		return nil, err
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	backends := make([]shard.Backend, 0, n)
	fail := func(err error) (*shard.Coordinator, error) {
		for _, b := range backends {
			b.Close()
		}
		return nil, err
	}
	for s, sub := range subs {
		eng, err := blogclusters.Open(ctx, blogclusters.FromCollection(sub), engOpts...)
		if err != nil {
			return fail(fmt.Errorf("server: open shard %d: %w", s, err))
		}
		scfg := cfg
		scfg.Logger = cfg.Logger.With("shard", s)
		srv := New(scfg)
		srv.SetEngine(eng)
		backends = append(backends, &Client{
			base: &url.URL{Scheme: "http", Host: "shard" + strconv.Itoa(s)},
			hc:   &http.Client{Transport: handlerTransport{srv.Handler()}},
			eng:  eng,
		})
	}
	c, err := shard.NewCoordinator(ctx, backends, copts)
	if err != nil {
		return fail(err)
	}
	return c, nil
}

// handlerTransport is an http.RoundTripper that serves every request
// with a handler, in the calling goroutine.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := req.Clone(req.Context())
	if r.Body == nil {
		r.Body = http.NoBody
	}
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, r)
	return w.Result(), nil
}

// statusError is a non-200 reply: the server's message, wrapping every
// sentinel statusSentinels lists for the status.
type statusError struct {
	msg       string
	sentinels []error
}

func (e *statusError) Error() string   { return e.msg }
func (e *statusError) Unwrap() []error { return e.sentinels }

// errorFor maps a non-200 reply onto the sentinel taxonomy, keeping the
// server's own error message.
func errorFor(status int, path string, raw []byte) error {
	msg := strings.TrimSpace(string(raw))
	var eb errorBody
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	e := &statusError{msg: fmt.Sprintf("server: %s: %d: %s", path, status, msg)}
	for _, row := range statusSentinels {
		if row.status == status {
			e.sentinels = append(e.sentinels, row.sentinel)
		}
	}
	if e.sentinels == nil {
		e.sentinels = []error{shard.ErrUnavailable}
	}
	return e
}

// do issues one request and decodes a 200 reply into out.
func (c *Client) do(ctx context.Context, method, path, query string, body, out any) error {
	u := *c.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	u.RawQuery = query
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("server: encode %s body: %w", path, err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
	if err != nil {
		return fmt.Errorf("server: build %s request: %w", path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Forward the caller's request id so one query's access-log lines
	// correlate across the coordinator and every shard it touched.
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// The transport wraps context errors; surface cancellation as
		// itself so ctx-joined callers see their own deadline, and
		// everything else as a transient shard failure.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("server: %s %s: %v: %w", method, path, err, shard.ErrUnavailable)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPushBody))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("server: read %s response: %v: %w", path, err, shard.ErrUnavailable)
	}
	if resp.StatusCode != http.StatusOK {
		return errorFor(resp.StatusCode, path, raw)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("server: decode %s response: %v: %w", path, err, shard.ErrUnavailable)
	}
	return nil
}

// fetch sends o's GET for q and decodes the reply as R, the response type
// o's answer renders.
func fetch[R, Q any](ctx context.Context, c *Client, o *op[Q], q Q) (R, error) {
	var resp R
	err := c.do(ctx, http.MethodGet, "/v1/"+o.name, o.query(q), nil, &resp)
	return resp, err
}

// nilIfEmpty maps an empty decoded list to nil, the Engine's spelling
// of "no results".
func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

func (c *Client) Meta(ctx context.Context) (shard.Meta, error) {
	resp, err := fetch[metaResponse](ctx, c, opMeta, struct{}{})
	return shard.Meta{Intervals: resp.Intervals, Generation: resp.Generation, Totals: resp.Totals}, err
}

func (c *Client) ClusterSets(ctx context.Context, from, to int) ([][]blogclusters.Cluster, error) {
	resp, err := fetch[clusterSetsResponse](ctx, c, opClusters, clustersReq{from: from, to: to})
	return resp.Sets, err
}

func (c *Client) ClusterCounts(ctx context.Context, from, to int) ([]int, error) {
	resp, err := fetch[clusterCountsResponse](ctx, c, opClusters, clustersReq{from: from, to: to, counts: true})
	return resp.Counts, err
}

func (c *Client) Solve(ctx context.Context, spec blogclusters.QuerySpec) (*blogclusters.Result, error) {
	resp, err := fetch[stableClustersResponse](ctx, c, opStableClusters, spec.Normalize())
	if err != nil {
		return nil, err
	}
	res := &blogclusters.Result{Paths: resp.Paths}
	res.Stats.NodeReads = resp.Stats.NodeReads
	res.Stats.NodeWrites = resp.Stats.NodeWrites
	res.Stats.EdgeReads = resp.Stats.EdgeReads
	res.Stats.HeapConsiders = resp.Stats.HeapConsiders
	res.Stats.Pruned = resp.Stats.Pruned
	return res, nil
}

func (c *Client) TimeSeries(ctx context.Context, keyword string) (counts, totals []int64, err error) {
	resp, err := fetch[timeSeriesResponse](ctx, c, opTimeSeries, term{raw: keyword})
	return resp.Counts, resp.Totals, err
}

func (c *Client) Search(ctx context.Context, terms []string, interval int) ([]int64, error) {
	resp, err := fetch[searchResponse](ctx, c, opSearch, searchReq{terms: terms, interval: interval})
	return nilIfEmpty(resp.IDs), err
}

func (c *Client) Refine(ctx context.Context, query string, interval int) ([]string, error) {
	resp, err := fetch[refineResponse](ctx, c, opRefine, keywordAt{term: term{raw: query}, interval: interval})
	return nilIfEmpty(resp.Keywords), err
}

func (c *Client) Correlations(ctx context.Context, keyword string, interval, n int) ([]blogclusters.Correlation, error) {
	resp, err := fetch[correlationsResponse](ctx, c, opCorrelations, keywordAt{term: term{raw: keyword}, interval: interval, n: n})
	return nilIfEmpty(resp.Correlations), err
}

func (c *Client) Push(ctx context.Context, iv blogclusters.Interval) (int64, error) {
	body := pushRequest{Interval: iv.Index, Label: iv.Label, Docs: make([]pushDoc, len(iv.Docs))}
	for i, d := range iv.Docs {
		body.Docs[i] = pushDoc{ID: d.ID, Keywords: d.Keywords}
	}
	var resp pushResponse
	err := c.do(ctx, http.MethodPost, routePush, "", body, &resp)
	return resp.Generation, err
}

func (c *Client) Stats(ctx context.Context) (blogclusters.EngineStats, error) {
	var resp statsResponse
	err := c.do(ctx, http.MethodGet, routeDebugStats, "", nil, &resp)
	if err == nil && resp.Engine == nil {
		err = fmt.Errorf("server: %s has no session attached: %w", c.base.Host, shard.ErrUnavailable)
	}
	if err != nil {
		return blogclusters.EngineStats{}, err
	}
	return *resp.Engine, nil
}

// Close closes the in-process shard's Engine; for a remote server it is
// a no-op (the server owns its own session).
func (c *Client) Close() error {
	if c.eng == nil {
		return nil
	}
	return c.eng.Close()
}

// WaitReady polls the server's /readyz until it answers 200 or ctx
// expires: the startup handshake of a coordinator fanning out to shard
// servers that are still loading their sub-corpora.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		err := c.do(ctx, http.MethodGet, routeReadyz, "", nil, nil)
		if err == nil {
			return nil
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("server: %s not ready: %v: %w", c.base.Host, err, ctx.Err())
		}
	}
}
