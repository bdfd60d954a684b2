package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	blogclusters "repro"
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

// serveTraced handles ?trace=1: the request bypasses the response
// cache (a replayed body cannot carry this request's spans — the point
// is to watch the work happen), runs the query with a span recorder in
// its context, and splices the recorded spans into the JSON envelope
// as a trailing "trace" array. Engine stage builds, solver runs and
// shard fan-out hops all record into the same recorder; a memo-hot
// request honestly shows few or no engine spans, because the work was
// already done by an earlier request.
func (s *Server) serveTraced(w http.ResponseWriter, r *http.Request, fill func(ctx context.Context) (*cacheEntry, error)) {
	ctx, rec := obs.WithRecorder(r.Context())
	start := time.Now()
	e, err := fill(ctx)
	rec.Record("request", start, err)
	s.cache.noteBypass()
	if err != nil {
		writeError(w, errStatus(err), err.Error())
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
