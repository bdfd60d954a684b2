package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/obs"
)

// outcome is the one wrapper around a request's ResponseWriter: it
// carries the request id, records the status and byte count, and the
// route handler fills in its route name and, once the route's breaker
// has admitted the request, that breaker.
type outcome struct {
	http.ResponseWriter
	status int
	bytes  int
	route  string   // empty for a path no route matched
	b      *breaker // nil unless the route's breaker let the request in
	// id holds the request id; it is also the X-Request-Id header's
	// value slice, so echoing the id allocates nothing.
	id [1]string
}

func (w *outcome) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *outcome) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// The headers the serving layer sets, by their canonical keys: a map
// write under a canonical key skips Header.Set's canonicalization and
// its fresh value slice.
const (
	hdrRequestID   = "X-Request-Id"
	hdrContentType = "Content-Type"
	hdrCache       = "X-Cache"
)

// statusLabels is the decimal text of every status code below 600, so
// a request's metric label is a table read, not a strconv call.
var statusLabels = func() (t [600]string) {
	for code := range t {
		t[code] = strconv.Itoa(code)
	}
	return t
}()

func statusLabel(code int) string {
	if uint(code) < uint(len(statusLabels)) {
		return statusLabels[code]
	}
	return strconv.Itoa(code)
}

// withOutcome wraps the route tree. It mints the request id when the
// client sent none and propagates it verbatim when it did (a
// coordinator forwards its own id on shard hops, so one query's log
// lines correlate across processes); either way it is echoed in the
// X-Request-ID response header and kept on the outcome, from which
// workContext carries it into the work the request runs.
//
// When the handler returns, the status is reported once: to the route's
// http_requests_total and latency histogram, shed 429s and 503s
// included; to the route's breaker if it admitted the request (a 5xx is
// a failure, except a 504: a query that ran out its own deadline says
// nothing of the route's health, so it is recorded as a success — still
// recorded, so a half-open probe that times out ends the probe); and as
// one access-log record.
//
// A panic counts as a 500 and becomes a 500 reply and a stack-trace log
// record instead of a dead process; net/http would recover it itself,
// but only after killing the connection with an empty reply.
// http.ErrAbortHandler, the sanctioned "hang up now" panic, is counted
// against its route and breaker, then re-raised with no log record.
func (s *Server) withOutcome(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		o := &outcome{ResponseWriter: w}
		if ids := r.Header[hdrRequestID]; len(ids) > 0 && ids[0] != "" {
			o.id[0] = ids[0]
		} else {
			o.id[0] = obs.NewRequestID()
		}
		w.Header()[hdrRequestID] = o.id[:]
		defer func() {
			v := recover()
			status := o.status
			switch {
			case v != nil:
				status = http.StatusInternalServerError
			case status == 0:
				status = http.StatusOK
			}
			if o.route != "" {
				s.m.requests.With(o.route, statusLabel(status)).Inc()
				s.m.duration.With(o.route).Observe(time.Since(start).Seconds())
			}
			if o.b != nil {
				o.b.record(status >= 500 && status != http.StatusGatewayTimeout)
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			if v != nil {
				s.panics.Add(1)
				s.log.Error("panic in handler",
					"path", r.URL.Path,
					"panic", v,
					"stack", string(debug.Stack()),
				)
				// Best effort: if the handler already wrote, this is a no-op.
				writeError(o, http.StatusInternalServerError, "internal error")
			}
			s.requests.Add(1)
			// Typed attributes: slog boxes none of them, and dur_us is
			// an integer because the JSON handler formats every float
			// through encoding/json.
			s.log.LogAttrs(context.Background(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("query", r.URL.RawQuery),
				slog.Int("status", status),
				slog.Int("bytes", o.bytes),
				slog.Int64("dur_us", time.Since(start).Microseconds()),
				slog.String("cache", o.Header().Get(hdrCache)),
				slog.String("request_id", o.id[0]),
				slog.String("remote", r.RemoteAddr),
			)
		}()
		next.ServeHTTP(o, r)
	})
}

// route names the request's route on its outcome. Every route the mux
// serves goes through it.
func (s *Server) route(name string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.(*outcome).route = name
		next(w, r)
	}
}

// query names a /v1 query route and applies its gates in order.
//
// The route's circuit breaker comes first: requests to an open route
// shed immediately — 503 + Retry-After — before touching the admission
// semaphore or the Engine, so a route stuck in multi-second failing
// builds cannot starve the healthy ones. A shed is not fed back to the
// breaker.
//
// Admission comes next: at most MaxInflight /v1 queries run at once,
// and requests beyond that are rejected immediately with 429 +
// Retry-After rather than queued without bound. Rejecting beats
// queueing here because every /v1 query can fan into multi-second
// Engine builds: a queue would grow faster than it drains under
// overload, and clients with deadlines would rather retry elsewhere.
// Health, readiness and stats stay outside the semaphore so operators
// can always observe an overloaded server.
//
// The deadline comes last, and only where the query can wait: serve
// takes a workContext on its way into a fill or an in-flight wait, not
// for a cache hit.
func (s *Server) query(route string, next http.HandlerFunc) http.HandlerFunc {
	return s.route(route, func(w http.ResponseWriter, r *http.Request) {
		b := s.breakerFor(route)
		if !b.allow() {
			s.shed(w, "breaker", http.StatusServiceUnavailable,
				"route "+route+" is failing; circuit breaker open, retry later")
			return
		}
		w.(*outcome).b = b
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			next(w, r)
		default:
			s.shed(w, "admission", http.StatusTooManyRequests,
				"server is at its in-flight query limit; retry shortly")
		}
	})
}

// shed rejects a request before it reaches the Engine.
func (s *Server) shed(w http.ResponseWriter, reason string, status int, msg string) {
	s.rejected.Add(1)
	s.m.shed.With(reason).Inc()
	w.Header().Set("Retry-After", s.retryHint)
	writeError(w, status, msg)
}

// workContext returns the context a request's work runs under: the
// request's own, carrying its request id (a Client forwards it on
// every shard hop) and the per-request deadline. The Engine joins it
// with the session lifetime, so the three ways a query dies — client
// disconnect, deadline, session Close — all cancel the same builds the
// same way. w must be the request's outcome.
func (s *Server) workContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc) {
	ctx := obs.WithRequestID(r.Context(), w.(*outcome).id[0])
	return context.WithTimeout(ctx, s.cfg.RequestTimeout)
}

// withTimeout runs next under the request's workContext.
func (s *Server) withTimeout(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := s.workContext(w, r)
		defer cancel()
		next(w, r.WithContext(ctx))
	}
}
