// Package server is the HTTP serving layer over one shared
// blogclusters.Engine session — the step from library to long-running
// queryable service named in ROADMAP (and the shape of the paper's
// BlogScope system itself: one loaded corpus, many analysis queries).
//
// One Server owns one Engine. Routes map 1:1 onto Engine query
// methods (see routes.go); everything the Engine memoizes (index,
// cluster sets, graph) is therefore shared by all HTTP clients, and
// the Engine's single-flight stage builds mean a cold start under
// concurrent load still builds each artifact exactly once.
//
// Production plumbing, in request order:
//
//   - one wrapper per request (middleware.go): it mints or echoes the
//     request id, records the status once, recovers a panic once and
//     reports the outcome to the access log, the route metrics and the
//     route's circuit breaker.
//   - circuit breaker: a /v1 route failing with 5xx sheds with 503 +
//     Retry-After until a probe succeeds (Config.BreakerCooldown).
//   - admission control: a bounded semaphore caps in-flight /v1
//     queries; overflow is rejected immediately with 429 + Retry-After
//     instead of queueing without bound (Config.MaxInflight).
//   - per-request deadlines: every query context carries
//     Config.RequestTimeout and is joined with the session lifetime
//     inside the Engine, so client disconnects, timeouts and server
//     shutdown all cancel the same way.
//   - response cache: rendered 200 responses live in a bytes-bounded
//     LRU keyed by normalized query params, with single-flight fills —
//     N identical hot queries cost one Engine call (cache.go). The key
//     fixes the answer, so entries never expire and outlive an Engine
//     outage; only a replaced session empties the cache.
//   - observability: structured access logs (one slog record per
//     request), X-Cache headers, and /debug/stats exposing
//     EngineStats (stage builds, timings, disk IOStats) plus server
//     counters (inflight, rejected, cache hits/misses).
//
// Client (client.go) is the same API from the other side: the one
// transport a shard Coordinator reaches its shard servers through,
// remote or in-process (OpenInProcess).
//
// Lifecycle: New → SetEngine when the corpus is loaded (readiness
// flips; /readyz turns 200) → http.Server.Shutdown drains in-flight
// requests → Engine.Close. cmd/blogserved wires this to
// SIGINT/SIGTERM via internal/cli.
package server

import (
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes one Server. The zero value serves with the defaults.
type Config struct {
	// MaxInflight caps concurrently admitted /v1 requests; further
	// requests get 429 + Retry-After. Non-positive means
	// DefaultMaxInflight.
	MaxInflight int
	// CacheBytes bounds the response cache. 0 means DefaultCacheBytes;
	// negative disables response caching (every query hits the Engine).
	CacheBytes int
	// RequestTimeout is the per-request context deadline for /v1
	// queries. Non-positive means DefaultRequestTimeout.
	RequestTimeout time.Duration
	// BreakerCooldown is how long an open per-route circuit breaker
	// sheds load before letting a probe through. Non-positive means
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// Logger receives one structured record per request plus lifecycle
	// events. Nil means slog.Default().
	Logger *slog.Logger
}

// Defaults for Config's zero values.
const (
	DefaultMaxInflight    = 64
	DefaultCacheBytes     = 8 << 20
	DefaultRequestTimeout = 30 * time.Second
)

// Server is the HTTP serving layer over one Engine session. Create
// with New, attach the session with SetEngine, serve Handler().
type Server struct {
	cfg       Config
	log       *slog.Logger
	sess      atomic.Pointer[sessionBox]
	openErr   atomic.Pointer[openFailure]
	cache     *responseCache
	sem       chan struct{}
	start     time.Time
	retryHint string // shared Retry-After value, derived from RequestTimeout
	m         *serverMetrics

	breakerMu sync.Mutex
	breakers  map[string]*breaker

	requests atomic.Int64
	rejected atomic.Int64
	panics   atomic.Int64
	pushes   atomic.Int64
}

// openFailure boxes a background Engine.Open error for atomic storage.
type openFailure struct{ err error }

// New returns a Server with no Engine attached yet: /healthz answers
// 200 immediately, /readyz and the /v1 queries answer 503 until
// SetEngine. Opening the corpus in the background while the listener
// is already up is exactly the intended startup shape (blogserved does
// this), so load balancers can probe readiness during a slow load.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Server{
		cfg:       cfg,
		log:       cfg.Logger,
		cache:     newResponseCache(cfg.CacheBytes),
		sem:       make(chan struct{}, cfg.MaxInflight),
		start:     time.Now(),
		retryHint: retryAfterSeconds(cfg.RequestTimeout),
		m:         newServerMetrics(),
		breakers:  map[string]*breaker{},
	}
}

// SetEngine attaches the session and flips readiness (clearing any
// recorded open failure). Any Session works — a single Engine or a
// shard Coordinator. A session that replaces another empties the
// response cache: every session counts its generations from the same
// start, so the old session's answers would sit under the new one's
// keys. The Server does not own the session: the caller closes it
// after draining HTTP (the reverse order would cancel in-flight
// queries mid-drain).
func (s *Server) SetEngine(sess Session) {
	s.sess.Store(&sessionBox{s: sess})
	s.cache.reset()
	s.openErr.Store(nil)
}

// SetOpenError records that the background Engine.Open failed. The
// server keeps serving — /healthz stays 200, /readyz reports failing
// with the error in the body, /v1 queries get 503 + Retry-After —
// so operators can see why the corpus never loaded instead of finding
// a dead process. A later SetEngine (a retried load) clears it.
func (s *Server) SetOpenError(err error) {
	if err == nil {
		return
	}
	s.openErr.Store(&openFailure{err: err})
}

// Session returns the attached session, or nil before SetEngine.
func (s *Server) Session() Session {
	if b := s.sess.Load(); b != nil {
		return b.s
	}
	return nil
}

// Stats is the server-side half of /debug/stats.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Ready         bool    `json:"ready"`
	// Health is the three-state summary ("ok", "degraded", "failing");
	// HealthReason explains the non-ok states.
	Health       string `json:"health"`
	HealthReason string `json:"health_reason,omitempty"`
	Requests     int64  `json:"requests"`
	Inflight     int    `json:"inflight"`
	MaxInflight  int    `json:"max_inflight"`
	Rejected     int64  `json:"rejected"`
	// Panics counts handler panics recovered by withOutcome; nonzero
	// means a bug, but the process survived it.
	Panics int64 `json:"panics"`
	// Pushes counts successful /v1/push ingests (the Engine's own
	// counter in EngineStats also counts library-level pushes).
	Pushes int64 `json:"pushes"`
	// Breakers maps each /v1 route seen so far to its circuit-breaker
	// state ("closed", "open", "half-open").
	Breakers map[string]string `json:"breakers"`
	Cache    CacheStats        `json:"cache"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	health, reason := s.health()
	return Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Ready:         s.Session() != nil,
		Health:        health,
		HealthReason:  reason,
		Requests:      s.requests.Load(),
		Inflight:      len(s.sem),
		MaxInflight:   s.cfg.MaxInflight,
		Rejected:      s.rejected.Load(),
		Panics:        s.panics.Load(),
		Pushes:        s.pushes.Load(),
		Breakers:      s.breakerStates(),
		Cache:         s.cache.Stats(),
	}
}

// Handler returns the full route tree wrapped in withOutcome. Pass it
// to http.Server.
func (s *Server) Handler() http.Handler {
	return s.withOutcome(s.routes())
}
