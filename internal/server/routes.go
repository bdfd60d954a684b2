package server

import "net/http"

// routes maps the HTTP surface onto Engine queries. Every /v1 route is
// a GET (queries are reads; the session is the only state), wrapped in
// its circuit breaker, the admission semaphore and the per-request
// deadline. The operational endpoints stay outside all three so probes
// and dashboards keep working while the query surface is saturated or
// shedding.
//
//	/v1/stable-clusters  → Solve (?variant=topk|normalized|diverse)
//	/v1/bursts           → Bursts
//	/v1/timeseries       → TimeSeries
//	/v1/search           → Search
//	/v1/refine           → Refine
//	/v1/correlations     → Correlations
//	/v1/describe         → Describe (over the session's graph)
//	/v1/meta             → session shape: generation, width, doc totals
//	/v1/clusters         → canonical per-interval cluster sets (the
//	                       scatter-gather exchange a shard coordinator
//	                       reads; ?counts=1 for sizes only)
//	/v1/push (POST)      → Engine.Push — live ingest of the next interval
//	/healthz             → process liveness
//	/readyz              → corpus loaded (SetEngine ran)
//	/debug/stats         → EngineStats + server/cache counters
//	/metrics             → Prometheus text exposition
//
// /v1/push is the one write. It takes only the request deadline: the
// breaker must not let a failing query route block ingest, and the
// admission semaphore exists to shed expensive fan-out queries, which
// a single append-one-interval push is not.
//
// Every route — operational ones included — is wrapped in instrument,
// outermost, so http_requests_total{route,status} counts shed 429/503
// responses under the route that shed them and the per-route latency
// histogram sees every served byte.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+routeStableClusters, s.instrument("stable-clusters", s.query("stable-clusters", s.handleStableClusters)))
	mux.HandleFunc("GET "+routeBursts, s.instrument("bursts", s.query("bursts", s.handleBursts)))
	mux.HandleFunc("GET "+routeTimeSeries, s.instrument("timeseries", s.query("timeseries", s.handleTimeSeries)))
	mux.HandleFunc("GET "+routeSearch, s.instrument("search", s.query("search", s.handleSearch)))
	mux.HandleFunc("GET "+routeRefine, s.instrument("refine", s.query("refine", s.handleRefine)))
	mux.HandleFunc("GET "+routeCorrelations, s.instrument("correlations", s.query("correlations", s.handleCorrelations)))
	mux.HandleFunc("GET "+routeDescribe, s.instrument("describe", s.query("describe", s.handleDescribe)))
	mux.HandleFunc("GET "+routeMeta, s.instrument("meta", s.query("meta", s.handleMeta)))
	mux.HandleFunc("GET "+routeClusters, s.instrument("clusters", s.query("clusters", s.handleClusters)))
	mux.HandleFunc("POST "+routePush, s.instrument("push", s.withTimeout(s.handlePush)))
	mux.HandleFunc("GET "+routeHealthz, s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET "+routeReadyz, s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("GET "+routeDebugStats, s.instrument("debug-stats", s.handleDebugStats))
	mux.HandleFunc("GET "+routeMetrics, s.instrument("metrics", s.handleMetrics))
	return mux
}

// The route paths, shared by routes and Client.
const (
	routeStableClusters = "/v1/stable-clusters"
	routeBursts         = "/v1/bursts"
	routeTimeSeries     = "/v1/timeseries"
	routeSearch         = "/v1/search"
	routeRefine         = "/v1/refine"
	routeCorrelations   = "/v1/correlations"
	routeDescribe       = "/v1/describe"
	routeMeta           = "/v1/meta"
	routeClusters       = "/v1/clusters"
	routePush           = "/v1/push"
	routeHealthz        = "/healthz"
	routeReadyz         = "/readyz"
	routeDebugStats     = "/debug/stats"
	routeMetrics        = "/metrics"
)
