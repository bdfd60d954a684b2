package server

import "net/http"

// routes maps the HTTP surface onto Engine queries. Every /v1 query is
// a GET (queries are reads; the session is the only state) declared in
// the queries table (ops.go) and registered here, wrapped in its
// circuit breaker and the admission semaphore; its work (a fill, a
// wait on one, a trace) runs under the per-request deadline. The
// operational endpoints stay outside all three so probes and dashboards
// keep working while the query surface is saturated or shedding.
//
//	/v1/<name>           → the queries table (ops.go)
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
// Every route — operational ones included — names itself (route), so
// withOutcome counts it under http_requests_total{route,status} and
// the per-route latency histogram, shed 429/503 responses included.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	for _, q := range queries {
		name := q.label()
		mux.HandleFunc("GET /v1/"+name, s.query(name, func(w http.ResponseWriter, r *http.Request) {
			q.serve(s, w, r)
		}))
	}
	mux.HandleFunc("POST "+routePush, s.route("push", s.withTimeout(s.handlePush)))
	mux.HandleFunc("GET "+routeHealthz, s.route("healthz", s.handleHealthz))
	mux.HandleFunc("GET "+routeReadyz, s.route("readyz", s.handleReadyz))
	mux.HandleFunc("GET "+routeDebugStats, s.route("debug-stats", s.handleDebugStats))
	mux.HandleFunc("GET "+routeMetrics, s.route("metrics", s.handleMetrics))
	return mux
}

// The paths of the routes outside the query table, shared by routes
// and Client.
const (
	routePush       = "/v1/push"
	routeHealthz    = "/healthz"
	routeReadyz     = "/readyz"
	routeDebugStats = "/debug/stats"
	routeMetrics    = "/metrics"
)
