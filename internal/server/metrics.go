package server

import (
	"io"
	"net/http"

	blogclusters "repro"
	"repro/internal/metrics"
)

// serverMetrics is the Server's Prometheus registry plus the resolved
// instrument handles. Two kinds of series live here (see the
// internal/metrics package comment): live instruments the middleware
// drives per request (route counters, latency histograms, shed
// counters), and scrape-time mirrors of counters that already exist
// elsewhere — the response cache, EngineStats, its per-algorithm solve
// histograms and work counters — copied in by syncMetrics just before
// every exposition so one registry serves both without double counting.
type serverMetrics struct {
	reg *metrics.Registry

	// Live, driven by withOutcome and the shed gates.
	requests *metrics.Vec // http_requests_total{route,status}
	duration *metrics.Vec // http_request_duration_seconds{route}
	shed     *metrics.Vec // http_requests_shed_total{reason}

	// Scrape-time mirrors of server counters.
	inflight    *metrics.Series
	maxInflight *metrics.Series
	panics      *metrics.Series

	// Response cache mirrors (states match the X-Cache header values).
	cacheReq       *metrics.Vec // cache_requests_total{state}
	cacheEvictions *metrics.Series
	cacheEntries   *metrics.Series
	cacheBytes     *metrics.Series
	cacheMaxBytes  *metrics.Series

	// EngineStats mirrors.
	engGen         *metrics.Series
	engIntervals   *metrics.Series
	engQueries     *metrics.Series
	engPushes      *metrics.Series
	stageBuilds    *metrics.Vec // engine_stage_builds_total{stage}
	stageSeconds   *metrics.Vec // engine_stage_seconds_total{stage}
	engSegments    *metrics.Series
	engCompactions *metrics.Series

	// Disk index I/O and block-cache mirrors.
	ioRandom       *metrics.Series
	ioSeq          *metrics.Series
	ioWrites       *metrics.Series
	ioBytesRead    *metrics.Series
	ioBytesWritten *metrics.Series
	ioRetried      *metrics.Series
	ioCorrupt      *metrics.Series
	idxCacheHits   *metrics.Series
	idxCacheMisses *metrics.Series
	idxCacheBytes  *metrics.Series

	// Per-algorithm solve accounting mirror.
	solveDur  *metrics.Vec // engine_solve_duration_seconds{algorithm}
	solveWork *metrics.Vec // engine_solve_work_total{algorithm,counter}
	solvePeak *metrics.Vec // engine_solve_peak_state_paths{algorithm}
}

// solveDurBuckets converts blogclusters.SolveNsBuckets (nanoseconds) into the
// histogram's second-valued upper bounds, so the exposition layout
// matches the Engine's internal accounting one-for-one and
// SetHistogram can mirror SolveHist.Counts without resampling.
func solveDurBuckets() []float64 {
	out := make([]float64, len(blogclusters.SolveNsBuckets))
	for i, ns := range blogclusters.SolveNsBuckets {
		out[i] = float64(ns) / 1e9
	}
	return out
}

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{reg: reg}

	m.requests = reg.Counter("http_requests_total",
		"HTTP requests served, by route and response status.", "route", "status")
	m.duration = reg.Histogram("http_request_duration_seconds",
		"Wall-clock request latency by route, including shed responses.", nil, "route")
	m.shed = reg.Counter("http_requests_shed_total",
		"Requests rejected before reaching the Engine, by reason (admission: 429 over the in-flight cap; breaker: 503 from an open route breaker).", "reason")
	m.inflight = reg.Gauge("http_requests_inflight",
		"Queries currently holding an admission slot.").With()
	m.maxInflight = reg.Gauge("http_requests_max_inflight",
		"The admission semaphore capacity (Config.MaxInflight).").With()
	m.panics = reg.Counter("http_panics_total",
		"Handler panics recovered by the serving layer.").With()

	m.cacheReq = reg.Counter("cache_requests_total",
		"Response-cache outcomes, by state; states match the X-Cache response header.", "state")
	m.cacheEvictions = reg.Counter("cache_evictions_total",
		"Response-cache LRU evictions.").With()
	m.cacheEntries = reg.Gauge("cache_entries",
		"Resident response-cache entries.").With()
	m.cacheBytes = reg.Gauge("cache_bytes",
		"Resident response-cache bytes.").With()
	m.cacheMaxBytes = reg.Gauge("cache_max_bytes",
		"Response-cache byte budget.").With()

	m.engGen = reg.Gauge("engine_generation",
		"Session ingest generation (0 at open, +1 per push).").With()
	m.engIntervals = reg.Gauge("engine_intervals",
		"Current corpus width in intervals.").With()
	m.engQueries = reg.Counter("engine_queries_total",
		"Engine query/artifact calls issued.").With()
	m.engPushes = reg.Counter("engine_pushes_total",
		"Successful Engine.Push ingests.").With()
	m.stageBuilds = reg.Counter("engine_stage_builds_total",
		"Completed stage builds, by stage.", "stage")
	m.stageSeconds = reg.Counter("engine_stage_seconds_total",
		"Cumulative stage build wall-clock seconds, by stage.", "stage")
	m.engSegments = reg.Gauge("engine_index_segments",
		"Live index segments (base + deltas).").With()
	m.engCompactions = reg.Counter("engine_index_compactions_total",
		"Completed background index compactions.").With()

	m.ioRandom = reg.Counter("index_io_random_reads_total",
		"Disk index random block reads.").With()
	m.ioSeq = reg.Counter("index_io_sequential_reads_total",
		"Disk index sequential block reads.").With()
	m.ioWrites = reg.Counter("index_io_writes_total",
		"Disk index block writes.").With()
	m.ioBytesRead = reg.Counter("index_io_bytes_read_total",
		"Disk index bytes read.").With()
	m.ioBytesWritten = reg.Counter("index_io_bytes_written_total",
		"Disk index bytes written.").With()
	m.ioRetried = reg.Counter("index_io_retried_reads_total",
		"Disk index reads reissued after a transient fault.").With()
	m.ioCorrupt = reg.Counter("index_io_corrupt_reads_total",
		"Disk index reads rejected by validation (checksum/framing).").With()
	m.idxCacheHits = reg.Counter("index_cache_hits_total",
		"Disk index block-cache hits.").With()
	m.idxCacheMisses = reg.Counter("index_cache_misses_total",
		"Disk index block-cache misses.").With()
	m.idxCacheBytes = reg.Gauge("index_cache_bytes",
		"Disk index block-cache resident bytes.").With()

	m.solveDur = reg.Histogram("engine_solve_duration_seconds",
		"Completed stable-cluster solve wall-clock, by algorithm.",
		solveDurBuckets(), "algorithm")
	m.solveWork = reg.Counter("engine_solve_work_total",
		"Work counters summed over completed solves, by algorithm and counter (node_reads, edge_reads, heap_considers, repushes, pruned, random_seeks); edge_reads counts a solve's own reads, not the graph's once-per-graph bound sweeps.", "algorithm", "counter")
	m.solvePeak = reg.Gauge("engine_solve_peak_state_paths",
		"Most paths any one completed solve held in per-node state at a time, by algorithm.", "algorithm")

	return m
}

// syncMetrics copies every mirrored counter into the registry: the
// server gauges, the response-cache counters, and — when a session is
// attached — its EngineStats (for a shard Coordinator this is already
// the cross-shard aggregate). Called once per scrape; the Set calls
// are safe against concurrent scrapes because the sources are
// themselves monotone snapshots.
func (s *Server) syncMetrics() {
	m := s.m
	m.inflight.Set(float64(len(s.sem)))
	m.maxInflight.Set(float64(s.cfg.MaxInflight))
	m.panics.Set(float64(s.panics.Load()))

	cs := s.cache.Stats()
	m.cacheReq.With(string(cacheHit)).Set(float64(cs.Hits))
	m.cacheReq.With(string(cacheMiss)).Set(float64(cs.Misses))
	m.cacheReq.With(string(cacheBypass)).Set(float64(cs.Bypass))
	m.cacheEvictions.Set(float64(cs.Evictions))
	m.cacheEntries.Set(float64(cs.Entries))
	m.cacheBytes.Set(float64(cs.Bytes))
	m.cacheMaxBytes.Set(float64(cs.MaxBytes))

	sess := s.Session()
	if sess == nil {
		return
	}
	st := sess.Stats()
	m.engGen.Set(float64(st.Generation))
	m.engIntervals.Set(float64(st.Intervals))
	m.engQueries.Set(float64(st.Queries))
	m.engPushes.Set(float64(st.Pushes))
	for stage, t := range st.Stages {
		m.stageBuilds.With(stage).Set(float64(t.Builds))
		m.stageSeconds.With(stage).Set(t.Total.Seconds())
	}
	m.engSegments.Set(float64(st.IndexSegments))
	m.engCompactions.Set(float64(st.IndexCompactions))

	m.ioRandom.Set(float64(st.IndexIO.RandomReads))
	m.ioSeq.Set(float64(st.IndexIO.SequentialReads))
	m.ioWrites.Set(float64(st.IndexIO.Writes))
	m.ioBytesRead.Set(float64(st.IndexIO.BytesRead))
	m.ioBytesWritten.Set(float64(st.IndexIO.BytesWritten))
	m.ioRetried.Set(float64(st.IndexIO.RetriedReads))
	m.ioCorrupt.Set(float64(st.IndexIO.CorruptReads))
	m.idxCacheHits.Set(float64(st.IndexCache.Hits))
	m.idxCacheMisses.Set(float64(st.IndexCache.Misses))
	m.idxCacheBytes.Set(float64(st.IndexCache.Bytes))

	for algo, h := range st.Planner.SolveNs {
		m.solveDur.With(algo).SetHistogram(h.Counts[:], float64(h.SumNs)/1e9)
	}
	for algo, w := range st.Planner.Work {
		m.solveWork.With(algo, "node_reads").Set(float64(w.NodeReads))
		m.solveWork.With(algo, "edge_reads").Set(float64(w.EdgeReads))
		m.solveWork.With(algo, "heap_considers").Set(float64(w.HeapConsiders))
		m.solveWork.With(algo, "repushes").Set(float64(w.Repushes))
		m.solveWork.With(algo, "pruned").Set(float64(w.Pruned))
		m.solveWork.With(algo, "random_seeks").Set(float64(w.RandomSeeks))
		m.solvePeak.With(algo).Set(float64(w.PeakStatePaths))
	}
}

// metricsAppender is implemented by sessions that carry their own
// registry — the shard Coordinator appends its coordinator_* and
// shard_* families after the server's (distinct name prefixes keep the
// exposition well-formed).
type metricsAppender interface {
	WriteMetrics(w io.Writer) (int64, error)
}

// handleMetrics serves the Prometheus text exposition. Operational
// like /healthz: no breaker, no admission slot, no deadline — an
// overloaded or shedding server must still be scrapable.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := s.m.reg.WriteTo(w); err != nil {
		return
	}
	if ma, ok := s.Session().(metricsAppender); ok {
		ma.WriteMetrics(w)
	}
}
