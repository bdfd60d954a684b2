package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	blogclusters "repro"
)

// serve_hot: every GET is a response-cache hit, so the socket,
// net/http, the middleware and the cache's read path are the whole
// cost and the engine is bypassed.
const (
	hotIntervals = 7
	hotPosts     = 5000
	hotURLs      = 64
	hotZipfS     = 1.1
	hotSegOps    = 16000
	// hotClients is the number of closed-loop callers, one connection
	// each. One caller measures the guest's wake-up path, not the
	// program: client and server then sleep and wake each other on every
	// request, and identical 5000-request segments took 270-840 ms within
	// one run and 470-560 ms (median) from run to run. With four callers
	// neither side sleeps, both vCPUs stay busy and the same segments'
	// medians repeat within 2% across runs; eight are worse again.
	hotClients = 4
	// hotSegNominalMs is one segment's time on the reference machine.
	hotSegNominalMs = 767
	// hotMinHitShare is the validity guard: below it the run measured
	// something other than the cache-hit path.
	hotMinHitShare = 0.99
)

var hotSpecs = []blogclusters.QuerySpec{
	{Algorithm: "bfs", K: 5, L: 3},
	{Algorithm: "dfs", K: 5, L: -1},
	{Variant: "normalized", K: 5, LMin: 2},
	{Variant: "diverse", K: 5, L: 3, Mode: "endpoints"},
}

// hotQueries draws the 64 URLs, most popular first. Which route a rank
// asks is fixed (every sixteenth a stable-clusters spec, the others
// cycling through the keyword routes) so that the popular ranks, which
// carry most of the traffic, cost the same on every seed; the seed
// draws the keywords — story keywords and mid-frequency background
// words, whose answers are a few hundred bytes — and the intervals.
func hotQueries(seed int64, intervals int) []query {
	rng := rand.New(rand.NewSource(seed))
	events := eventKeywords()
	seen := map[string]bool{}
	var out []query
	for rank := 0; len(out) < hotURLs; rank++ {
		if rank%16 == 5 {
			out = append(out, stableQuery(hotSpecs[(rank/16)%len(hotSpecs)]))
			continue
		}
		for {
			kw := events[rng.Intn(len(events))]
			if rank%2 == 1 {
				kw = bgWord(50 + rng.Intn(350))
			}
			q := keywordQuery(keywordRoutes[rank%len(keywordRoutes)], kw, rng.Intn(intervals))
			if !seen[q.path] {
				seen[q.path] = true
				out = append(out, q)
				break
			}
		}
	}
	return out
}

// hotOpList draws each segment's operations: indexes into the URL list,
// Zipf-distributed.
func hotOpList(seed int64, segments, segOps int) [][]int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	z := newZipf(hotURLs, hotZipfS)
	out := make([][]int, segments)
	for s := range out {
		out[s] = make([]int, segOps)
		for i := range out[s] {
			out[s][i] = z.draw(rng)
		}
	}
	return out
}

// hotSetup starts blogserved on the corpus and asks every URL twice:
// the first answer must be a 200 that decodes and carries generation 1,
// the second a cache hit with the same bytes.
func hotSetup(rc *runCtx, env *serveEnv, qs []query, chk *checker) (s *session, want []uint64, err error) {
	if s, err = openSession(rc, env, hotClients, "-gap", "1"); err != nil {
		return nil, nil, err
	}
	for _, q := range qs {
		r, err := s.ks[0].get(q.path)
		if err != nil {
			s.close()
			return nil, nil, err
		}
		if gen, err := envelopeGeneration(r.body); r.status != 200 || err != nil || gen != 1 {
			chk.failf("warm-up %s: status %d generation %d: %v", q.path, r.status, gen, err)
		}
		first := fnv64(fnvOffset, r.body)
		if r, err = s.ks[0].get(q.path); err != nil {
			s.close()
			return nil, nil, err
		}
		if r.xcache != "hit" || fnv64(fnvOffset, r.body) != first {
			chk.failf("warm-up %s: repeat was %q, or its bytes differ", q.path, r.xcache)
		}
		want = append(want, first)
	}
	return s, want, nil
}

func runServeHot(rc *runCtx) (*result, error) {
	chk := &checker{}
	intervals, posts, segOps := hotIntervals, hotPosts, hotSegOps
	if rc.quick {
		posts, segOps = 200, 300
	}
	env, err := newServeEnv(rc, intervals, intervals, posts)
	if err != nil {
		return nil, err
	}
	qs := hotQueries(rc.seed, intervals)
	list := hotOpList(rc.seed, rc.segments(hotSegNominalMs), segOps)

	var sess *session
	var want []uint64 // body fingerprint per URL
	if err := rc.setUp(func() (err error) {
		sess, want, err = hotSetup(rc, env, qs, chk)
		return err
	}, func() { sess.close() }); err != nil {
		return nil, err
	}

	var tw *twin
	var twReqs []*http.Request
	var handlerUs, socketUs []float64
	if rc.trace {
		if tw, err = newTwin(context.Background(), env.input, 0,
			blogclusters.WithGraphOptions(blogclusters.GraphOptions{Gap: 1})); err != nil {
			return nil, err
		}
		defer tw.eng.Close()
		for _, q := range qs {
			req, err := http.NewRequest("GET", q.path, nil)
			if err != nil {
				return nil, err
			}
			twReqs = append(twReqs, req)
			tw.cached.ServeHTTP(&nullWriter{h: http.Header{}}, req) // fill the twin's cache
		}
	}
	nw := &nullWriter{h: http.Header{}}

	st0, err := sess.c.stats()
	if err != nil {
		return nil, err
	}
	// Each connection's goroutine keeps its own tallies; they are merged
	// when the segment's goroutines have all returned.
	type tally struct {
		lat               []float64
		nonHit, respBytes int
		failures          []string
		startNs, endNs    []int64 // traced segments only
		ops               []int
	}
	nonHit, respBytes := 0, 0
	var segs []segmentFunc
	for si, seg := range list {
		traced := rc.trace && si%2 == 1
		segs = append(segs, func(log *opLog) {
			tallies := make([]tally, len(sess.ks))
			var wg sync.WaitGroup
			for ci, k := range sess.ks {
				wg.Add(1)
				go func() {
					defer wg.Done()
					t := &tallies[ci]
					for j := ci; j < len(seg); j += len(sess.ks) {
						qi := seg[j]
						t0 := time.Now()
						r, err := k.get(qs[qi].path)
						d := time.Since(t0)
						t.lat = append(t.lat, ms(d))
						if traced {
							t.startNs = append(t.startNs, int64(t0.Sub(rc.rec.epoch)))
							t.endNs = append(t.endNs, int64(t0.Sub(rc.rec.epoch)+d))
							t.ops = append(t.ops, qi)
						}
						switch {
						case err != nil:
							t.failures = append(t.failures, fmt.Sprintf("%s: %v", qs[qi].path, err))
							return // the connection is gone
						case r.status != 200 || fnv64(fnvOffset, r.body) != want[qi]:
							t.failures = append(t.failures, fmt.Sprintf("%s: status %d, or bytes differ from the first answer", qs[qi].path, r.status))
						case r.xcache != "hit":
							t.nonHit++
						}
						t.respBytes += len(r.body)
					}
				}()
			}
			wg.Wait()
			for _, t := range tallies {
				for _, l := range t.lat {
					log.add(l)
				}
				for _, f := range t.failures {
					chk.failf("%s", f)
				}
				nonHit += t.nonHit
				respBytes += t.respBytes
				if !traced {
					continue
				}
				rc.pause(func() {
					// Every traced request again, against the twin's handler;
					// its time becomes a child span inside the round trip.
					for i, qi := range t.ops {
						clear(nw.h)
						h0 := time.Now()
						tw.cached.ServeHTTP(nw, twReqs[qi])
						h := time.Since(h0)
						handlerUs = append(handlerUs, float64(h)/1e3)
						socketUs = append(socketUs, float64(t.endNs[i]-t.startNs[i])/1e3)
						rc.rec.beginOp()
						rc.rec.add("server.socket", t.startNs[i], t.endNs[i])
						rc.rec.nest([]string{"server.handler"}, []time.Duration{h})
					}
				})
			}
		})
	}
	m, err := measure(rc, sess.c, segs)
	if err != nil {
		return nil, err
	}
	if share := 1 - float64(nonHit)/float64(m.ops); share < hotMinHitShare {
		chk.failf("X-Cache hit share %.4f below %.2f: not the cache-hit path", share, hotMinHitShare)
	}
	r := &result{m: m, chk: chk, opDigest: digest(pathsDigest(qs), fmt.Sprint(list))}
	if rc.trace {
		st1, err := sess.c.stats()
		if err != nil {
			return nil, err
		}
		r.layers = map[string]float64{
			"server.roundtrip_us_p50":      median(socketUs),
			"server.socket_self_us":        median(socketUs) - median(handlerUs),
			"server.handler_self_us":       median(handlerUs),
			"server.response_bytes_per_op": float64(respBytes) / float64(m.ops),
			"server.gc_pause_ms_total":     float64(m.heap.pauseNs) / 1e6,
			"harness.build_binary_s":       env.buildS,
		}
		serverCounters(r.layers, sess.c, st0, st1)
		if err := twinProbes(tw, qs, twReqs, r.layers); err != nil {
			return nil, err
		}
		r.traceOverhead()
	}
	return r, nil
}

// serverCounters fills the layer metrics read off the child's own
// telemetry: /debug/stats deltas over the measured phase and the shed
// counter family on /metrics.
func serverCounters(layers map[string]float64, c *child, st0, st1 debugStats) {
	hits := float64(st1.Server.Cache.Hits - st0.Server.Cache.Hits)
	misses := float64(st1.Server.Cache.Misses - st0.Server.Cache.Misses)
	if hits+misses > 0 {
		layers["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	layers["server.cache_evictions"] = float64(st1.Server.Cache.Evictions - st0.Server.Cache.Evictions)
	if shed, err := c.metricSum("http_requests_shed_total"); err == nil {
		layers["server.shed_total"] = shed
	}
	ih := float64(st1.Engine.IndexCache.Hits - st0.Engine.IndexCache.Hits)
	im := float64(st1.Engine.IndexCache.Misses - st0.Engine.IndexCache.Misses)
	if ih+im > 0 {
		layers["index.block_cache_hit_ratio"] = ih / (ih + im)
	}
	layers["index.compactions"] = float64(st1.Engine.IndexCompactions)
	layers["plan.explored"] = float64(st1.Engine.Planner.Explored)
	layers["plan.exploited"] = float64(st1.Engine.Planner.Exploited)
	builds := 0.0
	for _, s := range st1.Engine.Stages {
		builds += float64(s.Builds)
	}
	layers["engine.stage_builds"] = builds
}

// twinProbes times each query at the two inner boundaries the socket
// run cannot see — the handler with the response cache off (every
// request reaches the Engine) and the Engine method itself — and the
// index primitives beneath, all on the twin.
func twinProbes(tw *twin, qs []query, reqs []*http.Request, layers map[string]float64) error {
	ctx := context.Background()
	nw := &nullWriter{h: http.Header{}}
	var hitUs, missUs, kwUs, solveMs, searchUs, tsUs []float64
	idx, err := tw.eng.Index(ctx)
	if err != nil {
		return err
	}
	for rep := 0; rep < 5; rep++ {
		for i, q := range qs {
			if q.route == "stable-clusters" && rep > 0 {
				continue // a solve per spec is enough; they are the slow ones
			}
			clear(nw.h)
			t0 := time.Now()
			tw.cached.ServeHTTP(nw, reqs[i])
			hitUs = append(hitUs, usSince(t0))
			clear(nw.h)
			t0 = time.Now()
			tw.direct.ServeHTTP(nw, reqs[i])
			missUs = append(missUs, usSince(t0))
			t0 = time.Now()
			if err := q.direct(ctx, tw.eng); err != nil {
				return fmt.Errorf("twin %s: %w", q.path, err)
			}
			if q.route == "stable-clusters" {
				solveMs = append(solveMs, msSince(t0))
				continue
			}
			kwUs = append(kwUs, usSince(t0))
			t0 = time.Now()
			if _, err := idx.Search([]string{q.keyword}, q.interval); err != nil {
				return err
			}
			searchUs = append(searchUs, usSince(t0))
			t0 = time.Now()
			if _, err := idx.TimeSeries(q.keyword); err != nil {
				return err
			}
			tsUs = append(tsUs, usSince(t0))
		}
	}
	// Hit and miss are timed side by side here so that they compare.
	layers["server.handler_hit_us_p50"] = median(hitUs)
	layers["server.handler_miss_us_p50"] = median(missUs)
	layers["engine.keyword_query_us_p50"] = median(kwUs)
	layers["engine.solve_ms_p50"] = median(solveMs)
	layers["index.search_us_p50"] = median(searchUs)
	layers["index.timeseries_us_p50"] = median(tsUs)

	// Allocations of one cache hit inside the handler.
	const n = 2000
	h0 := selfHeap()
	for i := 0; i < n; i++ {
		clear(nw.h)
		tw.cached.ServeHTTP(nw, reqs[i%len(reqs)])
	}
	layers["server.allocs_per_hit"] = float64(selfHeap().mallocs-h0.mallocs) / n
	return nil
}
