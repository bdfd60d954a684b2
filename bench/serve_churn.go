package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	blogclusters "repro"
	"repro/internal/diskstore"
)

// serve_churn: writes beside reads. Keyword GETs range uniformly over
// the whole vocabulary and every interval — a working set far beyond
// the 1 MiB response cache and the 256 KiB block cache — stable-cluster
// GETs force, auto-plan and re-solve over a graph that grows with every
// push, and every round but the first starts with a POST /v1/push that
// invalidates each generation-keyed answer.
//
// The corpus stays at 4+4 intervals of 800 posts on purpose: on
// corpus-derived graphs the DFS and normalized solvers (which the
// planner also explores) go from tens of milliseconds at 8 intervals to
// seconds, and gigabytes, at 10-12, so a longer or denser corpus would
// measure one runaway solve. -index-compact-after 2 makes the third
// push start a compaction.
const (
	churnBase       = 4
	churnRounds     = 5
	churnPosts      = 800
	churnMaxHitRate = 0.30
	// churnSegNominalMs is one segment's time on the reference machine.
	churnSegNominalMs = 1000
)

var churnServerArgs = []string{"-gap", "1", "-index", "disk", "-indexcache", "262144", "-cache-bytes", "1048576", "-index-compact-after", "2"}

// churnStableMix is the stable-cluster part of one hundred GETs: two
// thirds name their algorithm, one third leave it to the planner. The
// count per class is fixed — a DFS or normalized solve costs several
// times a BFS one, so a mix drawn at random would move the metrics
// with the seed — and so are k (1-40) and the length (2-3), dealt by
// specDeck; the seed draws the position.
var churnStableMix = []blogclusters.QuerySpec{
	{Algorithm: "bfs"}, {Algorithm: "bfs"}, {Algorithm: "bfs"},
	{Algorithm: "dfs"}, {Algorithm: "dfs"}, {Algorithm: "dfs"},
	{Algorithm: "ta"},
	{Variant: "normalized", Algorithm: "normalized"}, {Variant: "normalized", Algorithm: "normalized"},
	{Variant: "diverse", Algorithm: "bfs", Mode: "endpoints"},
	{}, {}, {},
	{Variant: "normalized"}, {Variant: "normalized"},
}

// churnKeywordPerRoute keyword GETs go to each of the five keyword
// routes per hundred GETs.
const churnKeywordPerRoute = 17

// churnOp is one operation: a push of interval push (when push >= 0)
// or the GET q.
type churnOp struct {
	push int
	q    query
}

// specDeck deals one class's (k, length) combinations in a fixed
// order, the same on every seed, without repeating any until all have
// been dealt. Within a generation every stable-clusters URL is therefore
// new to the response cache and is solved, and every run solves the same
// specs at the same generation: a solve costs thousands of times a
// keyword GET, so a share of repeats or a draw of k that differed from
// seed to seed moved allocations per operation by 2-5% and the 95th
// percentile with them. The seed draws where in the hundred each falls.
type specDeck struct {
	cards [][2]int
	next  int
}

// newSpecDeck holds k = 1..40 with each of the given lengths.
func newSpecDeck(lengths ...int) *specDeck {
	d := &specDeck{}
	for k := 1; k <= 40; k++ {
		for _, l := range lengths {
			d.cards = append(d.cards, [2]int{k, l})
		}
	}
	rand.New(rand.NewSource(serveCorpusSeed)).Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	return d
}

func (d *specDeck) deal() (k, length int) {
	c := d.cards[d.next%len(d.cards)]
	d.next++
	return c[0], c[1]
}

// churnMix draws one hundred GETs at corpus width `width`; decks holds
// one specDeck per class of churnStableMix for the current generation.
func churnMix(rng *rand.Rand, events []string, width int, decks map[blogclusters.QuerySpec]*specDeck) []churnOp {
	var out []churnOp
	for _, class := range churnStableMix {
		if decks[class] == nil {
			if class.Algorithm == "ta" {
				decks[class] = newSpecDeck(-1) // the threshold algorithm answers full paths only
			} else {
				decks[class] = newSpecDeck(2, 3)
			}
		}
		spec := class
		k, length := decks[class].deal()
		spec.K = k
		if spec.Variant == "normalized" {
			spec.LMin = length
		} else {
			spec.L = length
		}
		out = append(out, churnOp{push: -1, q: stableQuery(spec)})
	}
	for _, route := range keywordRoutes {
		for i := 0; i < churnKeywordPerRoute; i++ {
			kw := bgWord(rng.Intn(4000))
			if n := rng.Intn(4000 + len(events)); n >= 4000 {
				kw = events[n-4000]
			}
			out = append(out, churnOp{push: -1, q: keywordQuery(route, kw, rng.Intn(width))})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// churnOpList draws every segment's operations: rounds x segsPerRound
// segments of mixes x 100 GETs; round r runs at generation r+1 over
// base+r intervals, and its first segment starts with the push.
func churnOpList(seed int64, rounds, segsPerRound, mixes int) [][]churnOp {
	rng := rand.New(rand.NewSource(seed))
	events := eventKeywords()
	var out [][]churnOp
	for r := 0; r < rounds; r++ {
		width := churnBase + r
		decks := map[blogclusters.QuerySpec]*specDeck{}
		for s := 0; s < segsPerRound; s++ {
			var seg []churnOp
			if r > 0 && s == 0 {
				seg = append(seg, churnOp{push: width - 1})
			}
			for m := 0; m < mixes; m++ {
				seg = append(seg, churnMix(rng, events, width, decks)...)
			}
			out = append(out, seg)
		}
	}
	return out
}

func churnDigest(list [][]churnOp) uint64 {
	var sb bytes.Buffer
	for _, round := range list {
		for _, op := range round {
			fmt.Fprintf(&sb, "%d %s\n", op.push, op.q.path)
		}
	}
	return digest(sb.String())
}

// churnSetup starts blogserved on the base intervals and warms every
// stage artifact: one query per route, and a solve so the cluster sets
// and the graph exist before the first push has to extend them.
func churnSetup(rc *runCtx, env *serveEnv, chk *checker) (*session, error) {
	s, err := openSession(rc, env, 1, churnServerArgs...)
	if err != nil {
		return nil, err
	}
	warm := []query{stableQuery(blogclusters.QuerySpec{Algorithm: "bfs", K: 5, L: 2})}
	for _, route := range keywordRoutes {
		warm = append(warm, keywordQuery(route, "somalia", 0))
	}
	for _, q := range warm {
		r, err := s.ks[0].get(q.path)
		if err != nil {
			s.close()
			return nil, err
		}
		if gen, err := envelopeGeneration(r.body); r.status != 200 || err != nil || gen != 1 {
			chk.failf("warm-up %s: status %d generation %d: %v", q.path, r.status, gen, err)
		}
	}
	return s, nil
}

func runServeChurn(rc *runCtx) (*result, error) {
	ctx := context.Background()
	chk := &checker{}
	posts, rounds, mixes := churnPosts, churnRounds, 4
	if rc.quick {
		posts, rounds, mixes = 150, 4, 1
	}
	segsPerRound := max(rc.segments(churnSegNominalMs)/rounds, 1)
	env, err := newServeEnv(rc, churnBase+rounds-1, churnBase, posts)
	if err != nil {
		return nil, err
	}
	list := churnOpList(rc.seed, rounds, segsPerRound, mixes)
	bodies := map[int][]byte{}
	for r := 1; r < rounds; r++ {
		iv := env.col.Intervals[churnBase+r-1]
		if bodies[iv.Index], err = pushBody(iv); err != nil {
			return nil, err
		}
	}
	env.col = nil // the bodies are all the harness still needs

	var sess *session
	if err := rc.setUp(func() (err error) {
		sess, err = churnSetup(rc, env, chk)
		return err
	}, func() { sess.close() }); err != nil {
		return nil, err
	}
	k := sess.ks[0]

	var tw *twin
	if rc.trace {
		if tw, err = newTwin(ctx, env.input, 1<<20,
			blogclusters.WithGraphOptions(blogclusters.GraphOptions{Gap: 1}),
			blogclusters.WithIndexOptions(blogclusters.IndexOptions{Backend: "disk", MemBudget: 262144, CompactAfter: 2})); err != nil {
			return nil, err
		}
		defer tw.eng.Close()
		if err := stableQuery(blogclusters.QuerySpec{Algorithm: "bfs", K: 5, L: 2}).direct(ctx, tw.eng); err != nil {
			return nil, err
		}
	}
	tl := &churnLayers{}

	st0, err := sess.c.stats()
	if err != nil {
		return nil, err
	}
	hits, getsDone, respBytes := 0, 0, 0
	var orphaned []float64 // generation-keyed answers each push leaves behind
	var segs []segmentFunc
	for si, seg := range list {
		r := si / segsPerRound
		traced := rc.trace && si%2 == 1
		gen := int64(r + 1)
		segs = append(segs, func(log *opLog) {
			genKeyed := map[string]bool{}
			for _, op := range seg {
				var end func()
				if traced {
					rc.rec.beginOp()
					end = rc.rec.begin("server.socket")
				}
				t0 := time.Now()
				var rep reply
				var err error
				if op.push >= 0 {
					rep, err = k.post("/v1/push", bodies[op.push])
				} else {
					rep, err = k.get(op.q.path)
				}
				d := time.Since(t0)
				log.add(ms(d))
				if traced {
					end()
				}
				if err != nil {
					chk.failf("round %d %s: %v", r, op.q.path, err)
					return // the connection is gone
				}
				if got, err := envelopeGeneration(rep.body); rep.status != 200 || err != nil ||
					(got != gen && !(got < gen && rep.xcache == "hit" && intervalScoped(op.q.route))) {
					chk.failf("round %d push=%d %s: status %d, wrong generation or undecodable: %.80q", r, op.push, op.q.path, rep.status, rep.body)
				}
				if op.push >= 0 {
					if tw != nil {
						rc.pause(func() {
							if err := tw.push(ctx, bodies[op.push]); err != nil {
								chk.failf("%v", err)
							}
							if ev := tw.events["push"]; traced && len(ev) > 0 {
								rc.rec.nest([]string{"engine.push"}, []time.Duration{time.Duration(ev[len(ev)-1] * 1e6)})
							}
						})
					}
					continue
				}
				getsDone++
				respBytes += len(rep.body)
				if rep.xcache == "hit" {
					hits++
				} else if !intervalScoped(op.q.route) {
					genKeyed[op.q.path] = true
				}
				if traced {
					tl.socketUs = append(tl.socketUs, float64(d)/1e3)
					if rep.xcache != "hit" {
						rc.pause(func() {
							if err := tl.probe(ctx, rc.rec, tw, op.q); err != nil {
								chk.failf("twin %s: %v", op.q.path, err)
							}
						})
					}
				}
			}
			orphaned = append(orphaned, float64(len(genKeyed)))
		})
	}
	m, err := measure(rc, sess.c, segs)
	if err != nil {
		return nil, err
	}

	// Validity guards: the run must have been the churn it claims to be.
	st1, err := sess.c.stats()
	if err != nil {
		return nil, err
	}
	if share := float64(hits) / float64(getsDone); share > churnMaxHitRate {
		chk.failf("response-cache hit share %.3f above %.2f: the working set fits the cache", share, churnMaxHitRate)
	}
	if st1.Generation != int64(rounds) {
		chk.failf("final generation %d, want %d", st1.Generation, rounds)
	}
	if st1.Engine.IndexIO.RandomReads-st0.Engine.IndexIO.RandomReads <= 0 {
		chk.failf("no index random reads: postings never came from disk")
	}
	if rounds-1 >= 3 && st1.Engine.IndexCompactions < 1 {
		chk.failf("no compaction after %d pushes", rounds-1)
	}

	r := &result{m: m, chk: chk, opDigest: churnDigest(list)}
	if rc.trace {
		r.layers = map[string]float64{
			"server.roundtrip_us_p50":           median(tl.socketUs),
			"server.handler_miss_us_p50":        median(tl.handlerUs),
			"server.socket_self_us":             median(tl.socketUs) - median(tl.handlerUs),
			"server.handler_self_us":            median(tl.handlerUs) - median(tl.engineUs),
			"server.response_bytes_per_op":      float64(respBytes) / float64(getsDone),
			"server.gc_pause_ms_total":          float64(m.heap.pauseNs) / 1e6,
			"server.cache_invalidated_per_push": sum(orphaned[:len(orphaned)-segsPerRound]) / float64(rounds-1),
			"engine.keyword_query_us_p50":       median(tl.keywordUs),
			"engine.solve_ms_p50":               median(tl.solveMs),
			"engine.push_ms_p50":                median(tw.events["push"]),
			"clustergraph.extend_ms_per_push":   median(tw.events["graph-extend"]),
			"index.compact_ms":                  median(tw.events["compact"]),
			"index.search_us_p50":               median(tl.searchUs),
			"index.timeseries_us_p50":           median(tl.tsUs),
			"harness.build_binary_s":            env.buildS,
		}
		if n := len(tl.searchUs); n > 0 {
			r.layers["index.random_reads_per_search"] = float64(tl.searchReads) / float64(n)
		}
		var delta []float64
		for i, p := range tw.events["push"] {
			if i < len(tw.events["interval-clusters"]) && i < len(tw.events["graph-extend"]) {
				delta = append(delta, p-tw.events["interval-clusters"][i]-tw.events["graph-extend"][i])
			}
		}
		r.layers["index.push_delta_ms"] = median(delta)
		serverCounters(r.layers, sess.c, st0, st1)
		if r.layers["plan.overhead_us"], err = planOverhead(ctx, tw.eng); err != nil {
			return nil, err
		}
		r.traceOverhead()
	}
	return r, nil
}

// churnLayers collects what the traced rounds time on the twin.
type churnLayers struct {
	socketUs, handlerUs, engineUs      []float64
	keywordUs, solveMs, searchUs, tsUs []float64
	searchReads                        int64
}

// probe issues a missed query's two inner forms on the twin — handler
// with the cache off, then the Engine method, then (for the index
// routes) the index primitive — and nests their durations inside the
// socket span: socket ⊃ handler ⊃ engine ⊃ index.
func (tl *churnLayers) probe(ctx context.Context, rec *recorder, tw *twin, q query) error {
	t0 := time.Now()
	status, err := tw.serve(tw.direct, q.path)
	handler := time.Since(t0)
	if err != nil || status != 200 {
		return fmt.Errorf("handler status %d: %v", status, err)
	}
	t0 = time.Now()
	if err := q.direct(ctx, tw.eng); err != nil {
		return err
	}
	engine := time.Since(t0)
	var index time.Duration
	if q.route == "search" || q.route == "timeseries" {
		idx, err := tw.eng.Index(ctx)
		if err != nil {
			return err
		}
		io, _ := idx.(interface{ Stats() diskstore.IOStats })
		var r0 int64
		if io != nil {
			r0 = io.Stats().RandomReads
		}
		t0 = time.Now()
		if q.route == "search" {
			_, err = idx.Search([]string{q.keyword}, q.interval)
		} else {
			_, err = idx.TimeSeries(q.keyword)
		}
		index = time.Since(t0)
		if err != nil {
			return err
		}
		if q.route == "search" {
			tl.searchUs = append(tl.searchUs, float64(index)/1e3)
			if io != nil {
				tl.searchReads += io.Stats().RandomReads - r0
			}
		} else {
			tl.tsUs = append(tl.tsUs, float64(index)/1e3)
		}
	}
	tl.handlerUs = append(tl.handlerUs, float64(handler)/1e3)
	tl.engineUs = append(tl.engineUs, float64(engine)/1e3)
	engineName := "engine.query"
	if q.route == "stable-clusters" {
		engineName = "engine.solve"
		tl.solveMs = append(tl.solveMs, ms(engine))
	} else {
		tl.keywordUs = append(tl.keywordUs, float64(engine)/1e3)
	}
	rec.nest([]string{"server.handler", engineName, "index.read"}, []time.Duration{handler, engine, index})
	return nil
}

// planOverhead is the planner's cost on a warm plan cache: an auto
// query's time minus the same algorithm forced, in microseconds.
func planOverhead(ctx context.Context, e *blogclusters.Engine) (float64, error) {
	auto := blogclusters.QuerySpec{K: 5, L: 3}
	timeIt := func(spec blogclusters.QuerySpec, n int) (float64, error) {
		var us []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if _, err := e.Solve(ctx, spec); err != nil {
				return 0, err
			}
			us = append(us, usSince(t0))
		}
		return median(us[n/2:]), nil // the first half warms the plan cache
	}
	before := e.Stats().Planner.ByAlgorithm
	a, err := timeIt(auto, 8)
	if err != nil {
		return 0, err
	}
	chosen, most := "", int64(0)
	for algo, n := range e.Stats().Planner.ByAlgorithm {
		if d := n - before[algo]; d > most {
			chosen, most = algo, d
		}
	}
	forced := auto
	forced.Algorithm = chosen
	f, err := timeIt(forced, 8)
	if err != nil {
		return 0, err
	}
	return a - f, nil
}
