package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustergraph"
	"repro/internal/synth"
)

// TestSolveIndexWarmEqualsCold holds a solve on a graph whose solve
// index other requests built to the same Result, Paths and Stats, as the
// solve on a fresh graph: visiting the requests shallow l first (a
// deeper suffix table replaces the shallower one) and deep l first (a
// shallow solve reads the deeper table), and from 8 goroutines that mix
// algorithms and lengths on one fresh graph, which under -race also
// checks that the index is built and published safely.
func TestSolveIndexWarmEqualsCold(t *testing.T) {
	type maker struct {
		name  string
		fresh func(t *testing.T) *clustergraph.Graph
	}
	var makers []maker
	for seed := int64(0); seed < 3; seed++ {
		cfg := synth.Config{Seed: 900 + seed, M: 6, N: 8, D: 3, G: int(seed)}
		makers = append(makers, maker{fmt.Sprintf("synth%d", seed), func(t *testing.T) *clustergraph.Graph {
			g, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}})
	}
	for gap := 0; gap <= 2; gap++ {
		makers = append(makers, maker{fmt.Sprintf("tie%d", gap), func(t *testing.T) *clustergraph.Graph {
			return tieGraph(t, int64(500+gap), 5, 5, gap)
		}})
	}
	for _, mk := range makers {
		t.Run(mk.name, func(t *testing.T) {
			m := mk.fresh(t).NumIntervals()
			var reqs []Request
			for _, l := range []int{1, 2, m - 1} {
				algos := []string{"bfs", "dfs"}
				if l == m-1 {
					algos = append(algos, "ta")
				}
				for _, algo := range algos {
					for _, k := range []int{1, 5, 40} {
						reqs = append(reqs, Request{Algorithm: algo, K: k, L: l})
					}
				}
			}
			cold := make([]*Result, len(reqs))
			for i, req := range reqs {
				res, err := solve(mk.fresh(t), req)
				if err != nil {
					t.Fatal(err)
				}
				cold[i] = res
			}
			check := func(how string, i int, g *clustergraph.Graph) {
				got, err := solve(g, reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, cold[i]) {
					t.Errorf("%s, %+v: warm %+v\ncold %+v", how, reqs[i], got, cold[i])
				}
			}
			g := mk.fresh(t)
			for i := range reqs {
				check("shallow l first", i, g)
			}
			g = mk.fresh(t)
			for i := len(reqs) - 1; i >= 0; i-- {
				check("deep l first", i, g)
			}
			g = mk.fresh(t)
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := range reqs {
						check(fmt.Sprintf("goroutine %d", w), (j+3*w)%len(reqs), g)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestStartOrderConcurrentFirstSolves starts every solve of one fresh
// graph at once — bfs, dfs, ta and normalized at l (lmin) 1, 2, 3 and
// full paths, k 1, 5 and 40 — so that the first requests for each
// length's start order race to build it; under -race this also checks
// that it is published safely. Each must return what it returns alone
// on a fresh graph. The second half pushes an interval onto that graph,
// whose start orders are all built by then: a graph from ExtendCtx
// starts with none, so solves on it, run while solves on the old
// generation still read theirs, must equal solves on the one-shot build
// over the same sets.
func TestStartOrderConcurrentFirstSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	vocab := strings.Fields("a b c d e f g h i j")
	sets := make([][]cluster.Cluster, 7)
	for i := range sets {
		for range 5 + rng.Intn(4) {
			var kws []string
			for _, w := range vocab {
				if rng.Intn(3) == 0 {
					kws = append(kws, w)
				}
			}
			sets[i] = append(sets[i], cluster.New(0, i, append(kws, vocab[rng.Intn(len(vocab))])))
		}
	}
	opts := clustergraph.FromClustersOptions{Gap: 1, Theta: 0.2}
	build := func(m int) *clustergraph.Graph {
		g, err := clustergraph.FromClustersCtx(context.Background(), sets[:m], opts)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	requests := func(m int) []Request {
		var reqs []Request
		for _, l := range []int{1, 2, 3, FullPaths} {
			lmin := l
			if l == FullPaths {
				lmin = m - 1
			}
			for _, k := range []int{1, 5, 40} {
				reqs = append(reqs,
					Request{Algorithm: "bfs", K: k, L: l},
					Request{Algorithm: "dfs", K: k, L: l},
					Request{Algorithm: "normalized", K: k, LMin: lmin})
				if l == FullPaths {
					reqs = append(reqs, Request{Algorithm: "ta", K: k, L: l})
				}
			}
		}
		return reqs
	}
	alone := func(m int, reqs []Request) []*Result {
		want := make([]*Result, len(reqs))
		for i, req := range reqs {
			res, err := solve(build(m), req)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		return want
	}
	// all solves reqs on g at once, each checked against want.
	all := func(wg *sync.WaitGroup, how string, g *clustergraph.Graph, reqs []Request, want []*Result) {
		start := make(chan struct{})
		for i, req := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, err := solve(g, req)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s, %+v: %+v\nalone %+v", how, req, got, want[i])
				}
			}()
		}
		close(start)
	}
	const m = 6
	if g := build(m); g.NumEdges() < 4*g.NumNodes() {
		t.Fatalf("%d nodes, %d edges: too sparse to exercise the solvers", g.NumNodes(), g.NumEdges())
	}
	oldReqs, newReqs := requests(m), requests(m+1)
	oldWant, newWant := alone(m, oldReqs), alone(m+1, newReqs)
	var wg sync.WaitGroup
	old := build(m)
	all(&wg, "first solves", old, oldReqs, oldWant)
	wg.Wait()

	// Every start order of the old graph is built now.
	all(&wg, "old generation", old, oldReqs, oldWant)
	pushed, err := clustergraph.ExtendCtx(context.Background(), old, sets[:m+1], opts)
	if err != nil {
		t.Fatal(err)
	}
	all(&wg, "after a push", pushed, newReqs, newWant)
	wg.Wait()
}
