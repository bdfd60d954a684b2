package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

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
