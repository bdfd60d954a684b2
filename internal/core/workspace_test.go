package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"repro/internal/clustergraph"
	"repro/internal/synth"
)

// cancelAt is a context that reports itself cancelled from its n-th
// Done call on, so that a solve stops partway at a fixed point.
type cancelAt struct {
	context.Context
	n int
}

var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func (c *cancelAt) Done() <-chan struct{} {
	if c.n--; c.n <= 0 {
		return closedDone
	}
	return nil
}

func (c *cancelAt) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// reuseCase is one solve of the sequence; cancelAt > 0 cancels it at
// that Done call.
type reuseCase struct {
	g        *clustergraph.Graph
	name     string
	req      Request
	cancelAt int
}

func (c reuseCase) solve() (*Result, error) {
	ctx := context.Background()
	if c.cancelAt > 0 {
		ctx = &cancelAt{Context: ctx, n: c.cancelAt}
	}
	return Solve(ctx, c.g, c.req)
}

// reuseSequence returns a fixed, shuffled sequence of solves over
// synthetic graphs of several sizes: bfs, dfs, normalized and diverse,
// at k 1, 5 and 40 and every length from 1 to full paths, plus two
// solves cancelled partway.
func reuseSequence(t *testing.T) []reuseCase {
	var cases []reuseCase
	for _, cfg := range []synth.Config{
		{Seed: 11, M: 4, N: 20, D: 2, G: 0},
		{Seed: 12, M: 6, N: 60, D: 3, G: 1},
		{Seed: 13, M: 8, N: 150, D: 3, G: 2},
	} {
		g, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := cfg.M
		for _, k := range []int{1, 5, 40} {
			for l := 1; l < m; l++ {
				L := l
				if l == m-1 {
					L = FullPaths
				}
				for _, req := range []Request{
					{Algorithm: "bfs", K: k, L: L},
					{Algorithm: "dfs", K: k, L: L},
					{Algorithm: "normalized", K: k, LMin: l},
					{Variant: VariantDiverse, Algorithm: "bfs", Mode: "endpoints", K: k, L: L},
				} {
					name := fmt.Sprintf("%dx%d/%s%s/k%d/l%d", m, cfg.N, req.Variant, req.Algorithm, k, l)
					cases = append(cases, reuseCase{g: g, name: name, req: req})
				}
			}
		}
		if m == 8 {
			cases = append(cases,
				reuseCase{g: g, name: "cancelled bfs", req: Request{Algorithm: "bfs", K: 40, L: 3}, cancelAt: 4},
				reuseCase{g: g, name: "cancelled normalized", req: Request{Algorithm: "normalized", K: 40, LMin: 2}, cancelAt: 20})
		}
	}
	rng := rand.New(rand.NewPCG(2007, 53))
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases
}

// TestSolveStateReuseMatchesFresh holds a solve in the spare workspace,
// which the solves before it left at other sizes and values, to the same
// solve in a fresh workspace, at every step of a shuffled sequence of
// solves and then with four goroutines running the sequence at once.
// The fresh answers are solved right after the spare is taken and
// dropped. A cancelled solve gives its half-used
// workspace back, so it must not leak into the next one either.
func TestSolveStateReuseMatchesFresh(t *testing.T) {
	cases := reuseSequence(t)
	type answer struct {
		res *Result
		err error
	}
	fresh := make([]answer, len(cases))
	for i, c := range cases {
		takeWorkspace() // drop the spare: this solve makes a fresh one
		res, err := c.solve()
		if c.cancelAt > 0 {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err %v, want context.Canceled", c.name, err)
			}
		} else if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fresh[i] = answer{res, err}
	}
	run := func(who string) error {
		for i, c := range cases {
			res, err := c.solve()
			if !errors.Is(err, fresh[i].err) || !reflect.DeepEqual(res, fresh[i].res) {
				return fmt.Errorf("%s: step %d, %s: reused workspace gives %+v (err %v), fresh %+v (err %v)",
					who, i, c.name, res, err, fresh[i].res, fresh[i].err)
			}
		}
		return nil
	}
	if err := run("sequence"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(fmt.Sprintf("goroutine %d", i))
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}
