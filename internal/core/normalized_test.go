package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/clustergraph"
	"repro/internal/synth"
	"repro/internal/topk"
)

// TestTheorem1 verifies the theorem exactly as the paper states it — a
// conditional: if stability(pre) <= stability(curr), then for any
// suffix, stability(pre·curr) <= stability(pre·curr·suff) IMPLIES
// stability(pre·curr·suff) <= stability(curr·suff). The antecedent
// matters: suffixes that worsen the combined path are not covered,
// which is why a prefix drop derived from it keeps the top-1 value but
// not necessarily deeper ranks.
func TestTheorem1(t *testing.T) {
	for wp := 0.1; wp <= 2.0; wp += 0.3 {
		for np := 1; np <= 4; np++ {
			for wc := 0.1; wc <= 2.0; wc += 0.3 {
				for nc := 1; nc <= 4; nc++ {
					if wp/float64(np) > wc/float64(nc) {
						continue // hypothesis not met
					}
					for ws := 0.0; ws <= 2.0; ws += 0.4 {
						for ns := 1; ns <= 3; ns++ {
							full := (wp + wc + ws) / float64(np+nc+ns)
							precurr := (wp + wc) / float64(np+nc)
							if full < precurr-eps {
								continue // antecedent not met
							}
							rhs := (wc + ws) / float64(nc+ns)
							if full > rhs+eps {
								t.Fatalf("Theorem 1 violated: pre=(%g,%d) curr=(%g,%d) suff=(%g,%d): %g > %g",
									wp, np, wc, nc, ws, ns, full, rhs)
							}
						}
					}
				}
			}
		}
	}
}

// TestTheorem1AntecedentMatters documents why the prefix drop is not a
// blanket dominance rule: with a sufficiently poor suffix the pruned
// path can beat its prefix-less counterpart.
func TestTheorem1AntecedentMatters(t *testing.T) {
	// pre = (0.1, 1), curr = (0.1, 1), suff = (0.01, 1):
	// stability(pre) = stability(curr) = 0.1, so the pruning condition
	// fires, yet pre·curr·suff = 0.21/3 = 0.07 > curr·suff = 0.11/2 = 0.055.
	full := 0.21 / 3
	currSuff := 0.11 / 2
	if full <= currSuff {
		t.Fatal("expected the counterexample to hold; arithmetic wrong")
	}
}

func TestNormalizedOnFigure5(t *testing.T) {
	g, ids := synth.Figure5()
	// lmin = 2: candidates are all length-2 paths; the most stable is
	// c13c22c33 with stability 1.7/2 = 0.85.
	res, err := solve(g, Request{Algorithm: "normalized", K: 1, LMin: 2})
	if err != nil {
		t.Fatalf("NormalizedBFS: %v", err)
	}
	if len(res.Paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(res.Paths))
	}
	p := res.Paths[0]
	if !almostEqual(p.Weight, 0.85) {
		t.Errorf("stability = %g, want 0.85", p.Weight)
	}
	want := []int64{ids[0][2], ids[1][1], ids[2][2]}
	if fmt.Sprint(p.Nodes) != fmt.Sprint(want) {
		t.Errorf("path = %v, want c13c22c33", p.Nodes)
	}
	// lmin = 1 admits the single heavy edge c22c33 (stability 0.9).
	res, err = solve(g, Request{Algorithm: "normalized", K: 1, LMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Paths[0].Weight, 0.9) {
		t.Errorf("lmin=1 best stability = %g, want 0.9", res.Paths[0].Weight)
	}
}

// checkNormalizedAgainstBrute requires normalized to return exactly the
// exhaustive oracle's Paths — node sequences, order and stabilities to
// the bit — at every rank.
func checkNormalizedAgainstBrute(t *testing.T, g *clustergraph.Graph, k, lmin int) {
	t.Helper()
	want, err := solve(g, Request{Algorithm: "brute-normalized", K: k, LMin: lmin})
	if err != nil {
		t.Fatal(err)
	}
	got, err := solve(g, Request{Algorithm: "normalized", K: k, LMin: lmin})
	if err != nil {
		t.Fatalf("k %d lmin %d: %v", k, lmin, err)
	}
	if !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Fatalf("k %d lmin %d: normalized returns\n%v\nbrute returns\n%v", k, lmin, got.Paths, want.Paths)
	}
}

func TestNormalizedMatchesBrute(t *testing.T) {
	seed := int64(300)
	for _, m := range []int{3, 4, 5, 6} {
		for _, gap := range []int{0, 1, 2} {
			for _, lmin := range []int{1, 2, m - 1} {
				for _, k := range []int{1, 3, 8, 40} {
					seed++
					g, err := synth.Generate(synth.Config{Seed: seed, M: m, N: 5, D: 2, G: gap})
					if err != nil {
						t.Fatal(err)
					}
					checkNormalizedAgainstBrute(t, g, k, lmin)
				}
			}
		}
	}
}

// TestNormalizedOnePassOnSolvePaperGraph pins the start at the suffix
// bound's floor F on solve_paper's normalized class (bench/solve.go: 8 ×
// 80, d 3, gap 0, generator seed 2007, k 5, lmin 3). There F/lmin is
// already λ*, so one pass settles the solve; starting at the least hop
// stability took 5 passes and 19 780 edge reads.
func TestNormalizedOnePassOnSolvePaperGraph(t *testing.T) {
	g, err := synth.Generate(synth.Config{Seed: 2007, M: 8, N: 80, D: 3, G: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solve(g, Request{Algorithm: "normalized", K: 5, LMin: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 5 {
		t.Fatalf("%d paths, want 5", len(res.Paths))
	}
	if res.Stats.Passes != 1 || res.Stats.EdgeReads > 4_000 {
		t.Errorf("%d passes and %d edge reads, want 1 and at most 4 000", res.Stats.Passes, res.Stats.EdgeReads)
	}
}

// checkTieOrder holds got, a normalized top-k, to ref, the oracle's
// ranking at least k+1 long where the graph has that many paths: the
// same number of paths, at every rank a stability within 1e-12 of ref's,
// and a path other than ref's only where ref's sits in a group of
// stabilities within 1e-12 of each other.
func checkTieOrder(t *testing.T, name string, got, ref []topk.Path, k int) {
	t.Helper()
	const tie = 1e-12
	near := func(i, j int) bool {
		return j >= 0 && j < len(ref) && math.Abs(ref[j].Weight-ref[i].Weight) <= tie
	}
	want := ref[:min(k, len(ref))]
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, oracle %d", name, len(got), len(want))
	}
	for i, p := range got {
		w := want[i]
		if math.Abs(p.Weight-w.Weight) > tie || !slices.Equal(p.Nodes, w.Nodes) && !near(i, i-1) && !near(i, i+1) {
			t.Errorf("%s rank %d: %v, oracle %v", name, i, p, w)
		}
	}
}

// TestNormalizedFloorStartMatchesBrute sweeps the start at the floor F
// against the exhaustive oracle on 120 synthetic graphs, 5 intervals of
// 20 nodes, under checkTieOrder. The sweep must reach both ways a solve
// can begin: F = −Inf, where fewer than k nodes start a path of length
// lmin and the solve starts at the least hop stability, and a finite F
// whose first pass already ran at λ*. Every synthetic node has a child
// in each interval it reaches, so F = −Inf needs k above the 20 nodes
// that start a full path: k 25 at lmin m−1.
func TestNormalizedFloorStartMatchesBrute(t *testing.T) {
	const m = 5
	lmins := []int{1, 2, m - 1}
	ks := []int{1, 3, 5, 10, 25}
	noFloor, onePass := 0, 0
	for gap := 0; gap <= 2; gap++ {
		for seed := int64(1); seed <= 40; seed++ {
			g, err := synth.Generate(synth.Config{Seed: seed, M: m, N: 20, D: 3, G: gap})
			if err != nil {
				t.Fatal(err)
			}
			for _, lmin := range lmins {
				// The oracle's top-k is a prefix of its top-26, and rank
				// k+1 shows whether rank k ends a tie group.
				ref, err := solve(g, Request{Algorithm: "brute-normalized", K: ks[len(ks)-1] + 1, LMin: lmin})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range ks {
					got, err := solve(g, Request{Algorithm: "normalized", K: k, LMin: lmin})
					if err != nil {
						t.Fatal(err)
					}
					checkTieOrder(t, fmt.Sprintf("gap %d seed %d lmin %d k %d", gap, seed, lmin, k), got.Paths, ref.Paths, k)
					if _, _, f := seedFloor(g, k, lmin); math.IsInf(f, -1) {
						noFloor++
					} else if got.Stats.Passes == 1 {
						onePass++
					}
				}
			}
		}
	}
	t.Logf("%d solves with F = -Inf, %d settled in one pass from F", noFloor, onePass)
	if noFloor == 0 || onePass == 0 {
		t.Errorf("the sweep misses a start: %d solves with F = -Inf, %d settled in one pass from F", noFloor, onePass)
	}
}
