package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/clustergraph"
	"repro/internal/synth"
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

// TestNormalizedFloorStartMatchesBrute holds normalized to the
// exhaustive oracle, exactly, on 120 synthetic graphs of 5 intervals of
// 20 nodes at lmin 1, 2 and m−1. Each run starts at a floor, the larger
// of the suffix bound's F for its length and the global heap's k-th
// stability times the length; k 25, above the 20 nodes that start a
// full path, reaches runs where F = −Inf and fewer than k paths have
// the length.
func TestNormalizedFloorStartMatchesBrute(t *testing.T) {
	const m = 5
	for gap := 0; gap <= 2; gap++ {
		for seed := int64(1); seed <= 40; seed++ {
			g, err := synth.Generate(synth.Config{Seed: seed, M: m, N: 20, D: 3, G: gap})
			if err != nil {
				t.Fatal(err)
			}
			for _, lmin := range []int{1, 2, m - 1} {
				for _, k := range []int{1, 3, 5, 10, 25} {
					checkNormalizedAgainstBrute(t, g, k, lmin)
				}
			}
		}
	}
}
