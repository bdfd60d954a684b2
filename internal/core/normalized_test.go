package core

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/synth"
)

// TestTheorem1 verifies the theorem exactly as the paper states it — a
// conditional: if stability(pre) <= stability(curr), then for any
// suffix, stability(pre·curr) <= stability(pre·curr·suff) IMPLIES
// stability(pre·curr·suff) <= stability(curr·suff). The antecedent
// matters: suffixes that worsen the combined path are not covered,
// which is why the derived pruning preserves the top-1 value but not
// necessarily deeper ranks (see Request.DisableTheorem1Pruning).
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

// Exact mode (Theorem 1 pruning disabled) must agree with exhaustive
// enumeration for every k; paper mode must (a) be exact for k = 1,
// (b) report the exact top-1 value for any k, and (c) never report a
// rank above the exact answer.
func TestNormalizedMatchesBrute(t *testing.T) {
	seed := int64(300)
	for _, m := range []int{3, 4, 5} {
		for _, g := range []int{0, 1, 2} {
			for _, lmin := range []int{1, 2, m - 1} {
				if lmin <= 0 || lmin > m-1 {
					continue
				}
				for _, k := range []int{1, 3} {
					seed++
					cg, err := synth.Generate(synth.Config{Seed: seed, M: m, N: 5, D: 2, G: g})
					if err != nil {
						t.Fatal(err)
					}
					want, err := solve(cg, Request{Algorithm: "brute-normalized", K: k, LMin: lmin})
					if err != nil {
						t.Fatal(err)
					}
					exact, err := solve(cg, Request{Algorithm: "normalized", K: k, LMin: lmin, DisableTheorem1Pruning: true})
					if err != nil {
						t.Fatal(err)
					}
					if !weightsAlmostEqual(exact.Weights(), want.Weights()) {
						t.Errorf("m=%d g=%d lmin=%d k=%d seed=%d: exact normalized %v != brute %v",
							m, g, lmin, k, seed, exact.Weights(), want.Weights())
					}
					paper, err := solve(cg, Request{Algorithm: "normalized", K: k, LMin: lmin})
					if err != nil {
						t.Fatal(err)
					}
					pw, ww := paper.Weights(), want.Weights()
					if len(pw) > 0 && len(ww) > 0 && !almostEqual(pw[0], ww[0]) {
						t.Errorf("m=%d g=%d lmin=%d k=%d seed=%d: paper-mode top-1 %g != brute %g",
							m, g, lmin, k, seed, pw[0], ww[0])
					}
					if k == 1 && !weightsAlmostEqual(pw, ww) {
						t.Errorf("m=%d g=%d lmin=%d seed=%d: paper-mode k=1 %v != brute %v",
							m, g, lmin, seed, pw, ww)
					}
					for i := range pw {
						if i < len(ww) && pw[i] > ww[i]+eps {
							t.Errorf("m=%d g=%d lmin=%d k=%d seed=%d: paper-mode rank %d (%g) above brute (%g)",
								m, g, lmin, k, seed, i, pw[i], ww[i])
						}
					}
				}
			}
		}
	}
}

// Theorem 1 pruning must actually fire on graphs with weak prefixes.
func TestNormalizedPruningReducesState(t *testing.T) {
	g, err := synth.Generate(synth.Config{Seed: 77, M: 8, N: 12, D: 3, G: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solve(g, Request{Algorithm: "normalized", K: 5, LMin: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PeakStatePaths == 0 {
		t.Error("no state tracked")
	}
	// Sanity: stabilities are within (0, 1] for weights in (0,1].
	for _, p := range res.Paths {
		if p.Weight <= 0 || p.Weight > 1+eps {
			t.Errorf("stability %g outside (0,1]", p.Weight)
		}
	}
}

// With suffix dominance enabled, results may deviate from exact (the
// rule the paper sketches is aggressive); the run must still complete
// and produce plausible output.
func TestNormalizedSuffixDominanceRuns(t *testing.T) {
	g, err := synth.Generate(synth.Config{Seed: 12, M: 5, N: 6, D: 2, G: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solve(g, Request{Algorithm: "normalized", K: 3, LMin: 2, SuffixDominance: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Paths {
		if p.Length < 2 {
			t.Errorf("path %v shorter than lmin", p)
		}
		if math.IsNaN(p.Weight) {
			t.Errorf("NaN stability in %v", p)
		}
	}
}

func TestNormalizedBeam(t *testing.T) {
	if _, err := solve(nil, Request{Algorithm: "normalized", K: 1, LMin: 1, BeamWidth: -1}); err == nil {
		t.Error("negative beam accepted")
	}
	seed := int64(900)
	for trial := 0; trial < 10; trial++ {
		seed++
		g, err := synth.Generate(synth.Config{Seed: seed, M: 6, N: 8, D: 2, G: 0})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := solve(g, Request{Algorithm: "normalized", K: 3, LMin: 2, DisableTheorem1Pruning: true})
		if err != nil {
			t.Fatal(err)
		}
		beam, err := solve(g, Request{Algorithm: "normalized", K: 3, LMin: 2, BeamWidth: 3})
		if err != nil {
			t.Fatal(err)
		}
		// The beam is an approximation: every reported path must be a
		// real path (stability never above the exact answer at the same
		// rank) and respect lmin.
		ew := exact.Weights()
		for i, p := range beam.Paths {
			if p.Length < 2 {
				t.Errorf("seed %d: beam path %v below lmin", seed, p)
			}
			if i < len(ew) && p.Weight > ew[i]+eps {
				t.Errorf("seed %d: beam rank %d (%g) above exact (%g)", seed, i, p.Weight, ew[i])
			}
		}
		// The beam must hold per-node state well below the exact run on
		// graphs big enough to show a difference.
		if beam.Stats.PeakStatePaths > exact.Stats.PeakStatePaths {
			t.Errorf("seed %d: beam peak %d above exact %d", seed, beam.Stats.PeakStatePaths, exact.Stats.PeakStatePaths)
		}
	}
}

func TestPruneTheorem1DropsWeakPrefix(t *testing.T) {
	// Construct a concrete path on Figure 5 with a weak prefix:
	// c12(0.1)c22(0.9)c33 with lmin=1. The prefix c12c22 (stability
	// 0.1) is dominated by the suffix c22c33 (stability 0.9) once the
	// suffix alone satisfies lmin.
	g, ids := synth.Figure5()
	r := &normRun{g: g, lmin: 1}
	r.nodes = []int64{ids[0][1], ids[1][1], ids[2][2]}
	r.hop = []float64{0, 0.1, 0.9}
	from, weight, length := r.pruneTheorem1(1.0, 2)
	if from != 1 {
		t.Errorf("pruned = %v, want suffix c22c33", r.nodes[from:])
	}
	if !almostEqual(weight, 0.9) || length != 1 {
		t.Errorf("pruned weight/length = %g/%d, want 0.9/1", weight, length)
	}
	// With lmin=2 the suffix is too short to stand alone: no pruning.
	r.lmin = 2
	if from, _, _ := r.pruneTheorem1(1.0, 2); from != 0 {
		t.Errorf("lmin=2 pruned to %v, want untouched", r.nodes[from:])
	}
}

// signature is the comma-joined decimal rendering bestpaths used to be
// keyed and ordered by; compareSignature must order sequences the same
// way without building it.
func signature(nodes []int64) string {
	var b strings.Builder
	for i, n := range nodes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(n, 10))
	}
	return b.String()
}

func TestCompareSignatureIsStringOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draw := func() []int64 {
		nodes := make([]int64, 1+rng.Intn(4))
		for i := range nodes {
			// Mixed digit counts, with repeats across draws.
			nodes[i] = rng.Int63n([]int64{3, 30, 1200, 1 << 40}[rng.Intn(4)])
		}
		return nodes
	}
	for i := 0; i < 20000; i++ {
		a, b := draw(), draw()
		if got, want := compareSignature(a, b), strings.Compare(signature(a), signature(b)); got != want {
			t.Fatalf("compareSignature(%v, %v) = %d, string order says %d", a, b, got, want)
		}
	}
}
