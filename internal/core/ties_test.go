package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustergraph"
	"repro/internal/topk"
)

// Corpus graphs carry Jaccard weights, so exact weight ties are the
// production norm, while the fuzz and equivalence suites draw random
// floats (no ties) and compare weights only. These graphs draw every
// edge weight from {0.25, 0.5, 0.75, 1}: sums are exact in binary, so
// many paths tie to the bit and the answer is decided by the
// lexicographic half of topk.Better. Every solver must return its
// oracle's Paths exactly — node sequences and order, not just weights.

var tieWeights = []float64{0.25, 0.5, 0.75, 1}

// tieGraph builds an m-interval graph with n nodes per interval; every
// node gets 1–3 distinct targets in each interval within gap+1.
func tieGraph(t *testing.T, seed int64, m, n, gap int) *clustergraph.Graph {
	t.Helper()
	return scaledTieGraph(t, seed, m, n, gap, 1)
}

// scaledTieGraph is tieGraph with every weight multiplied by scale and
// left unnormalized.
func scaledTieGraph(t *testing.T, seed int64, m, n, gap int, scale float64) *clustergraph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := clustergraph.NewBuilder(m, gap)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([][]int64, m)
	for i := range ids {
		for j := 0; j < n; j++ {
			id, err := b.AddNode(i, cluster.Cluster{})
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = append(ids[i], id)
		}
	}
	for i := 0; i < m; i++ {
		for dist := 1; dist <= gap+1 && i+dist < m; dist++ {
			for _, u := range ids[i] {
				for _, j := range rng.Perm(n)[:1+rng.Intn(3)] {
					if err := b.AddEdge(u, ids[i+dist][j], scale*tieWeights[rng.Intn(len(tieWeights))]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return b.Build()
}

func TestTieHeavyMatchesBruteExactly(t *testing.T) {
	const m, n = 5, 5
	for gap := 0; gap <= 2; gap++ {
		g := tieGraph(t, int64(500+gap), m, n, gap)
		for _, l := range []int{2, m - 1} {
			all, err := solve(g, Request{Algorithm: "brute", K: 1 << 14, L: l})
			if err != nil {
				t.Fatal(err)
			}
			// k runs from 1 to one past the first group of bit-equal
			// weights, and past every path.
			end := firstTieGroupEnd(all.Paths)
			if end == 0 {
				t.Fatalf("gap %d l %d: no tied weights; the graph does not exercise tie-breaking", gap, l)
			}
			t.Logf("gap %d l %d: %d paths, first tied group ends at rank %d", gap, l, len(all.Paths), end+1)
			ks := []int{len(all.Paths) + 1}
			for k := 1; k <= end+2; k++ {
				ks = append(ks, k)
			}
			for _, k := range ks {
				want := all.Paths[:min(k, len(all.Paths))]
				algos := []string{"bfs", "dfs"}
				if l == m-1 {
					algos = append(algos, "ta")
				}
				for _, algo := range algos {
					got, err := solve(g, Request{Algorithm: algo, K: k, L: l})
					if err != nil {
						t.Fatalf("gap %d l %d k %d %s: %v", gap, l, k, algo, err)
					}
					if !reflect.DeepEqual(got.Paths, want) {
						t.Errorf("gap %d l %d k %d: %s returns\n%v\nbrute returns\n%v", gap, l, k, algo, got.Paths, want)
					}
				}
			}
		}
	}
}

// DFS prunes on the exact suffix bound, which holds for any weights, so
// it needs no (0,1] range: with the tie graphs' weights tripled
// ({0.75, 1.5, 2.25, 3}, still exact in binary) and left unnormalized,
// it must return brute's Paths exactly at every k the table above tries.
func TestDFSAcceptsUnnormalizedWeights(t *testing.T) {
	const m, n = 5, 5
	for gap := 0; gap <= 2; gap++ {
		g := scaledTieGraph(t, int64(500+gap), m, n, gap, 3)
		if g.MaxWeight() <= 1 {
			t.Fatalf("gap %d: max weight %g; the graph does not leave (0,1]", gap, g.MaxWeight())
		}
		for _, l := range []int{2, m - 1} {
			all, err := solve(g, Request{Algorithm: "brute", K: 1 << 14, L: l})
			if err != nil {
				t.Fatal(err)
			}
			ks := []int{len(all.Paths) + 1}
			for k := 1; k <= firstTieGroupEnd(all.Paths)+2; k++ {
				ks = append(ks, k)
			}
			for _, k := range ks {
				got, err := solve(g, Request{Algorithm: "dfs", K: k, L: l})
				if err != nil {
					t.Fatalf("gap %d l %d k %d: %v", gap, l, k, err)
				}
				if want := all.Paths[:min(k, len(all.Paths))]; !reflect.DeepEqual(got.Paths, want) {
					t.Errorf("gap %d l %d k %d: dfs returns\n%v\nbrute returns\n%v", gap, l, k, got.Paths, want)
				}
			}
		}
	}
}

// Normalized ranks by stability, weight/length, which ties across
// lengths as well (1.5/2 = 0.75/1): on the tie graphs it must return
// brute-normalized's Paths exactly at every k up to one past the first
// group of equal stabilities, and past every path.
func TestTieHeavyNormalizedPinned(t *testing.T) {
	const m, n = 5, 5
	for gap := 0; gap <= 2; gap++ {
		g := tieGraph(t, int64(500+gap), m, n, gap)
		for _, lmin := range []int{1, 2, m - 1} {
			all, err := solve(g, Request{Algorithm: "brute-normalized", K: 1 << 14, LMin: lmin})
			if err != nil {
				t.Fatal(err)
			}
			end := firstTieGroupEnd(all.Paths)
			if end == 0 {
				t.Fatalf("gap %d lmin %d: no tied stabilities; the graph does not exercise tie-breaking", gap, lmin)
			}
			ks := []int{len(all.Paths) + 1}
			for k := 1; k <= end+2; k++ {
				ks = append(ks, k)
			}
			for _, k := range ks {
				got, err := solve(g, Request{Algorithm: "normalized", K: k, LMin: lmin})
				if err != nil {
					t.Fatalf("gap %d lmin %d k %d: %v", gap, lmin, k, err)
				}
				if want := all.Paths[:min(k, len(all.Paths))]; !reflect.DeepEqual(got.Paths, want) {
					t.Errorf("gap %d lmin %d k %d: normalized returns\n%v\nbrute returns\n%v", gap, lmin, k, got.Paths, want)
				}
			}
		}
	}
}

// firstTieGroupEnd returns the index of the last path in the first group
// of bit-equal weights, or 0 when no two adjacent weights are equal.
func firstTieGroupEnd(paths []topk.Path) int {
	end := 0
	for i := 1; i < len(paths); i++ {
		if paths[i].Weight == paths[i-1].Weight {
			end = i
		} else if end > 0 {
			break
		}
	}
	return end
}
