package core

import (
	"math/rand"
	"testing"

	"repro/internal/synth"
)

// checkAgainstBrute generates the graph for cfg and requires DFS (with
// pruning) and BFS — and TA, when l = m−1 — to return the exhaustive
// oracle's top-k weights.
func checkAgainstBrute(t *testing.T, cfg synth.Config, l, k int) {
	t.Helper()
	g, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("cfg %+v: %v", cfg, err)
	}
	want, err := solve(g, Request{Algorithm: "brute", K: k, L: l})
	if err != nil {
		t.Fatal(err)
	}
	dfs, err := solve(g, Request{Algorithm: "dfs", K: k, L: l})
	if err != nil {
		t.Fatalf("cfg %+v l %d k %d: %v", cfg, l, k, err)
	}
	if !weightsAlmostEqual(dfs.Weights(), want.Weights()) {
		t.Fatalf("cfg %+v l %d k %d: DFS %v != brute %v", cfg, l, k, dfs.Weights(), want.Weights())
	}
	bfs, err := solve(g, Request{K: k, L: l})
	if err != nil {
		t.Fatal(err)
	}
	if !weightsAlmostEqual(bfs.Weights(), want.Weights()) {
		t.Fatalf("cfg %+v l %d k %d: BFS %v != brute %v", cfg, l, k, bfs.Weights(), want.Weights())
	}
	if l != cfg.M-1 {
		return
	}
	ta, err := solve(g, Request{Algorithm: "ta", K: k, L: l})
	if err != nil {
		t.Fatalf("cfg %+v l %d k %d: %v", cfg, l, k, err)
	}
	if !weightsAlmostEqual(ta.Weights(), want.Weights()) {
		t.Fatalf("cfg %+v l %d k %d: TA %v != brute %v", cfg, l, k, ta.Weights(), want.Weights())
	}
}

// FuzzSolverEquivalence is the native-fuzzing form of
// TestFuzzEquivalence, driven through the unified Solve dispatch: the
// engine mutates the generator parameters, and the solvers must keep
// agreeing with the exhaustive oracles — BFS and DFS (and TA on full
// paths) with brute on weights, normalized with brute-normalized on
// Paths, at the same k and with the length as lmin. The nightly
// fuzz-smoke CI job runs it for ~60s; `go test` runs the seed corpus as
// a regression test.
func FuzzSolverEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(2), uint8(1), uint8(2), uint8(3))
	f.Add(int64(7), uint8(2), uint8(2), uint8(1), uint8(0), uint8(1), uint8(1))
	f.Add(int64(42), uint8(7), uint8(8), uint8(3), uint8(2), uint8(6), uint8(5))
	f.Add(int64(11), uint8(5), uint8(6), uint8(2), uint8(1), uint8(3), uint8(29)) // k = 30
	f.Add(int64(5), uint8(4), uint8(6), uint8(2), uint8(1), uint8(4), uint8(34))  // m 6, full paths, k = 35
	// m 6, gap 2, full paths, k = 25: DFS's one heap per node across gap
	// edges, BFS's heaps over several blocks and slot tables.
	f.Add(int64(3), uint8(4), uint8(6), uint8(2), uint8(2), uint8(4), uint8(24))
	// m 7, n 8, l 1, k = 10: every interval but the last lists up to 8
	// start nodes, most of which reach the floor.
	f.Add(int64(9), uint8(5), uint8(6), uint8(1), uint8(1), uint8(0), uint8(9))
	// m 5, gap 2, lmin = m−1, k = 8: normalized makes one full-path run,
	// ranking by weight/4.
	f.Add(int64(19), uint8(3), uint8(4), uint8(1), uint8(2), uint8(3), uint8(7))
	// m 7, n 2, lmin 1, k = 40: normalized runs six lengths, and k is
	// above the graph's 14 nodes and its 32 full paths.
	f.Add(int64(17), uint8(5), uint8(0), uint8(0), uint8(0), uint8(0), uint8(39))
	f.Fuzz(func(t *testing.T, seed int64, m8, n8, d8, g8, l8, k8 uint8) {
		m := 2 + int(m8)%6
		cfg := synth.Config{
			Seed: seed,
			M:    m,
			N:    2 + int(n8)%7,
			D:    1 + int(d8)%3,
			G:    int(g8) % 3,
		}
		// k ranges over what the server is asked for, so that a solve's
		// heaps span several blocks and pages.
		l, k := 1+int(l8)%(m-1), 1+int(k8)%40
		checkAgainstBrute(t, cfg, l, k)
		g, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkNormalizedAgainstBrute(t, g, k, l)
	})
}

// TestFuzzEquivalence hammers BFS, DFS (with pruning) and TA against the
// exhaustive oracle on randomized graph shapes. Skipped under -short.
func TestFuzzEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz equivalence skipped in short mode")
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 150; trial++ {
		m := 2 + rng.Intn(6)
		cfg := synth.Config{Seed: rng.Int63(), M: m, N: 2 + rng.Intn(7), D: 1 + rng.Intn(3), G: rng.Intn(3)}
		l := 1 + rng.Intn(m-1)
		k := 1 + rng.Intn(40)
		checkAgainstBrute(t, cfg, l, k)
	}
}
