// Package synth generates synthetic cluster graphs following the
// experimental methodology of Section 5.2 of the paper, and provides
// the worked-example graph of Figure 5 used by the paper's Sections 4.2
// and 4.3.
package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/clustergraph"
)

// Config mirrors the paper's synthetic data generator: "first creating
// a set of nodes of size n for each of the m temporal intervals. For
// pairs of temporal intervals i and i', i − i' ≤ g + 1 ..., edges were
// added as follows: for each node cij from the first temporal interval,
// its out degree dij was selected randomly and uniformly between 1 and
// 2·d, and then dij nodes were randomly selected from the second
// temporal interval to construct edges for cij. Edge weights were
// selected from (0,1] uniformly."
type Config struct {
	// Seed makes the graph reproducible.
	Seed int64
	// M is the number of temporal intervals.
	M int
	// N is the number of nodes per interval.
	N int
	// D is the average out degree per interval pair; actual out degrees
	// are uniform in [1, 2D].
	D int
	// G is the gap size.
	G int
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.M <= 0 {
		return fmt.Errorf("synth: M must be positive, got %d", c.M)
	}
	if c.N <= 0 {
		return fmt.Errorf("synth: N must be positive, got %d", c.N)
	}
	if c.D <= 0 {
		return fmt.Errorf("synth: D must be positive, got %d", c.D)
	}
	if c.G < 0 {
		return fmt.Errorf("synth: G must be >= 0, got %d", c.G)
	}
	return nil
}

// Generate builds the synthetic cluster graph.
func Generate(c Config) (*clustergraph.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	b, err := clustergraph.NewBuilder(c.M, c.G)
	if err != nil {
		return nil, err
	}
	ids := make([][]int64, c.M)
	for i := 0; i < c.M; i++ {
		ids[i] = make([]int64, c.N)
		for j := 0; j < c.N; j++ {
			id, err := b.AddNode(i, cluster.Cluster{})
			if err != nil {
				return nil, err
			}
			ids[i][j] = id
		}
	}
	// For each ordered interval pair (i, i') with distance <= g+1, give
	// every node of interval i a random out degree into interval i'.
	for i := 0; i < c.M; i++ {
		for dist := 1; dist <= c.G+1 && i+dist < c.M; dist++ {
			tgt := ids[i+dist]
			for _, u := range ids[i] {
				deg := rng.Intn(2*c.D) + 1
				if deg > len(tgt) {
					deg = len(tgt)
				}
				// Sample deg distinct targets.
				seen := map[int]struct{}{}
				for len(seen) < deg {
					j := rng.Intn(len(tgt))
					if _, dup := seen[j]; dup {
						continue
					}
					seen[j] = struct{}{}
					// Weight uniform in (0,1]: 1 - [0,1) is (0,1].
					if err := b.AddEdge(u, tgt[j], 1-rng.Float64()); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return b.Build(), nil
}

// Figure5IDs names the nodes of the Figure 5 fixture: ID[i][j] is the
// paper's c(i+1)(j+1).
type Figure5IDs [3][3]int64

// Figure5 reconstructs the cluster graph of the paper's Figure 5 with
// the edge weights implied by the worked examples of Sections 4.2
// (BFS heap contents) and 4.3 (Table 2 DFS trace): three intervals of
// three clusters each, gap 1, and one length-2 gap edge c11–c32.
//
//	c11─0.5─c21  c21─0.7─c31   c11─0.6─c32 (length 2)
//	c12─0.1─c22  c22─0.7─c31
//	c13─0.8─c22  c21─0.4─c32
//	c12─0.4─c23  c22─0.9─c33
//	             c23─0.4─c33
//
// The top-2 full paths are c13c22c33 (1.7) and c13c22c31 (1.5), matching
// the paper.
func Figure5() (*clustergraph.Graph, Figure5IDs) {
	b, err := clustergraph.NewBuilder(3, 1)
	if err != nil {
		panic(err)
	}
	var ids Figure5IDs
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			id, err := b.AddNode(i, cluster.Cluster{})
			if err != nil {
				panic(err)
			}
			ids[i][j] = id
		}
	}
	edges := []struct {
		u, v int64
		w    float64
	}{
		{ids[0][0], ids[1][0], 0.5}, // c11-c21
		{ids[0][1], ids[1][1], 0.1}, // c12-c22
		{ids[0][2], ids[1][1], 0.8}, // c13-c22
		{ids[0][1], ids[1][2], 0.4}, // c12-c23
		{ids[1][0], ids[2][0], 0.7}, // c21-c31
		{ids[1][1], ids[2][0], 0.7}, // c22-c31
		{ids[1][0], ids[2][1], 0.4}, // c21-c32
		{ids[1][1], ids[2][2], 0.9}, // c22-c33
		{ids[1][2], ids[2][2], 0.4}, // c23-c33
		{ids[0][0], ids[2][1], 0.6}, // c11-c32 (gap edge, length 2)
	}
	for _, e := range edges {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			panic(err)
		}
	}
	return b.Build(), ids
}
