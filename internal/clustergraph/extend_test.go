package clustergraph

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
)

// randomSets draws m cluster sets over a small shared vocabulary so
// overlaps (and therefore edges) are common.
func randomSets(rng *rand.Rand, m int) [][]cluster.Cluster {
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	sets := make([][]cluster.Cluster, m)
	for i := range sets {
		n := rng.Intn(5) // 0..4 clusters; empty intervals must work too
		for j := 0; j < n; j++ {
			var kws []string
			for _, w := range vocab {
				if rng.Intn(3) == 0 {
					kws = append(kws, w)
				}
			}
			if len(kws) == 0 {
				kws = []string{vocab[rng.Intn(len(vocab))]}
			}
			sets[i] = append(sets[i], cluster.New(0, i, kws))
		}
	}
	return sets
}

// TestExtendMatchesOneShot grows a graph interval by interval and
// requires the result to be deeply identical to the one-shot build at
// every step, across gaps.
func TestExtendMatchesOneShot(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(5)
		sets := randomSets(rng, m)
		for _, gap := range []int{0, 1, 3} {
			opts := FromClustersOptions{Gap: gap, Theta: 0.3}
			name := fmt.Sprintf("trial=%d m=%d gap=%d", trial, m, gap)
			g, err := FromClustersCtx(ctx, sets[:1], opts)
			if err != nil {
				t.Fatalf("%s: seed build: %v", name, err)
			}
			for k := 2; k <= m; k++ {
				prev := g
				prevEdges := prev.NumEdges()
				prevLists := halfLists(prev)
				g, err = ExtendCtx(ctx, g, sets[:k], opts)
				if err != nil {
					t.Fatalf("%s: extend to %d: %v", name, k, err)
				}
				full, err := FromClustersCtx(ctx, sets[:k], opts)
				if err != nil {
					t.Fatalf("%s: full build %d: %v", name, k, err)
				}
				if !reflect.DeepEqual(g, full) {
					t.Fatalf("%s: extended graph at %d intervals differs from one-shot build", name, k)
				}
				checkCapped(t, name, g)
				checkCapped(t, name, full)
				// The source graph must be untouched — a previous
				// generation may still be serving from it — down to
				// every half-edge of every list, which the new graph
				// may share.
				if prev.NumIntervals() != k-1 || prev.NumEdges() != prevEdges {
					t.Fatalf("%s: extend mutated its input graph", name)
				}
				if !reflect.DeepEqual(halfLists(prev), prevLists) {
					t.Fatalf("%s: extend to %d rewrote a half-edge list of its input graph", name, k)
				}
				for id := int64(0); id < int64(prev.NumNodes()); id++ {
					for _, h := range prev.Children(id) {
						if prev.Interval(h.Peer) >= k-1 {
							t.Fatalf("%s: input graph gained an edge into interval %d", name, prev.Interval(h.Peer))
						}
					}
				}
			}
		}
	}
}

// halfLists deep-copies every children and parents list of g, in node
// order.
func halfLists(g *Graph) [][]Half {
	var out [][]Half
	for id := int64(0); id < int64(g.NumNodes()); id++ {
		out = append(out, append([]Half(nil), g.Children(id)...), append([]Half(nil), g.Parents(id)...))
	}
	return out
}

// checkCapped requires every half-edge list of g to have len == cap: the
// lists are spans of shared arrays, and an append to one must copy
// instead of writing into the next node's span.
func checkCapped(t *testing.T, name string, g *Graph) {
	t.Helper()
	for id := int64(0); id < int64(g.NumNodes()); id++ {
		if ch, ps := g.Children(id), g.Parents(id); len(ch) != cap(ch) || len(ps) != cap(ps) {
			t.Fatalf("%s: node %d lists have len/cap %d/%d and %d/%d", name, id, len(ch), cap(ch), len(ps), cap(ps))
		}
	}
}

// TestExtendRejectsNormalize: ExtendCtx refuses a gap other than the
// graph's and cluster sets that are not one interval longer than it.
func TestExtendRejectsNormalize(t *testing.T) {
	sets := randomSets(rand.New(rand.NewSource(1)), 2)
	g, err := FromClusters(sets[:1], FromClustersOptions{Gap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtendCtx(context.Background(), g, sets, FromClustersOptions{Gap: 2}); err == nil {
		t.Fatal("ExtendCtx accepted a gap mismatch")
	}
	if _, err := ExtendCtx(context.Background(), g, sets[:1], FromClustersOptions{Gap: 1}); err == nil {
		t.Fatal("ExtendCtx accepted a length mismatch")
	}
}
