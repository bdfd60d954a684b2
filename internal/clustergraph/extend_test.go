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

// fuzzSets decodes m%8+1 cluster sets in randomSets' shape from data:
// for each interval one byte picks 0–4 clusters, and each cluster is
// the next byte read as a mask over an 8-word vocabulary (an empty mask
// names the first word). Once data runs out the intervals are empty.
func fuzzSets(m uint8, data []byte) [][]cluster.Cluster {
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	sets := make([][]cluster.Cluster, int(m)%8+1)
	for i := range sets {
		for range int(next()) % 5 {
			mask := next()
			kws := vocab[:1]
			if mask != 0 {
				kws = nil
				for w, word := range vocab {
					if mask&(1<<w) != 0 {
						kws = append(kws, word)
					}
				}
			}
			sets[i] = append(sets[i], cluster.New(0, i, kws))
		}
	}
	return sets
}

// FuzzExtendMatchesOneShot grows a one-interval graph one interval at a
// time over fuzz-chosen cluster sets (see fuzzSets), gap 0–3 and θ in
// (0, 1]. Every step must equal the one-shot build deeply, keep every
// list capped, and leave its input graph's half-edge lists as they were.
func FuzzExtendMatchesOneShot(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint16(299), []byte{2, 0x0f, 0x3c, 1, 0x07, 3, 0x0e, 0xf0, 0x01})
	f.Add(uint8(7), uint8(1), uint16(99), []byte{4, 0xff, 0x81, 0x18, 0x3c, 0, 2, 0x1f, 0xf8, 1, 0x66, 4, 0x0f, 0xf0, 0x33, 0xcc, 3, 0x55, 0xaa, 0x0f})
	f.Add(uint8(5), uint8(3), uint16(999), []byte{1, 0x03, 0, 0, 2, 0x03, 0x06, 1, 0x02, 4, 0x01, 0x02, 0x04, 0x08})
	f.Fuzz(func(t *testing.T, m, gap uint8, theta uint16, data []byte) {
		ctx := context.Background()
		sets := fuzzSets(m, data)
		opts := FromClustersOptions{Gap: int(gap % 4), Theta: float64(theta%1000+1) / 1000}
		g, err := FromClustersCtx(ctx, sets[:1], opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= len(sets); k++ {
			prev, prevLists := g, halfLists(g)
			if g, err = ExtendCtx(ctx, prev, sets[:k], opts); err != nil {
				t.Fatalf("extend to %d: %v", k, err)
			}
			full, err := FromClustersCtx(ctx, sets[:k], opts)
			if err != nil {
				t.Fatalf("full build %d: %v", k, err)
			}
			if !reflect.DeepEqual(g, full) {
				t.Fatalf("gap %d θ %g: extended graph at %d intervals differs from one-shot build", opts.Gap, opts.Theta, k)
			}
			checkCapped(t, fmt.Sprintf("extend to %d", k), g)
			if !reflect.DeepEqual(halfLists(prev), prevLists) {
				t.Fatalf("extend to %d rewrote a half-edge list of its input graph", k)
			}
		}
	})
}
