package clustergraph

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// indexParts is every part of a graph's solve index, with the suffix
// table swept to the full depth m−1.
type indexParts struct {
	suffix    []float64
	stride    int
	toEnd     []float64
	fromStart []float64
	lists     [][]Edge
	starts    [][][]int64 // StartOrder(l) at l−1
}

func readIndex(g *Graph) indexParts {
	var p indexParts
	p.suffix, p.stride = g.SuffixWeights(g.NumIntervals() - 1)
	p.toEnd = g.ToEndWeights()
	p.fromStart = g.FromStartWeights()
	p.lists = g.PairEdges()
	for l := 1; l < g.NumIntervals(); l++ {
		p.starts = append(p.starts, g.StartOrder(l))
	}
	return p
}

// clone deep-copies p, so that a later write into the graph's slices
// would show against it.
func (p indexParts) clone() indexParts {
	q := p
	q.suffix = slices.Clone(p.suffix)
	q.toEnd = slices.Clone(p.toEnd)
	q.fromStart = slices.Clone(p.fromStart)
	q.lists = make([][]Edge, len(p.lists))
	for i, l := range p.lists {
		q.lists[i] = slices.Clone(l)
	}
	q.starts = nil
	for _, lists := range p.starts {
		c := make([][]int64, len(lists))
		for i, list := range lists {
			c[i] = slices.Clone(list)
		}
		q.starts = append(q.starts, c)
	}
	return q
}

// TestExtendIndexMatchesOneShot grows graphs whose solve index is built
// before each extension: the extended graph's index must equal the
// index of the one-shot build over the same sets, its intervals must
// list their nodes in ascending id, and the source
// graph's index must be left exactly as it was, since a previous
// generation may still be serving solves from it.
func TestExtendIndexMatchesOneShot(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(35))
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
				before := readIndex(prev).clone()
				if g, err = ExtendCtx(ctx, g, sets[:k], opts); err != nil {
					t.Fatalf("%s: extend to %d: %v", name, k, err)
				}
				checkNodesAscending(t, name, g)
				full, err := FromClustersCtx(ctx, sets[:k], opts)
				if err != nil {
					t.Fatalf("%s: full build %d: %v", name, k, err)
				}
				if !reflect.DeepEqual(readIndex(g), readIndex(full)) {
					t.Fatalf("%s: extended graph's index at %d intervals differs from the one-shot build's", name, k)
				}
				if !reflect.DeepEqual(readIndex(prev), before) {
					t.Fatalf("%s: extending to %d intervals changed the source graph's index", name, k)
				}
			}
		}
	}
}

// TestSolveIndexParts checks each part against what it claims. U_r(v)
// does not depend on the depth it was swept to, so every shallower
// table is a slice of the deepest; U(v) is the deepest table's
// U_{m−1−i}(v); P(v) of a node on interval 0 is 0 and otherwise the best
// parent's P plus the edge; and the edge lists hold every edge once, in
// their pair's list and in heaviestFirst order. The start order of
// length l lists, per interval i ≤ m−1−l, the nodes of i whose U_l is
// finite, by U_l descending and then id; and NodesAt lists an interval
// in ascending id.
func TestSolveIndexParts(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(5)
		gap := rng.Intn(3)
		g, err := FromClustersCtx(ctx, randomSets(rng, m), FromClustersOptions{Gap: gap, Theta: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("trial=%d m=%d gap=%d", trial, m, gap)
		deep := g.sweepSuffixes(m - 1)
		for depth := 0; depth < m; depth++ {
			shallow := g.sweepSuffixes(depth)
			for v := 0; v < g.NumNodes(); v++ {
				if !slices.Equal(shallow[v*(depth+1):(v+1)*(depth+1)], deep[v*m:v*m+depth+1]) {
					t.Fatalf("%s: node %d at depth %d: %v, the depth-%d table says %v", name, v, depth,
						shallow[v*(depth+1):(v+1)*(depth+1)], m-1, deep[v*m:v*m+depth+1])
				}
			}
		}
		toEnd, fromStart := g.ToEndWeights(), g.FromStartWeights()
		for v := int64(0); v < int64(g.NumNodes()); v++ {
			if want := deep[int(v)*m+m-1-g.Interval(v)]; toEnd[v] != want {
				t.Fatalf("%s: U(%d) = %v, the suffix table says %v", name, v, toEnd[v], want)
			}
			want := 0.0
			if g.Interval(v) > 0 {
				want = math.Inf(-1)
				for _, h := range g.Parents(v) {
					want = max(want, fromStart[h.Peer]+h.Weight)
				}
			}
			if fromStart[v] != want {
				t.Fatalf("%s: P(%d) = %v, want %v", name, v, fromStart[v], want)
			}
		}
		lists, seen := g.PairEdges(), 0
		for li, list := range lists {
			if !slices.IsSortedFunc(list, heaviestFirst) {
				t.Fatalf("%s: list %d out of order: %v", name, li, list)
			}
			for _, e := range list {
				i := g.Interval(e.From)
				if li != i*(gap+1)+g.Interval(e.To)-i-1 {
					t.Fatalf("%s: edge %v in list %d", name, e, li)
				}
				if !slices.Contains(g.Children(e.From), Half{Peer: e.To, Weight: e.Weight, Length: g.Interval(e.To) - i}) {
					t.Fatalf("%s: list %d holds %v, which is not an edge", name, li, e)
				}
				seen++
			}
		}
		if seen != g.NumEdges() {
			t.Fatalf("%s: lists hold %d edges, the graph has %d", name, seen, g.NumEdges())
		}
		checkNodesAscending(t, name, g)
		for l := 1; l < m; l++ {
			u := func(v int64) float64 { return deep[int(v)*m+l] }
			starts := g.StartOrder(l)
			if len(starts) != m-l {
				t.Fatalf("%s: l %d: %d start lists, want %d", name, l, len(starts), m-l)
			}
			for i, list := range starts {
				var want []int64
				for _, v := range g.NodesAt(i) {
					if !math.IsInf(u(v), -1) {
						want = append(want, v)
					}
				}
				slices.SortFunc(want, func(a, b int64) int { return cmp.Or(cmp.Compare(u(b), u(a)), cmp.Compare(a, b)) })
				if !slices.Equal(list, want) {
					t.Fatalf("%s: l %d interval %d: start order %v, want %v", name, l, i, list, want)
				}
			}
		}
	}
}

// checkNodesAscending fails t unless every NodesAt(i) of g is in
// ascending id, the order the BFS solver pushes an interval's nodes in.
func checkNodesAscending(t *testing.T, name string, g *Graph) {
	t.Helper()
	for i := range g.NumIntervals() {
		if !slices.IsSorted(g.NodesAt(i)) {
			t.Fatalf("%s: NodesAt(%d) is not in ascending id: %v", name, i, g.NodesAt(i))
		}
	}
}
