package clustergraph

import (
	"context"
	"runtime/debug"
	"testing"

	"repro/internal/raceflag"
)

// Allocation ceiling, in tier-1: FromClusters collects its edges into
// one presized list and Build lays the half-edges out in one children
// and one parents array, so what a build allocates is set by the
// number of intervals and edge tasks — not by the thousands of edges,
// which once cost two appends each into per-node lists (3 523 and
// 3 902 allocations here). What is left grows with the log of each
// edge task's buffer. The ceiling is about twice the count recorded
// with this test (196) and a twentieth of the edge count.
func TestFromClustersAllocationCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const ceiling = 400
	sets := randClusterSets(3, 6, 50, 30, 6)
	opts := FromClustersOptions{Gap: 1, Theta: 0.1}
	var g *Graph
	build := func() {
		var err error
		if g, err = FromClusters(sets, opts); err != nil {
			t.Fatal(err)
		}
	}
	// The collector off, so no GC bookkeeping lands in the process-wide
	// malloc count.
	old := debug.SetGCPercent(-1)
	allocs := testing.AllocsPerRun(1, build)
	debug.SetGCPercent(old)
	t.Logf("%v allocations for %d edges", allocs, g.NumEdges())
	if g.NumEdges() < 20*ceiling {
		t.Fatalf("%d edges, too few for a ceiling of %d to tell", g.NumEdges(), ceiling)
	}
	if allocs > ceiling {
		t.Errorf("%v allocations per build of %d edges, ceiling %d", allocs, g.NumEdges(), ceiling)
	}
}

// TestExtendAllocationCeiling: a push's graph step allocates per push,
// not per node. ExtendCtx copies the node arrays and lays the new
// half-edges out in one children and one parents array, so growing a
// 23-interval graph by one interval allocates as often as growing a
// 5-interval one.
func TestExtendAllocationCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	opts := FromClustersOptions{Gap: 1, Theta: 0.1}
	counts := map[int]float64{}
	for _, m := range []int{6, 24} {
		sets := randClusterSets(3, m, 50, 30, 6)
		g, err := FromClusters(sets[:m-1], opts)
		if err != nil {
			t.Fatal(err)
		}
		var ng *Graph
		extend := func() {
			if ng, err = ExtendCtx(context.Background(), g, sets, opts); err != nil {
				t.Fatal(err)
			}
		}
		old := debug.SetGCPercent(-1)
		counts[m] = testing.AllocsPerRun(1, extend)
		debug.SetGCPercent(old)
		t.Logf("m %d: %v allocations for %d new edges", m, counts[m], ng.NumEdges()-g.NumEdges())
	}
	if counts[6] != counts[24] {
		t.Errorf("ExtendCtx allocates %v times at m 6 and %v at m 24: a push's graph step grows with the graph", counts[6], counts[24])
	}
}
