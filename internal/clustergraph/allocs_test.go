package clustergraph

import (
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
// with this test (pair loop 129, join 196) and a twentieth of the edge
// count.
func TestFromClustersAllocationCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const ceiling = 400
	sets := randClusterSets(3, 6, 50, 30, 6)
	for _, r := range jaccardRoutes {
		opts := FromClustersOptions{Gap: 1, Theta: 0.1, Affinity: r.aff}
		var g *Graph
		build := func() {
			var err error
			if g, err = FromClusters(sets, opts); err != nil {
				t.Fatal(err)
			}
		}
		// The collector off, so no GC bookkeeping lands in the
		// process-wide malloc count.
		old := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(1, build)
		debug.SetGCPercent(old)
		t.Logf("%s: %v allocations for %d edges", r.name, allocs, g.NumEdges())
		if g.NumEdges() < 20*ceiling {
			t.Fatalf("%s: %d edges, too few for a ceiling of %d to tell", r.name, g.NumEdges(), ceiling)
		}
		if allocs > ceiling {
			t.Errorf("%s: %v allocations per build of %d edges, ceiling %d", r.name, allocs, g.NumEdges(), ceiling)
		}
	}
}
